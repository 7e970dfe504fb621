// In-memory span recorder for the traced run.
//
// A span is a timed call into one layer: name ("opt.isolate"), start,
// end, the span that encloses it, and the request it belongs to. Every
// request has one root span named "request" (or "prepare" for the
// one-off compilation of a workload's statements); the spans recorded
// while it is open share its request id. Spans stay in memory and are
// written out as JSON when the run ends.
//
// A Tracer is single-threaded; concurrent clients each own one and the
// caller merges them with Append.
#ifndef XQBENCH_TRACE_H_
#define XQBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace xqbench {

struct Span {
  std::string name;
  double start = 0.0;  ///< seconds on the Now() clock
  double end = 0.0;
  int parent = -1;     ///< index into the tracer's span list, -1 for roots
  int64_t request = 0;
  std::string family;  ///< query family of the request ("Q1" .. "QP")
};

class Tracer {
 public:
  /// Opens a root span; every span until EndRequest belongs to it.
  void BeginRequest(const std::string& root_name, const std::string& family);
  void EndRequest();

  /// Opens a child of the innermost open span; returns its index.
  int Open(const char* name);
  void Close(int index);

  /// Records an already-measured interval as a child of the innermost
  /// open span (a duration another process reported).
  void AddMeasured(const char* name, double start, double end);

  /// Moves `other`'s spans in behind this tracer's, keeping parent links
  /// and request ids distinct.
  void Append(Tracer&& other);

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes every span as one JSON array; false if the file can't be
  /// written.
  bool WriteJson(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
  int64_t next_request_ = 1;
  int64_t request_ = 0;
  std::string family_;
};

/// RAII span: Open on construction, Close on every exit path.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name)
      : tracer_(tracer), index_(tracer.Open(name)) {}
  ~ScopedSpan() { tracer_.Close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

/// Per-request aggregate of one root span.
struct RequestTimes {
  std::string root;    ///< "request" or "prepare"
  std::string family;
  double total = 0.0;  ///< root span duration, seconds
  double layers = 0.0; ///< summed durations of the root's direct children
  /// Layer name -> summed self time (duration minus direct children).
  std::map<std::string, double> self;
};

/// Folds the spans into one RequestTimes per request id.
std::vector<RequestTimes> AggregateRequests(const std::vector<Span>& spans);

}  // namespace xqbench

#endif  // XQBENCH_TRACE_H_
