#include "trace.h"

#include <cstdio>

#include "util.h"

namespace xqbench {

void Tracer::BeginRequest(const std::string& root_name,
                          const std::string& family) {
  request_ = next_request_++;
  family_ = family;
  open_.clear();
  Open(root_name.c_str());
}

void Tracer::EndRequest() {
  if (!open_.empty()) Close(open_.front());
  open_.clear();
  request_ = 0;
}

int Tracer::Open(const char* name) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.request = request_;
  span.family = family_;
  span.start = Now();
  spans_.push_back(std::move(span));
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void Tracer::Close(int index) {
  spans_[static_cast<size_t>(index)].end = Now();
  while (!open_.empty()) {
    const int top = open_.back();
    open_.pop_back();
    if (top == index) break;
  }
}

void Tracer::AddMeasured(const char* name, double start, double end) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.request = request_;
  span.family = family_;
  span.start = start;
  span.end = end;
  spans_.push_back(std::move(span));
}

void Tracer::Append(Tracer&& other) {
  const int offset = static_cast<int>(spans_.size());
  const int64_t request_offset = next_request_ - 1;
  for (Span& span : other.spans_) {
    if (span.parent >= 0) span.parent += offset;
    span.request += request_offset;
    spans_.push_back(std::move(span));
  }
  next_request_ += other.next_request_ - 1;
  other.spans_.clear();
}

bool Tracer::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fputs("[\n", f);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,\"parent\":%d,"
                 "\"request\":%lld,\"family\":\"%s\"}%s\n",
                 s.name.c_str(), s.start, s.end, s.parent,
                 static_cast<long long>(s.request), s.family.c_str(),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fputs("]\n", f);
  return std::fclose(f) == 0;
}

std::vector<RequestTimes> AggregateRequests(const std::vector<Span>& spans) {
  // Children's summed duration per span: self time = duration - that.
  std::vector<double> child_time(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child_time[static_cast<size_t>(s.parent)] += s.end - s.start;
    }
  }
  std::map<int64_t, RequestTimes> by_request;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    RequestTimes& r = by_request[s.request];
    const double duration = s.end - s.start;
    if (s.parent < 0) {
      r.root = s.name;
      r.family = s.family;
      r.total = duration;
      r.layers = child_time[i];
    } else {
      r.self[s.name] += duration - child_time[i];
    }
  }
  std::vector<RequestTimes> out;
  out.reserve(by_request.size());
  for (auto& [id, r] : by_request) out.push_back(std::move(r));
  return out;
}

}  // namespace xqbench
