// The three workloads and the metrics they report.
//
//   repeat  Q1..Q6 prepared once in join-graph mode, then executed
//           round-robin (plan-cache hit + ExecuteAll) by one caller.
//   adhoc   one caller sends literal variants of Q1, Q3..Q6 it never
//           sent before (Prepare misses, Execute, drain); every sixth
//           operation is a write (side-document reload + index rebuild).
//   serve   an in-process QueryServer on loopback with one client
//           connection in a closed loop of EXECUTE, FETCH-all, CLOSE.
//
// Every request list is seeded and has a fixed length derived from the
// requested seconds, so two builds run identical mixes. A traced run
// (RunConfig::trace) issues every request twice — once through the
// public API, untraced, and once through the traced layer-by-layer
// pipeline — and reports per-layer metrics instead of end-to-end ones.
#ifndef XQBENCH_WORKLOADS_H_
#define XQBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"

namespace xqbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< where the traced run writes its spans
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunOutcome {
  int64_t attempted = 0;
  int64_t failed = 0;  ///< wrong answers, errors and BUSY replies
  int64_t wrong = 0;   ///< answers that differ from the oracle
  std::vector<Metric> metrics;
};

/// Runs one workload end to end: generate inputs, set up, compute the
/// oracle's answers, measure, and summarize.
xqjg::Result<RunOutcome> RunBenchmark(const RunConfig& config);

}  // namespace xqbench

#endif  // XQBENCH_WORKLOADS_H_
