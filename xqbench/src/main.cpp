// xqbench — end-to-end and per-layer benchmark of the XQuery join-graph
// processor.
//
//   xqbench --workload repeat|adhoc|serve --seed N --seconds S --trace 0|1
//           [--trace-out spans.json]
//
// Prints a per-family summary, then, as the last line of standard output,
// one JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones of the traced run. Exits 1 when any answer differs from
// the native interpreter's, 2 on a usage or set-up error.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload repeat|adhoc|serve --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  xqbench::RunConfig config;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::atof(value);
    } else if (flag == "--trace") {
      config.trace = std::atoi(value) != 0;
    } else if (flag == "--trace-out") {
      config.trace_out = value;
    } else {
      return Usage(argv[0]);
    }
  }
  if (argc % 2 != 1 || config.workload.empty() || config.seconds <= 0) {
    return Usage(argv[0]);
  }
  auto outcome = xqbench::RunBenchmark(config);
  if (!outcome.ok()) {
    std::fprintf(stderr, "xqbench: %s\n", outcome.status().ToString().c_str());
    return 2;
  }
  const xqbench::RunOutcome& out = outcome.value();
  for (const xqbench::Metric& m : out.metrics) {
    std::printf("%-36s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += out.wrong == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    const xqbench::Metric& m = out.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return out.wrong == 0 ? 0 : 1;
}
