// Prepared-query throughput: what the prepare/execute split buys.
//
// For each paper query (join-graph mode, columnar executors) this bench
// compares three serving strategies:
//   cold Run       — plan cache cleared before every call, so each request
//                    pays parse + normalize + compile + isolate + plan;
//   cached Prepare+Execute — one compilation, then repeated executions of
//                    the shared immutable PreparedQuery (the paper's
//                    "ship the join graph once" architecture);
//   concurrent     — T threads executing the same PreparedQuery at once
//                    (const execution layers, per-execution state only).
//
// Set XQJG_BENCH_JSON=<path> to emit the numbers as JSON — CI stores the
// file as the BENCH_prepared.json perf-trajectory artifact.
//
// Environment knobs (plus the bench_common ones):
//   XQJG_BENCH_EXEC_ITERS  (default 3)  executions averaged per strategy
//   XQJG_BENCH_THREADS     (default 4)  concurrent sessions
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"

using namespace xqjg;
using bench::Workbench;

namespace {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct QueryNumbers {
  std::string id;
  size_t rows = 0;
  double compile_seconds = 0;
  double cold_run_seconds = 0;       // avg, cache cleared each call
  double warm_run_seconds = 0;       // avg, cache hit each call
  double cached_execute_seconds = 0; // avg ExecuteAll on shared prepared
  int threads = 0;
  int concurrent_execs = 0;
  double concurrent_wall_seconds = 0;
  double concurrent_qps = 0;
  double single_qps = 0;
  bool failed = false;
};

}  // namespace

int main() {
  Workbench& wb = Workbench::Instance();
  const int iters =
      static_cast<int>(bench::EnvDouble("XQJG_BENCH_EXEC_ITERS", 3));
  const int threads =
      static_cast<int>(bench::EnvDouble("XQJG_BENCH_THREADS", 4));

  std::printf(
      "Prepared-query throughput — cold Run vs cached Prepare+Execute vs\n"
      "%d concurrent sessions sharing one PreparedQuery (join-graph mode,\n"
      "columnar executors; %d executions averaged per strategy;\n"
      "%u hardware threads — scaling tops out there)\n\n",
      threads, iters, std::thread::hardware_concurrency());
  std::printf("%-5s %8s | %10s %10s %10s %8s | %10s %8s\n", "Query", "rows",
              "cold (s)", "warm (s)", "exec (s)", "amort", "conc qps",
              "scaling");
  std::printf("%.*s\n", 92,
              "--------------------------------------------------------------"
              "------------------------------");

  std::vector<QueryNumbers> numbers;
  for (const auto& q : api::PaperQueries()) {
    QueryNumbers n;
    n.id = q.id;
    n.threads = threads;

    api::PrepareOptions prep;
    prep.mode = api::Mode::kJoinGraph;
    prep.context_document = q.document;
    api::ExecuteOptions exec;
    exec.limits.timeout_seconds = wb.dnf_seconds;
    api::RunOptions run;
    run.mode = api::Mode::kJoinGraph;
    run.context_document = q.document;
    run.timeout_seconds = wb.dnf_seconds;

    // Cold: every request recompiles (cache cleared in between).
    for (int i = 0; i < iters; ++i) {
      wb.processor.ClearPlanCache();
      const double started = Now();
      auto result = wb.processor.Run(q.text, run);
      if (!result.ok()) {
        std::fprintf(stderr, "%s cold: %s\n", q.id.c_str(),
                     result.status().ToString().c_str());
        n.failed = true;
        break;
      }
      n.cold_run_seconds += Now() - started;
      n.rows = result.value().result_count();
    }
    if (n.failed) {
      numbers.push_back(n);
      continue;
    }
    n.cold_run_seconds /= iters;

    // Cached: Prepare once, execute the shared artifact.
    auto prepared = wb.processor.Prepare(q.text, prep);
    if (!prepared.ok()) {
      std::fprintf(stderr, "%s prepare: %s\n", q.id.c_str(),
                   prepared.status().ToString().c_str());
      n.failed = true;
      numbers.push_back(n);
      continue;
    }
    n.compile_seconds = prepared.value()->compile_seconds;
    for (int i = 0; i < iters && !n.failed; ++i) {
      const double started = Now();
      auto result = wb.processor.ExecuteAll(prepared.value(), exec);
      if (!result.ok()) n.failed = true;
      n.cached_execute_seconds += Now() - started;
    }
    n.cached_execute_seconds /= iters;

    // Warm Run: the shim hitting the plan cache.
    for (int i = 0; i < iters && !n.failed; ++i) {
      const double started = Now();
      auto result = wb.processor.Run(q.text, run);
      if (!result.ok()) n.failed = true;
      n.warm_run_seconds += Now() - started;
    }
    n.warm_run_seconds /= iters;
    if (n.failed) {
      // Don't average partial sums or report throughput for a failed
      // query — a bare "failed" row keeps the JSON trajectory honest.
      std::fprintf(stderr, "%s: cached/warm execution failed\n",
                   q.id.c_str());
      std::printf("%-5s %8zu | %10s\n", n.id.c_str(), n.rows, "FAILED");
      numbers.push_back(n);
      continue;
    }

    // Concurrent sessions: T threads × iters executions each.
    n.concurrent_execs = threads * iters;
    {
      std::atomic<bool> concurrent_failed{false};
      std::vector<std::thread> pool;
      const double started = Now();
      for (int t = 0; t < threads; ++t) {
        pool.emplace_back([&]() {
          for (int i = 0; i < iters; ++i) {
            auto result = wb.processor.ExecuteAll(prepared.value(), exec);
            if (!result.ok()) concurrent_failed.store(true);
          }
        });
      }
      for (auto& thread : pool) thread.join();
      n.concurrent_wall_seconds = Now() - started;
      if (concurrent_failed.load()) n.failed = true;
    }
    if (n.failed) {
      std::fprintf(stderr, "%s: concurrent execution failed\n", q.id.c_str());
      std::printf("%-5s %8zu | %10s\n", n.id.c_str(), n.rows, "FAILED");
      numbers.push_back(n);
      continue;
    }
    n.concurrent_qps = n.concurrent_execs / n.concurrent_wall_seconds;
    n.single_qps = 1.0 / n.cached_execute_seconds;

    std::printf("%-5s %8zu | %10.4f %10.4f %10.4f %7.2fx | %10.2f %7.2fx\n",
                n.id.c_str(), n.rows, n.cold_run_seconds, n.warm_run_seconds,
                n.cached_execute_seconds,
                n.cold_run_seconds / n.cached_execute_seconds,
                n.concurrent_qps, n.concurrent_qps / n.single_qps);
    numbers.push_back(n);
  }

  // Parameterized-execute axis: one prepared statement with a `$person`
  // marker serves a whole literal family (plan-cache hits + per-Execute
  // bindings), against serving the same family as N distinct literal
  // query texts (one compilation per literal — the pre-parameter cost).
  struct ParamAxis {
    int bindings = 0;
    double literal_total_seconds = 0;  // N distinct texts, each compiled
    size_t literal_cache_entries = 0;
    double param_compile_seconds = 0;  // the one compilation
    double param_total_seconds = 0;    // N binds off the cached plan
    size_t param_cache_entries = 0;
    int64_t param_cache_hits = 0;
    bool failed = false;
  } axis;
  axis.bindings = 12;
  {
    const std::string param_text =
        "declare variable $person external; "
        "/site/people/person[@id = $person]/name/text()";
    api::PrepareOptions prep;
    prep.mode = api::Mode::kJoinGraph;
    prep.context_document = "auction.xml";
    api::RunOptions run;
    run.mode = api::Mode::kJoinGraph;
    run.context_document = "auction.xml";
    run.timeout_seconds = wb.dnf_seconds;

    // Literal family: every binding is a distinct query text.
    wb.processor.ClearPlanCache();
    std::vector<std::vector<std::string>> literal_items;
    const double lit_started = Now();
    for (int i = 0; i < axis.bindings && !axis.failed; ++i) {
      auto result = wb.processor.Run(
          "/site/people/person[@id = \"person" + std::to_string(i) +
              "\"]/name/text()",
          run);
      if (!result.ok()) {
        axis.failed = true;
        break;
      }
      literal_items.push_back(std::move(result.value().items));
    }
    axis.literal_total_seconds = Now() - lit_started;
    axis.literal_cache_entries = wb.processor.plan_cache_stats().entries;

    // Parameterized family: one text, one plan, N bindings.
    wb.processor.ClearPlanCache();
    const auto stats_before = wb.processor.plan_cache_stats();
    const double param_started = Now();
    auto prepared = wb.processor.Prepare(param_text, prep);
    if (!prepared.ok()) axis.failed = true;
    for (int i = 0; i < axis.bindings && !axis.failed; ++i) {
      // Re-Prepare per request, as a query service would: all hits.
      auto again = wb.processor.Prepare(param_text, prep);
      if (!again.ok() || again.value().get() != prepared.value().get()) {
        axis.failed = true;
        break;
      }
      api::ExecuteOptions exec;
      exec.limits.timeout_seconds = wb.dnf_seconds;
      exec.parameters["person"] = Value::String("person" + std::to_string(i));
      auto result = wb.processor.ExecuteAll(again.value(), exec);
      if (!result.ok() ||
          result.value().items != literal_items[static_cast<size_t>(i)]) {
        axis.failed = true;  // differential: bindings must match literals
        break;
      }
    }
    axis.param_total_seconds = Now() - param_started;
    if (!axis.failed) {
      axis.param_compile_seconds = prepared.value()->compile_seconds;
    }
    const auto stats_after = wb.processor.plan_cache_stats();
    axis.param_cache_entries = stats_after.entries;
    axis.param_cache_hits = stats_after.hits - stats_before.hits;

    if (axis.failed) {
      std::printf("\nparameterized axis: FAILED\n");
    } else {
      std::printf(
          "\nparameterized: %d bindings via one cached plan in %.4fs "
          "(%zu cache entr%s, %lld hits) vs %.4fs as %zu literal plans "
          "— %.2fx\n",
          axis.bindings, axis.param_total_seconds, axis.param_cache_entries,
          axis.param_cache_entries == 1 ? "y" : "ies",
          static_cast<long long>(axis.param_cache_hits),
          axis.literal_total_seconds, axis.literal_cache_entries,
          axis.param_total_seconds > 0
              ? axis.literal_total_seconds / axis.param_total_seconds
              : 0.0);
    }
  }

  bool all_amortized = true;
  for (const auto& n : numbers) {
    if (n.failed || n.cached_execute_seconds >= n.cold_run_seconds) {
      all_amortized = false;
    }
  }
  if (axis.failed || axis.param_cache_entries != 1 ||
      axis.param_cache_hits < axis.bindings) {
    all_amortized = false;
  }
  std::printf("\n%s\n", all_amortized
                            ? "cached Prepare+Execute beat cold Run on "
                              "every query"
                            : "WARNING: some query did not amortize "
                              "(or failed)");

  std::string json = "{\"bench\":\"prepared_throughput\",\"exec_iters\":" +
                     std::to_string(numbers.empty() ? 0 : iters) +
                     ",\"queries\":[";
  for (size_t i = 0; i < numbers.size(); ++i) {
    const QueryNumbers& n = numbers[i];
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "%s{\"id\":\"%s\",\"rows\":%zu,\"failed\":%s,"
        "\"compile_seconds\":%.6f,\"cold_run_seconds\":%.6f,"
        "\"warm_run_seconds\":%.6f,\"cached_execute_seconds\":%.6f,"
        "\"threads\":%d,\"concurrent_execs\":%d,"
        "\"concurrent_wall_seconds\":%.6f,\"concurrent_qps\":%.3f,"
        "\"single_thread_qps\":%.3f}",
        i ? "," : "", n.id.c_str(), n.rows, n.failed ? "true" : "false",
        n.compile_seconds, n.cold_run_seconds, n.warm_run_seconds,
        n.cached_execute_seconds, n.threads, n.concurrent_execs,
        n.concurrent_wall_seconds, n.concurrent_qps, n.single_qps);
    json += buf;
  }
  json += "],\"parameterized\":";
  {
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "{\"bindings\":%d,\"failed\":%s,"
        "\"literal_total_seconds\":%.6f,\"literal_cache_entries\":%zu,"
        "\"param_compile_seconds\":%.6f,\"param_total_seconds\":%.6f,"
        "\"param_cache_entries\":%zu,\"param_cache_hits\":%lld}",
        axis.bindings, axis.failed ? "true" : "false",
        axis.literal_total_seconds, axis.literal_cache_entries,
        axis.param_compile_seconds, axis.param_total_seconds,
        axis.param_cache_entries,
        static_cast<long long>(axis.param_cache_hits));
    json += buf;
  }
  json += "}\n";
  if (!bench::WriteBenchJson(json)) return 1;
  return all_amortized ? 0 : 2;
}
