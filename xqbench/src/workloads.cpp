#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <barrier>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <random>
#include <thread>
#include <utility>

#include "corpus.h"
#include "families.h"
#include "src/api/processor.h"
#include "src/server/client.h"
#include "src/server/server.h"
#include "trace.h"
#include "util.h"

namespace xqbench {

using xqjg::Result;
using xqjg::Status;
using xqjg::api::XQueryProcessor;

namespace {

constexpr int kSetups = 3;
/// repeat and serve: pairs of writes in each of two groups, one before
/// the reads and one after them, so that the write times sample the
/// host's speed at both ends of the run (adhoc interleaves its own).
constexpr int kGroupPairs = 4;
/// repeat: passes over the families in one round. Q2 runs in the first
/// pass only: one Q2 execution outlasts all the other passes together,
/// and they give each other family 105 samples at 25 s, not 7.
constexpr int kRepeatPasses = 15;
/// adhoc: every kWriteEvery-th operation is a write.
constexpr int kWriteEvery = 6;
/// serve: one closed-loop client. With two or three, clients and
/// server threads contend for the cores of a shared host, and the run-to-
/// run spread of qps and p90 reached 0.2-0.4 of the median.
constexpr int kServeClients = 1;
/// serve: each client round holds every planned family kServePerFamily
/// times and QP once per unit of its zipf weight (8, 4, 2, 1 over the
/// four side documents).
constexpr int kServePerFamily = 3;
constexpr int kZipfWeights[kSideDocs] = {8, 4, 2, 1};
/// serve: every family gets at least this many samples, so at least ten
/// lie beyond its p90.
constexpr int kServeSampleFloor = 100;

/// Nominal seconds one round takes on a 4-core x86 box (Release build);
/// request lists are sized from these, and stay fixed-length whatever
/// the build under test does.
constexpr double kRepeatRoundSeconds = 3.5;
constexpr double kAdhocRoundSeconds = 1.15;
constexpr double kServeRoundSeconds = 0.075;

const std::vector<std::string> kRepeatFamilies = {"Q1", "Q2", "Q3",
                                                  "Q4", "Q5", "Q6"};
const std::vector<std::string> kAdhocFamilies = {"Q1", "Q3", "Q4", "Q5",
                                                 "Q6"};
const std::vector<std::string> kServeFamilies = {"Q1", "Q3", "Q4",
                                                 "Q5", "Q6", "QP"};

int Rounds(double seconds, double round_seconds, bool traced, int floor) {
  // A traced run issues every request twice; keep its length comparable.
  const double budget = traced ? seconds / 2 : seconds;
  return std::max(floor, static_cast<int>(std::lround(budget / round_seconds)));
}

double PeakRssMiB() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Tally {
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t wrong = 0;

  void Add(const Tally& other) {
    attempted += other.attempted;
    failed += other.failed;
    wrong += other.wrong;
  }
};

/// Compares `items` with the oracle's answer; counts the outcome.
void Check(const Oracle& oracle, const Request& request,
           const Result<std::vector<std::string>>& items, Tally* tally) {
  ++tally->attempted;
  if (!items.ok()) {
    ++tally->failed;
    std::fprintf(stderr, "error: %s: %s\n", request.text.c_str(),
                 items.status().ToString().c_str());
    return;
  }
  const std::vector<std::string>* expected = oracle.Find(request);
  if (!expected || *expected != items.value()) {
    ++tally->failed;
    ++tally->wrong;
    std::fprintf(stderr, "wrong answer (%zu items, oracle %zu): %s on %s\n",
                 items.value().size(), expected ? expected->size() : 0,
                 request.text.c_str(), request.document.c_str());
  }
}

/// Untraced read through the public API: Prepare (through the plan
/// cache), then ExecuteAll on the serial columnar lane.
Result<std::vector<std::string>> ApiRead(const XQueryProcessor& processor,
                                         const Request& request) {
  xqjg::api::PrepareOptions prepare;
  prepare.mode = xqjg::api::Mode::kJoinGraph;
  prepare.context_document = request.document;
  XQJG_ASSIGN_OR_RETURN(auto prepared,
                        processor.Prepare(request.text, prepare));
  xqjg::api::ExecuteOptions execute;
  execute.parameters = request.params;
  XQJG_ASSIGN_OR_RETURN(
      xqjg::api::RunResult run,
      processor.ExecuteAll(prepared, SerialColumnar(execute)));
  return std::move(run.items);
}

/// Per-family count metrics gathered by the traced pipeline.
struct FamilyCounts {
  std::vector<double> ops_after_isolate;
  std::vector<double> rules_applied;
  std::vector<double> tuples_per_row;
  int64_t peak_mem_bytes = 0;
  bool fallback = false;
};

/// One workload run: its inputs, processor, samples and counters.
class Run {
 public:
  explicit Run(const RunConfig& config)
      : config_(config),
        rng_(config.seed * 0x9E3779B97F4A7C15ULL + 1),
        latencies_(Families().size()),
        untraced_(Families().size()),
        counts_(Families().size()) {}

  Status SetUp(bool with_server);
  Status Repeat();
  Status Adhoc();
  Status Serve();
  RunOutcome Finish();

 private:
  /// Traced compile of `request`, recording its counts.
  Result<TracedPlan> Compile(const Request& request);
  /// Traced execution of `plan`, recording its counts.
  Result<std::vector<std::string>> Execute(const TracedPlan& plan,
                                           int family);
  /// One write, recorded in write_ms_ unless it is the warm-up.
  Status TimedWrite(const CorpusDoc& doc, bool record);
  /// kGroupPairs pairs of writes: each replaces a side document with a
  /// new version and then with its original, so the corpus the reads see
  /// stays the one the oracle answered on. The group's first write is a
  /// warm-up and is not recorded.
  Status WriteGroup(int group);
  void AddLatency(int family, double ms) {
    (config_.trace ? untraced_ : latencies_)[static_cast<size_t>(family)]
        .push_back(ms);
  }

  /// Reports on stderr how long the phase that just ended took.
  void EndPhase(const char* name) {
    const double now = Now();
    std::fprintf(stderr, "[xqbench] %-8s %7.2f s\n", name, now - phase_start_);
    phase_start_ = now;
  }

  void EndToEndMetrics(RunOutcome* out) const;
  void LayerMetrics(RunOutcome* out) const;

  const RunConfig& config_;
  double phase_start_ = Now();
  std::mt19937_64 rng_;
  Corpus corpus_;
  std::unique_ptr<XQueryProcessor> processor_;
  /// Declared after processor_: destroyed (stopped) first.
  std::unique_ptr<xqjg::server::QueryServer> server_;
  Oracle oracle_;
  Tally tally_;

  std::vector<SetupTimes> setups_;
  std::vector<double> parse_only_;
  double storage_per_xml_byte_ = 0.0;
  /// Untraced request latencies (ms) per family: the timed phase of an
  /// untraced run, and the API half of every request of a traced run.
  std::vector<std::vector<double>> latencies_;
  std::vector<std::vector<double>> untraced_;
  std::vector<double> write_ms_;
  int64_t timed_ops_ = 0;
  double timed_seconds_ = 0.0;

  // Traced run only.
  Tracer tracer_;
  std::vector<FamilyCounts> counts_;
  std::vector<std::string> executed_families_;
  int64_t cache_lookups_ = 0;
  int64_t cache_hits_ = 0;
  int64_t shed_ = 0;
  double server_exec_seconds_ = 0.0;
  double server_round_trip_seconds_ = 0.0;
};

Status Run::SetUp(bool with_server) {
  corpus_ = GenerateCorpus();
  for (int i = 0; i < kSetups; ++i) {
    server_.reset();
    processor_.reset();
    SetupTimes times;
    XQJG_ASSIGN_OR_RETURN(processor_, xqbench::SetUp(corpus_, &times));
    if (with_server) {
      const double start = Now();
      xqjg::server::ServerConfig config;
      SerialColumnar(config.session);
      server_ = std::make_unique<xqjg::server::QueryServer>(processor_.get(),
                                                            config);
      XQJG_RETURN_NOT_OK(server_->Start());
      times.total += Now() - start;
    }
    setups_.push_back(times);
    XQJG_ASSIGN_OR_RETURN(double parse_seconds, ParseOnly(corpus_));
    parse_only_.push_back(parse_seconds);
  }
  // Measured before any write replaces a side document.
  storage_per_xml_byte_ =
      static_cast<double>(processor_->snapshot()->RetainedStorageBytes()) /
      static_cast<double>(corpus_.xml_bytes());
  EndPhase("set-up");
  return Status::OK();
}

Result<TracedPlan> Run::Compile(const Request& request) {
  XQJG_ASSIGN_OR_RETURN(TracedPlan plan,
                        TracedPrepare(*processor_, request, tracer_));
  FamilyCounts& c = counts_[static_cast<size_t>(request.family)];
  c.ops_after_isolate.push_back(static_cast<double>(plan.ops_after_isolate));
  c.rules_applied.push_back(static_cast<double>(plan.rules_applied));
  c.fallback = c.fallback || !plan.has_plan;
  return plan;
}

Result<std::vector<std::string>> Run::Execute(const TracedPlan& plan,
                                              int family) {
  xqjg::engine::ExecStats stats;
  auto items = TracedExecute(plan, tracer_, &stats);
  FamilyCounts& c = counts_[static_cast<size_t>(family)];
  c.tuples_per_row.push_back(static_cast<double>(stats.tuples_materialized) /
                             static_cast<double>(std::max<int64_t>(
                                 stats.rows_out, 1)));
  c.peak_mem_bytes = std::max(c.peak_mem_bytes, stats.peak_memory_bytes);
  return items;
}

Status Run::TimedWrite(const CorpusDoc& doc, bool record) {
  XQJG_ASSIGN_OR_RETURN(const double seconds, Write(*processor_, doc));
  if (record) write_ms_.push_back(seconds * 1e3);
  return Status::OK();
}

Status Run::WriteGroup(int group) {
  for (int pair = 0; pair < kGroupPairs; ++pair) {
    const int side = pair % kSideDocs;
    const auto version = static_cast<uint64_t>(group * kGroupPairs + pair + 1);
    XQJG_RETURN_NOT_OK(TimedWrite(SideDocument(config_.seed, side, version),
                                  /*record=*/pair > 0));
    XQJG_RETURN_NOT_OK(
        TimedWrite(SideDocument(config_.seed, side, 0), /*record=*/true));
  }
  return Status::OK();
}

Status Run::Repeat() {
  XQJG_RETURN_NOT_OK(SetUp(/*with_server=*/false));
  XQJG_RETURN_NOT_OK(WriteGroup(0));
  EndPhase("writes");
  std::vector<Request> requests;
  for (const std::string& id : kRepeatFamilies) {
    requests.push_back(BaseRequest(FamilyIndex(id)));
    XQJG_RETURN_NOT_OK(oracle_.Ensure(*processor_, requests.back()));
  }
  EndPhase("oracle");
  const auto cache_before = processor_->plan_cache_stats();
  // Prepare each family once; the first execution of each is discarded.
  std::vector<TracedPlan> traced(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    Check(oracle_, requests[i], ApiRead(*processor_, requests[i]), &tally_);
    if (config_.trace) {
      tracer_.BeginRequest("prepare", Families()[requests[i].family].id);
      auto plan = Compile(requests[i]);
      tracer_.EndRequest();
      XQJG_RETURN_NOT_OK(plan.status());
      traced[i] = std::move(plan).value();
    }
  }
  const int rounds = Rounds(config_.seconds, kRepeatRoundSeconds,
                            config_.trace, /*floor=*/3);
  // Round-robin in a fixed order, so every family always has the same
  // neighbours (the first pass's Q3 runs right after Q2's large
  // intermediates).
  for (int round = 0; round < rounds * kRepeatPasses; ++round) {
    for (size_t i = 0; i < requests.size(); ++i) {
      const Request& request = requests[i];
      if (round % kRepeatPasses > 0 && Families()[request.family].id == "Q2") {
        continue;
      }
      const double start = Now();
      auto items = ApiRead(*processor_, request);
      const double elapsed = Now() - start;
      Check(oracle_, request, items, &tally_);
      AddLatency(request.family, elapsed * 1e3);
      timed_seconds_ += elapsed;
      ++timed_ops_;
      if (config_.trace) {
        tracer_.BeginRequest("request", Families()[request.family].id);
        auto traced_items = Execute(traced[i], request.family);
        tracer_.EndRequest();
        Check(oracle_, request, traced_items, &tally_);
      }
    }
  }
  const auto cache_after = processor_->plan_cache_stats();
  cache_hits_ = cache_after.hits - cache_before.hits;
  cache_lookups_ = cache_hits_ + cache_after.misses - cache_before.misses;
  executed_families_ = kRepeatFamilies;
  EndPhase("reads");
  XQJG_RETURN_NOT_OK(WriteGroup(1));
  EndPhase("writes");
  return Status::OK();
}

Status Run::Adhoc() {
  XQJG_RETURN_NOT_OK(SetUp(/*with_server=*/false));
  int rounds = Rounds(config_.seconds, kAdhocRoundSeconds, config_.trace,
                      /*floor=*/3);
  // One extra leading round warms every family and is discarded.
  std::vector<std::vector<Request>> variants;
  for (const std::string& id : kAdhocFamilies) {
    variants.push_back(LiteralVariants(FamilyIndex(id), rounds + 1, rng_));
    rounds = std::min(rounds, static_cast<int>(variants.back().size()) - 1);
  }
  for (const auto& family : variants) {
    for (const Request& request : family) {
      XQJG_RETURN_NOT_OK(oracle_.Ensure(*processor_, request));
    }
  }
  EndPhase("oracle");
  // Q2 is not requested (one execution outlasts every compile), but its
  // compilation is still traced.
  if (config_.trace) {
    tracer_.BeginRequest("prepare", "Q2");
    auto plan = Compile(BaseRequest(FamilyIndex("Q2")));
    tracer_.EndRequest();
    XQJG_RETURN_NOT_OK(plan.status());
  }
  const auto cache_before = processor_->plan_cache_stats();
  std::vector<size_t> order(variants.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  int ops = 0;
  uint64_t version = 0;
  for (int round = 0; round <= rounds; ++round) {
    const bool timed = round > 0;
    std::shuffle(order.begin(), order.end(), rng_);
    for (size_t f : order) {
      const Request& request = variants[f][static_cast<size_t>(round)];
      const double start = Now();
      auto items = ApiRead(*processor_, request);
      const double elapsed = Now() - start;
      Check(oracle_, request, items, &tally_);
      if (config_.trace) {
        tracer_.BeginRequest("request", Families()[request.family].id);
        auto plan = Compile(request);
        Result<std::vector<std::string>> traced_items =
            plan.ok() ? Execute(plan.value(), request.family)
                      : Result<std::vector<std::string>>(plan.status());
        tracer_.EndRequest();
        Check(oracle_, request, traced_items, &tally_);
      }
      if (!timed) continue;
      AddLatency(request.family, elapsed * 1e3);
      timed_seconds_ += elapsed;
      ++timed_ops_;
      if (++ops % (kWriteEvery - 1) != 0) continue;
      // Every kWriteEvery-th operation: reload one side document from a
      // fresh seed at the same scale, then rebuild the indexes.
      ++version;
      const Status status = TimedWrite(
          SideDocument(config_.seed, static_cast<int>(version % kSideDocs),
                       version),
          /*record=*/true);
      ++tally_.attempted;
      if (!status.ok()) {
        ++tally_.failed;
        std::fprintf(stderr, "write failed: %s\n", status.ToString().c_str());
        continue;
      }
      timed_seconds_ += write_ms_.back() / 1e3;
      ++timed_ops_;
    }
    if (!timed) {
      // The warm-up round ends with the warm-up write.
      ++version;
      XQJG_RETURN_NOT_OK(TimedWrite(
          SideDocument(config_.seed, static_cast<int>(version % kSideDocs),
                       version),
          /*record=*/false));
    }
  }
  const auto cache_after = processor_->plan_cache_stats();
  cache_hits_ = cache_after.hits - cache_before.hits;
  cache_lookups_ = cache_hits_ + cache_after.misses - cache_before.misses;
  executed_families_ = kAdhocFamilies;
  EndPhase("reads");
  return Status::OK();
}

/// What one serve client measured.
struct ClientRun {
  Status status;
  Tally tally;
  std::vector<std::pair<int, double>> latencies;  ///< (family, ms)
  std::vector<double> completed;                  ///< completion times
  double done = 0.0;
  Tracer tracer;
  std::vector<std::pair<int, double>> untraced;   ///< traced run only
  double exec_seconds = 0.0;
  double round_trip_seconds = 0.0;
};

/// One closed-loop client: prepares every statement, warms each once,
/// waits at the barrier, then runs its request list.
void ServeClient(int port, const std::vector<Request>& list,
                 const Oracle& oracle, bool trace,
                 std::barrier<>& start_line, ClientRun* out) {
  auto fail = [&](const Status& status) {
    out->status = status;
    start_line.arrive_and_drop();
  };
  auto connected = xqjg::server::Client::Connect("127.0.0.1", port);
  if (!connected.ok()) return fail(connected.status());
  xqjg::server::Client& client = *connected.value();
  // One statement per (family, document); QP is prepared per side doc.
  std::map<std::pair<int, std::string>, uint32_t> statements;
  for (const Request& request : list) {
    const auto key = std::make_pair(request.family, request.document);
    if (statements.count(key)) continue;
    auto prepared = client.Prepare(request.text, /*joingraph=*/1,
                                   request.document);
    if (!prepared.ok()) return fail(prepared.status());
    statements[key] = prepared.value().statement_id;
    // The first execution of each statement is discarded.
    auto warm = client.Execute(statements[key], request.params);
    if (!warm.ok()) return fail(warm.status());
    auto drained = client.FetchAll(warm.value().cursor_id);
    if (!drained.ok()) return fail(drained.status());
  }
  start_line.arrive_and_wait();
  auto read = [&](const Request& request, uint32_t statement,
                  Tracer* tracer) -> Result<std::vector<std::string>> {
    const int rt = tracer ? tracer->Open("server.execute_rt") : -1;
    const double start = Now();
    auto executed = client.Execute(statement, request.params);
    const double executed_at = Now();
    if (tracer && executed.ok()) {
      const double server_side = executed.value().execute_seconds;
      tracer->AddMeasured("server.execute", executed_at - server_side,
                          executed_at);
      out->exec_seconds += server_side;
    }
    if (tracer) tracer->Close(rt);
    if (!executed.ok()) return executed.status();
    Result<std::vector<std::string>> items = std::vector<std::string>{};
    if (tracer) {
      ScopedSpan span(*tracer, "server.fetch_rt");
      items = client.FetchAll(executed.value().cursor_id);
    } else {
      items = client.FetchAll(executed.value().cursor_id);
    }
    if (tracer) out->round_trip_seconds += Now() - start;
    return items;
  };
  for (const Request& request : list) {
    const uint32_t statement =
        statements[std::make_pair(request.family, request.document)];
    const double start = Now();
    auto items = read(request, statement, nullptr);
    const double end = Now();
    Check(oracle, request, items, &out->tally);
    if (items.ok()) {
      (trace ? out->untraced : out->latencies)
          .emplace_back(request.family, (end - start) * 1e3);
      out->completed.push_back(end);
    }
    if (trace) {
      out->tracer.BeginRequest("request", Families()[request.family].id);
      auto traced_items = read(request, statement, &out->tracer);
      out->tracer.EndRequest();
      Check(oracle, request, traced_items, &out->tally);
    }
  }
  out->done = Now();
}

Status Run::Serve() {
  XQJG_RETURN_NOT_OK(SetUp(/*with_server=*/true));
  // Each round gives every planned family kServeClients *
  // kServePerFamily samples; untraced runs reach the sample floor.
  const int per_round = kServeClients * kServePerFamily;
  const int rounds = Rounds(
      config_.seconds, kServeRoundSeconds, config_.trace,
      config_.trace ? 4 : (kServeSampleFloor + per_round - 1) / per_round);
  // Fixed multiset per round, shuffled per client and round.
  std::vector<Request> round_template;
  for (const std::string& id : kServeFamilies) {
    if (id == "QP") continue;
    for (int k = 0; k < kServePerFamily; ++k) {
      round_template.push_back(BaseRequest(FamilyIndex(id)));
    }
  }
  for (int side = 0; side < kSideDocs; ++side) {
    for (int k = 0; k < kZipfWeights[side]; ++k) {
      round_template.push_back(MinPriceRequest(side, 0));
    }
  }
  std::uniform_int_distribution<int> minprice(1, 20);
  std::vector<std::vector<Request>> lists(kServeClients);
  for (auto& list : lists) {
    for (int round = 0; round < rounds; ++round) {
      std::vector<Request> batch = round_template;
      std::shuffle(batch.begin(), batch.end(), rng_);
      for (Request& request : batch) {
        if (!request.params.empty()) {
          request.params["minprice"] = xqjg::Value::Double(5 * minprice(rng_));
        }
        list.push_back(std::move(request));
      }
    }
  }
  // Writes go to the processor directly. Sent over the wire ahead of the
  // reads, they raised the run's peak RSS from 405 to 580 MiB.
  XQJG_RETURN_NOT_OK(WriteGroup(0));
  EndPhase("writes");
  for (const auto& list : lists) {
    for (const Request& request : list) {
      XQJG_RETURN_NOT_OK(oracle_.Ensure(*processor_, request));
    }
  }
  EndPhase("oracle");
  if (config_.trace) {
    for (const std::string& id : kServeFamilies) {
      tracer_.BeginRequest("prepare", id);
      auto plan = Compile(BaseRequest(FamilyIndex(id)));
      tracer_.EndRequest();
      XQJG_RETURN_NOT_OK(plan.status());
    }
  }
  const auto cache_before = processor_->plan_cache_stats();
  std::vector<ClientRun> runs(kServeClients);
  std::barrier<> start_line(kServeClients + 1);
  std::vector<std::thread> threads;
  for (int c = 0; c < kServeClients; ++c) {
    threads.emplace_back(ServeClient, server_->port(), std::cref(lists[c]),
                         std::cref(oracle_), config_.trace,
                         std::ref(start_line), &runs[c]);
  }
  start_line.arrive_and_wait();
  const double start = Now();
  for (std::thread& t : threads) t.join();
  double window_end = runs[0].done;
  for (const ClientRun& run : runs) {
    XQJG_RETURN_NOT_OK(run.status);
    window_end = std::min(window_end, run.done);
  }
  for (ClientRun& run : runs) {
    tally_.Add(run.tally);
    for (const auto& [family, ms] : run.latencies) AddLatency(family, ms);
    for (const auto& [family, ms] : run.untraced) AddLatency(family, ms);
    for (double t : run.completed) timed_ops_ += t <= window_end ? 1 : 0;
    server_exec_seconds_ += run.exec_seconds;
    server_round_trip_seconds_ += run.round_trip_seconds;
    tracer_.Append(std::move(run.tracer));
  }
  timed_seconds_ = window_end - start;
  const auto cache_after = processor_->plan_cache_stats();
  cache_hits_ = cache_after.hits - cache_before.hits;
  cache_lookups_ = cache_hits_ + cache_after.misses - cache_before.misses;
  const auto stats = server_->stats();
  shed_ = stats.admission.shed[0] + stats.admission.shed[1];
  executed_families_ = kServeFamilies;
  EndPhase("reads");
  XQJG_RETURN_NOT_OK(WriteGroup(1));
  EndPhase("writes");
  return Status::OK();
}

void Run::EndToEndMetrics(RunOutcome* out) const {
  for (size_t f = 0; f < latencies_.size(); ++f) {
    if (latencies_[f].empty()) continue;
    std::printf("%-4s n=%-5zu p50 %10.3f ms  p90 %10.3f ms\n",
                Families()[f].id.c_str(), latencies_[f].size(),
                Median(latencies_[f]), Quantile(latencies_[f], 0.9));
  }
  std::vector<double> setup_s;
  for (const SetupTimes& t : setups_) setup_s.push_back(t.total);
  std::fprintf(stderr, "[xqbench] set-ups (s):");
  for (double s : setup_s) std::fprintf(stderr, " %.3f", s);
  std::fprintf(stderr, "\n[xqbench] writes (ms):");
  for (double ms : write_ms_) std::fprintf(stderr, " %.0f", ms);
  std::fprintf(stderr, "\n");
  std::vector<double> p50;
  std::vector<double> p90;
  for (const auto& samples : latencies_) {
    if (samples.empty()) continue;
    p50.push_back(Median(samples));
    p90.push_back(Quantile(samples, 0.9));
  }
  out->metrics.push_back({"setup_s", Median(setup_s), "s"});
  out->metrics.push_back({"peak_rss_mb", PeakRssMiB(), "MiB"});
  out->metrics.push_back(
      {"qps", timed_seconds_ > 0 ? timed_ops_ / timed_seconds_ : 0.0, "1/s"});
  out->metrics.push_back({"lat_p50_ms", Geomean(p50), "ms"});
  out->metrics.push_back({"lat_p90_ms", Geomean(p90), "ms"});
  out->metrics.push_back({"write_ms", Median(write_ms_), "ms"});
}

void Run::LayerMetrics(RunOutcome* out) const {
  const auto requests = AggregateRequests(tracer_.spans());
  const auto& families = Families();
  auto family_of = [&](const std::string& id) {
    return static_cast<size_t>(FamilyIndex(id));
  };
  // Per family and layer: self times (ms) of the requests that made the
  // call, and the summed layer time of each "request" root.
  std::vector<std::map<std::string, std::vector<double>>> self(
      families.size());
  std::vector<std::vector<double>> traced_total(families.size());
  std::vector<std::vector<double>> traced_layers(families.size());
  for (const RequestTimes& r : requests) {
    const int f = FamilyIndex(r.family);
    if (f < 0) continue;
    for (const auto& [layer, seconds] : r.self) {
      self[static_cast<size_t>(f)][layer].push_back(seconds * 1e3);
    }
    if (r.root == "request") {
      traced_total[static_cast<size_t>(f)].push_back(r.total * 1e3);
      traced_layers[static_cast<size_t>(f)].push_back(r.layers * 1e3);
    }
  }
  static const std::vector<std::pair<std::string, std::string>> kTimed = {
      {"xquery.parse_ms", "xquery.parse"},
      {"xquery.normalize_ms", "xquery.normalize"},
      {"compiler.compile_ms", "compiler.compile"},
      {"opt.isolate_ms", "opt.isolate"},
      {"opt.extract_ms", "opt.extract"},
      {"sql.emit_ms", "sql.emit"},
      {"engine.plan_ms", "engine.plan"},
      {"engine.open_ms", "engine.open"},
      {"engine.drain_ms", "engine.drain"},
      {"xml.serialize_ms", "xml.serialize"},
      {"server.execute_self_ms", "server.execute_rt"},
      {"server.fetch_rt_ms", "server.fetch_rt"},
  };
  std::vector<double> traced_p50;
  std::vector<double> untraced_p50;
  for (size_t f = 0; f < families.size(); ++f) {
    const std::string& id = families[f].id;
    for (const auto& [metric, span] : kTimed) {
      if (id == "Q2" && metric.rfind("server.", 0) == 0) continue;
      auto it = self[f].find(span);
      const double value =
          it == self[f].end() ? 0.0 : Median(it->second);
      out->metrics.push_back({metric + "." + id, value, "ms"});
    }
    const double residual =
        untraced_[f].empty() || traced_layers[f].empty()
            ? 0.0
            : Median(untraced_[f]) - Median(traced_layers[f]);
    out->metrics.push_back({"api.residual_ms." + id, residual, "ms"});
    const FamilyCounts& c = counts_[f];
    out->metrics.push_back({"opt.ops_after_isolate." + id,
                            Median(c.ops_after_isolate), "count"});
    out->metrics.push_back(
        {"opt.rules_applied." + id, Median(c.rules_applied), "count"});
    out->metrics.push_back(
        {"engine.tuples_per_row." + id, Median(c.tuples_per_row), "ratio"});
    out->metrics.push_back({"engine.peak_mem_bytes." + id,
                            static_cast<double>(c.peak_mem_bytes), "bytes"});
    if (!untraced_[f].empty() && !traced_total[f].empty()) {
      traced_p50.push_back(Median(traced_total[f]));
      untraced_p50.push_back(Median(untraced_[f]));
    }
  }
  std::vector<double> parse_ms;
  std::vector<double> load_ms;
  std::vector<double> index_ms;
  for (size_t i = 0; i < setups_.size(); ++i) {
    parse_ms.push_back(parse_only_[i] * 1e3);
    load_ms.push_back(setups_[i].load * 1e3);
    index_ms.push_back(setups_[i].index_build * 1e3);
  }
  out->metrics.push_back({"xml.parse_ms", Median(parse_ms), "ms"});
  out->metrics.push_back({"api.load_ms", Median(load_ms), "ms"});
  out->metrics.push_back({"engine.index_build_ms", Median(index_ms), "ms"});
  int fallback = 0;
  for (const std::string& id : executed_families_) {
    fallback += counts_[family_of(id)].fallback ? 1 : 0;
  }
  out->metrics.push_back(
      {"engine.fallback_families", static_cast<double>(fallback), "count"});
  out->metrics.push_back(
      {"api.plan_cache_hit_ratio",
       cache_lookups_ > 0 ? static_cast<double>(cache_hits_) / cache_lookups_
                          : 0.0,
       "ratio"});
  out->metrics.push_back({"api.plan_cache_lookups",
                          static_cast<double>(cache_lookups_), "count"});
  out->metrics.push_back(
      {"storage.bytes_per_xml_byte", storage_per_xml_byte_, "ratio"});
  out->metrics.push_back(
      {"server.exec_share",
       server_round_trip_seconds_ > 0
           ? server_exec_seconds_ / server_round_trip_seconds_
           : 0.0,
       "ratio"});
  out->metrics.push_back(
      {"server.shed", static_cast<double>(shed_), "count"});
  const double untraced = Geomean(untraced_p50);
  out->metrics.push_back(
      {"trace.overhead_pct",
       untraced > 0 ? (Geomean(traced_p50) / untraced - 1.0) * 100.0 : 0.0,
       "%"});
}

RunOutcome Run::Finish() {
  RunOutcome out;
  out.attempted = tally_.attempted;
  out.failed = tally_.failed;
  out.wrong = tally_.wrong;
  if (config_.trace) {
    LayerMetrics(&out);
    if (!config_.trace_out.empty() && !tracer_.WriteJson(config_.trace_out)) {
      std::fprintf(stderr, "cannot write spans to %s\n",
                   config_.trace_out.c_str());
    }
  } else {
    EndToEndMetrics(&out);
  }
  return out;
}

}  // namespace

Result<RunOutcome> RunBenchmark(const RunConfig& config) {
  Run run(config);
  if (config.workload == "repeat") {
    XQJG_RETURN_NOT_OK(run.Repeat());
  } else if (config.workload == "adhoc") {
    XQJG_RETURN_NOT_OK(run.Adhoc());
  } else if (config.workload == "serve") {
    XQJG_RETURN_NOT_OK(run.Serve());
  } else {
    return Status::InvalidArgument("unknown workload " + config.workload);
  }
  return run.Finish();
}

}  // namespace xqbench
