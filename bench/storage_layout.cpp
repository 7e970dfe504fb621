// Storage-layer benchmark: what did migrating the doc relation from
// boxed vector<Value> columns onto typed/dictionary ValueColumns buy?
//
// Measures, on the scaled XMark instance:
//   - Database::Build (typed materialization + statistics collection)
//   - Table VI B-tree set build (typed-array sort comparators)
//   - a name-equality scan through the three access paths: a boxed
//     per-cell Value scan (the retired row layout), a typed plain-string
//     column (columnar), and the dictionary-encoded column (dict — one
//     uint32 compare per row)
//   - the memory axis of the shared document block: bytes of ONE block
//     vs bytes retained across every lane of a full processor
//     (DocTable view + relational database + columnar batches) — the
//     all-lanes number must track ~1×, not ~3×
//
// Environment: XQJG_XMARK_SCALE (default 1.0). Set XQJG_BENCH_JSON to
// emit BENCH_storage.json for the CI perf trajectory.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>

#include "bench/bench_common.h"
#include "src/api/paper_queries.h"
#include "src/api/processor.h"
#include "src/data/xmark.h"
#include "src/engine/database.h"
#include "src/xml/doc_block.h"
#include "src/xml/parser.h"

using namespace xqjg;

int main() {
  using Clock = std::chrono::steady_clock;
  data::XmarkOptions options;
  options.scale = bench::EnvDouble("XQJG_XMARK_SCALE", 1.0);
  xml::DocTable doc;
  if (!xml::LoadDocument(&doc, "auction.xml", data::GenerateXmark(options))
           .ok()) {
    return 1;
  }
  auto t0 = Clock::now();
  auto db = engine::Database::Build(doc);
  auto t1 = Clock::now();
  for (const auto& def : engine::TableVIIndexes()) {
    if (!db->CreateIndex(def).ok()) return 1;
  }
  auto t2 = Clock::now();
  auto secs = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
  };
  const double build_seconds = secs(t0, t1);
  const double index_seconds = secs(t1, t2);
  const long long nodes = static_cast<long long>(db->row_count());
  // Enough passes that even the dict scan runs tens of milliseconds.
  const int iters =
      static_cast<int>(std::max<long long>(4, 40000000 / (nodes + 1)));
  bench::StorageScanResult scan =
      bench::MeasureNameScan(*db, "bidder", iters);
  const double per_row = 1e9 / static_cast<double>(nodes * scan.iters);

  // Memory axis: one full processor with every relational lane forced —
  // the bytes it retains must track ONE shared block, not one copy per
  // lane. (The native stores stay lazy: no tree is ever built here.)
  api::XQueryProcessor processor;
  if (!processor
           .LoadDocument("auction.xml", data::GenerateXmark(options),
                         api::XmarkSegmentTags())
           .ok()) {
    return 1;
  }
  if (!processor.CreateRelationalIndexes().ok()) return 1;
  api::RunOptions lanes;
  lanes.mode = api::Mode::kJoinGraph;
  lanes.context_document = "auction.xml";
  if (!processor.Run("/site/people/person", lanes).ok()) return 1;
  auto snap = processor.snapshot();
  const long long shared_block =
      static_cast<long long>(snap->doc_table()->block()->ApproxBytes());
  const long long retained_all_lanes =
      static_cast<long long>(snap->RetainedStorageBytes());

  std::printf(
      "Storage layout — XMark scale %.2f (%lld nodes)\n\n"
      "Database::Build (typed + stats):  %8.3f s\n"
      "Table VI B-tree set:              %8.3f s\n\n"
      "name = 'bidder' scan (%d passes, %lld matches/pass):\n"
      "  row (boxed per-cell Values):    %8.3f s  (%6.2f ns/row)\n"
      "  columnar (typed strings):       %8.3f s  (%6.2f ns/row)\n"
      "  dict (code compare):            %8.3f s  (%6.2f ns/row)\n"
      "  speedup dict vs row:            %7.1fx\n"
      "  speedup dict vs columnar:       %7.1fx\n\n"
      "memory (shared document block):\n"
      "  one shared block:               %10lld bytes\n"
      "  retained across all lanes:      %10lld bytes  (%.2fx)\n",
      options.scale, nodes, build_seconds, index_seconds, scan.iters,
      scan.matches, scan.row_seconds, scan.row_seconds * per_row,
      scan.columnar_seconds, scan.columnar_seconds * per_row,
      scan.dict_seconds, scan.dict_seconds * per_row,
      scan.row_seconds / std::max(1e-9, scan.dict_seconds),
      scan.columnar_seconds / std::max(1e-9, scan.dict_seconds),
      shared_block, retained_all_lanes,
      static_cast<double>(retained_all_lanes) /
          std::max(1.0, static_cast<double>(shared_block)));
  char buf[1280];
  std::snprintf(
      buf, sizeof(buf),
      "{\"bench\":\"storage_layout\",\"scale\":%.2f,\"nodes\":%lld,"
      "\"build_seconds\":%.6f,\"index_seconds\":%.6f,"
      "\"scan\":{\"iters\":%d,\"matches\":%lld,"
      "\"row_seconds\":%.6f,\"columnar_seconds\":%.6f,"
      "\"dict_seconds\":%.6f},"
      "\"memory_bytes\":{\"shared_block\":%lld,"
      "\"retained_all_lanes\":%lld}}\n",
      options.scale, nodes, build_seconds, index_seconds, scan.iters,
      scan.matches, scan.row_seconds, scan.columnar_seconds,
      scan.dict_seconds, shared_block, retained_all_lanes);
  return bench::WriteBenchJson(buf) ? 0 : 1;
}
