// Scaling sweep: join graph vs native-whole execution of Q4 (raw path
// traversal, the paper's "more than 20-fold advantage" case) across XMark
// scale factors. Note an honest substrate difference: the paper's XSCAN
// pays per-page I/O over a 110 MB on-disk instance, while our native DOM
// traversal is a pure in-memory pointer walk — so native-whole stays fast
// here and the series primarily demonstrates that *both* engines scale
// linearly in document size (no superlinear blowup in the join graph
// path).
//
// Set XQJG_BENCH_JSON=<path> to additionally emit the series as JSON
// (BENCH_scaling.json in CI parlance) for the perf trajectory.
#include <cstdio>
#include <string>

#include "bench/bench_common.h"
#include "src/api/paper_queries.h"
#include "src/api/processor.h"
#include "src/data/xmark.h"

using namespace xqjg;

int main() {
  std::printf("Scaling — Q4 (//closed_auction/price/text()) across XMark "
              "scales (join graph vs native, plus the storage\n"
              "row/columnar/dict name-scan axis, ns per row)\n\n"
              "%-7s %10s %14s %14s %8s | %8s %8s %8s\n",
              "scale", "nodes", "joingraph (s)", "native (s)", "factor",
              "row ns", "col ns", "dict ns");
  std::string json = "{\"bench\":\"scaling_docsize\",\"points\":[";
  bool first = true;
  for (double scale : {0.25, 0.5, 1.0, 2.0, 4.0}) {
    api::XQueryProcessor processor;
    data::XmarkOptions options;
    options.scale = scale;
    if (!processor
             .LoadDocument("auction.xml", data::GenerateXmark(options),
                           api::XmarkSegmentTags())
             .ok()) {
      return 1;
    }
    if (!processor.CreateRelationalIndexes().ok()) return 1;
    const auto& q4 = api::PaperQueries()[3];
    api::RunOptions run;
    run.context_document = q4.document;
    run.timeout_seconds = 60;
    run.mode = api::Mode::kJoinGraph;
    auto jg = processor.Run(q4.text, run);
    run.mode = api::Mode::kNativeWhole;
    auto native = processor.Run(q4.text, run);
    if (!jg.ok() || !native.ok()) return 1;
    if (jg.value().items != native.value().items) {
      std::fprintf(stderr, "join-graph and native results differ!\n");
      return 1;
    }
    const long long nodes =
        static_cast<long long>(processor.doc_table().row_count());
    // Storage axis: the same name-equality scan through boxed per-cell
    // Values, a typed string column, and the dictionary codes.
    const int iters =
        static_cast<int>(std::max<long long>(2, 8000000 / (nodes + 1)));
    bench::StorageScanResult scan =
        bench::MeasureNameScan(*processor.database(), "bidder", iters);
    const double per_row = 1e9 / static_cast<double>(nodes * scan.iters);
    std::printf(
        "%-7.2f %10lld %14.3f %14.3f %7.1fx | %8.2f %8.2f %8.2f\n",
        scale, nodes, jg.value().seconds, native.value().seconds,
        native.value().seconds / std::max(1e-9, jg.value().seconds),
        scan.row_seconds * per_row, scan.columnar_seconds * per_row,
        scan.dict_seconds * per_row);
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"scale\":%.2f,\"nodes\":%lld,\"rows\":%zu,"
                  "\"joingraph_columnar_seconds\":%.6f,"
                  "\"native_whole_seconds\":%.6f,"
                  "\"storage_scan_ns_per_row\":{\"row\":%.3f,"
                  "\"columnar\":%.3f,\"dict\":%.3f}}",
                  first ? "" : ",", scale, nodes,
                  jg.value().result_count(), jg.value().seconds,
                  native.value().seconds,
                  scan.row_seconds * per_row,
                  scan.columnar_seconds * per_row,
                  scan.dict_seconds * per_row);
    json += buf;
    first = false;
  }
  json += "]}\n";
  return bench::WriteBenchJson(json) ? 0 : 1;
}
