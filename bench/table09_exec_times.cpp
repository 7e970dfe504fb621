// Reproduces paper Table IX: observed result sizes and wall-clock
// execution times for Q1–Q6 under the four execution modes
//   DB2+Pathfinder stacked | join graph || pureXML whole | segmented
// (here: stacked plan on the columnar algebra executor | isolated join
// graph on the cost-based B-tree engine || native engine whole |
// segmented).
//
// Extended with a threads axis: both relational modes also run with 2 and
// 8 morsel workers. Set XQJG_BENCH_JSON=<path> to additionally emit the
// numbers as JSON — CI stores that file as the perf-trajectory artifact
// (BENCH_table09.json).
//
// Absolute numbers differ from the paper's testbed; the comparison shape
// (who wins, rough factors, DNFs) is the reproduction target — see
// EXPERIMENTS.md.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_common.h"

using namespace xqjg;
using bench::Workbench;

namespace {

struct Cell {
  double seconds = 0;
  size_t rows = 0;
  bool dnf = false;
  bool na = false;
};

Cell RunMode(api::XQueryProcessor* processor, const api::PaperQuery& q,
             api::Mode mode, double dnf_seconds, int threads = 1) {
  // Q2 binds several independent for-clauses over doc(); per-fragment
  // evaluation cannot express the cross-fragment joins — the paper's
  // segmented pureXML run of Q2 also did not finish.
  if (mode == api::Mode::kNativeSegmented && q.id == "Q2") {
    Cell cell;
    cell.dnf = true;
    return cell;
  }
  api::RunOptions options;
  options.mode = mode;
  options.context_document = q.document;
  options.timeout_seconds = dnf_seconds;
  options.threads = threads;
  Cell cell;
  auto result = processor->Run(q.text, options);
  if (!result.ok()) {
    if (result.status().code() == StatusCode::kTimeout) {
      cell.dnf = true;
    } else {
      std::fprintf(stderr, "%s %s: %s\n", q.id.c_str(),
                   api::ModeToString(mode),
                   result.status().ToString().c_str());
      cell.na = true;
    }
    return cell;
  }
  cell.seconds = result.value().seconds;
  cell.rows = result.value().result_count();
  return cell;
}

std::string Fmt(const Cell& cell) {
  if (cell.dnf) return "DNF";
  if (cell.na) return "n/a";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", cell.seconds);
  return buf;
}

std::string Speedup(const Cell& base, const Cell& fast) {
  if (base.dnf || base.na || fast.dnf || fast.na || fast.seconds <= 0) {
    return "-";
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1fx", base.seconds / fast.seconds);
  return buf;
}

void JsonCell(std::string* out, const char* name, const Cell& cell) {
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "\"%s\":{\"seconds\":%.6f,\"rows\":%zu,\"dnf\":%s,"
                "\"na\":%s}",
                name, cell.seconds, cell.rows, cell.dnf ? "true" : "false",
                cell.na ? "true" : "false");
  *out += buf;
}

}  // namespace

int main() {
  Workbench& wb = Workbench::Instance();
  std::printf(
      "Table IX — observed result sizes and wall clock execution times\n"
      "(XMark nodes: %lld, DBLP nodes: %lld; DNF budget %.0fs; paper used\n"
      " 4.7M / 31.8M nodes and a 20h budget — shapes, not absolutes)\n\n",
      static_cast<long long>(wb.xmark_nodes),
      static_cast<long long>(wb.dblp_nodes), wb.dnf_seconds);
  std::printf("%-5s %9s | %9s %9s %6s | %9s %9s\n", "Query", "# nodes",
              "stacked", "joingraph", "gain", "whole", "segmented");
  std::printf("%.*s\n", 70,
              "--------------------------------------------------------------"
              "--------");
  std::string json =
      "{\"bench\":\"table09\",\"xmark_nodes\":" +
      std::to_string(wb.xmark_nodes) +
      ",\"dblp_nodes\":" + std::to_string(wb.dblp_nodes) +
      ",\"dnf_seconds\":" + std::to_string(wb.dnf_seconds) + ",\"queries\":[";
  bool first = true;
  for (const auto& q : api::PaperQueries()) {
    Cell stacked =
        RunMode(&wb.processor, q, api::Mode::kStacked, wb.dnf_seconds);
    Cell joingraph =
        RunMode(&wb.processor, q, api::Mode::kJoinGraph, wb.dnf_seconds);
    // Morsel-parallel runs (threads axis; the threads=1 cells above stay
    // the serial baseline). On a single-core container the worker pool
    // degrades to time-slicing — the axis is still recorded so multi-core
    // runs show the scaling.
    Cell stacked_t2 =
        RunMode(&wb.processor, q, api::Mode::kStacked, wb.dnf_seconds, 2);
    Cell stacked_t8 =
        RunMode(&wb.processor, q, api::Mode::kStacked, wb.dnf_seconds, 8);
    Cell joingraph_t2 =
        RunMode(&wb.processor, q, api::Mode::kJoinGraph, wb.dnf_seconds, 2);
    Cell joingraph_t8 =
        RunMode(&wb.processor, q, api::Mode::kJoinGraph, wb.dnf_seconds, 8);
    Cell whole =
        RunMode(&wb.processor, q, api::Mode::kNativeWhole, wb.dnf_seconds);
    Cell segmented =
        RunMode(&wb.processor, q, api::Mode::kNativeSegmented, wb.dnf_seconds);
    size_t rows = joingraph.rows ? joingraph.rows : stacked.rows;
    std::printf("%-5s %9zu | %9s %9s %6s | %9s %9s\n", q.id.c_str(), rows,
                Fmt(stacked).c_str(), Fmt(joingraph).c_str(),
                Speedup(stacked, joingraph).c_str(), Fmt(whole).c_str(),
                Fmt(segmented).c_str());
    std::printf(
        "%-5s %9s |   threads axis — stacked t2 %s t8 %s (%s) | "
        "jg t2 %s t8 %s (%s)\n",
        "", "", Fmt(stacked_t2).c_str(), Fmt(stacked_t8).c_str(),
        Speedup(stacked, stacked_t8).c_str(), Fmt(joingraph_t2).c_str(),
        Fmt(joingraph_t8).c_str(), Speedup(joingraph, joingraph_t8).c_str());
    if (!first) json += ",";
    first = false;
    // Cell names keep their historical "_columnar" suffix so the JSON
    // lines up with bench/history/ (the row cells were retired).
    json += "{\"id\":\"" + q.id + "\",\"rows\":" + std::to_string(rows) + ",";
    JsonCell(&json, "stacked_columnar", stacked);
    json += ",";
    JsonCell(&json, "joingraph_columnar", joingraph);
    json += ",";
    JsonCell(&json, "stacked_columnar_t2", stacked_t2);
    json += ",";
    JsonCell(&json, "stacked_columnar_t8", stacked_t8);
    json += ",";
    JsonCell(&json, "joingraph_columnar_t2", joingraph_t2);
    json += ",";
    JsonCell(&json, "joingraph_columnar_t8", joingraph_t8);
    json += ",";
    JsonCell(&json, "native_whole", whole);
    json += ",";
    JsonCell(&json, "native_segmented", segmented);
    json += "}";
  }
  json += "]}\n";
  return bench::WriteBenchJson(json) ? 0 : 1;
}
