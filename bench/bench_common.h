// Shared setup for the paper-reproduction benchmarks: builds the scaled
// XMark and DBLP instances once, loads all storage layouts, and creates
// the Table VI relational indexes plus the native XMLPATTERN family.
//
// Environment knobs:
//   XQJG_XMARK_SCALE  (default 1.0;  paper's 110 MB instance ~ 330 by
//                      bytes, ~ 210 by nodes)
//   XQJG_DBLP_PUBS    (default 4000; paper's DBLP ~ 1M publications)
//   XQJG_DNF_SECONDS  (default 30;   the paper's cutoff was 20 hours)
#ifndef XQJG_BENCH_BENCH_COMMON_H_
#define XQJG_BENCH_BENCH_COMMON_H_

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "src/api/paper_queries.h"
#include "src/api/processor.h"
#include "src/data/dblp.h"
#include "src/data/xmark.h"
#include "src/engine/database.h"

namespace xqjg::bench {

inline double EnvDouble(const char* name, double fallback) {
  const char* v = std::getenv(name);
  return v ? std::atof(v) : fallback;
}

/// Writes `json` to the path in XQJG_BENCH_JSON (no-op when unset — CI
/// sets it to collect the perf-trajectory artifacts). Returns false only
/// when the path was requested but could not be written.
inline bool WriteBenchJson(const std::string& json) {
  const char* path = std::getenv("XQJG_BENCH_JSON");
  if (!path) return true;
  std::FILE* f = std::fopen(path, "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return false;
  }
  std::fputs(json.c_str(), f);
  std::fclose(f);
  std::printf("\nwrote %s\n", path);
  return true;
}

/// Storage-layout microbench: one name-equality scan over the doc
/// relation through the three access paths the migration compares —
///   row       boxed per-cell Value materialization (the retired row
///             layout, reproduced via Column().GetValue())
///   columnar  a typed plain-string column (post-migration, no dict)
///   dict      the dictionary-encoded column via one code compare per row
/// Seconds are totals over `iters` full passes (pick iters so the scan
/// runs long enough to time); all three paths must count the same
/// matches.
struct StorageScanResult {
  double row_seconds = 0;
  double columnar_seconds = 0;
  double dict_seconds = 0;
  long long matches = 0;
  int iters = 0;
};

inline StorageScanResult MeasureNameScan(const engine::Database& db,
                                         const std::string& needle,
                                         int iters) {
  using Clock = std::chrono::steady_clock;
  StorageScanResult out;
  out.iters = iters;
  const int col = db.ColumnIndex("name");
  const int64_t n = db.row_count();
  const ValueColumn& dict_col = db.Column(col);
  // NULL rows carry a don't-care code 0, so every lane must consult the
  // mask (nullptr for the null-free name column — a dead branch then).
  const uint8_t* nulls = dict_col.null_mask();
  // Plain-string copy of the column: the "typed but not dict" layout.
  std::vector<std::string> plain;
  plain.reserve(static_cast<size_t>(n));
  for (int64_t pre = 0; pre < n; ++pre) {
    const auto r = static_cast<size_t>(pre);
    plain.push_back((nulls && nulls[r]) ? std::string()
                                        : dict_col.StringAt(r));
  }
  long long row_matches = 0, col_matches = 0, dict_matches = 0;
  auto t0 = Clock::now();
  for (int it = 0; it < iters; ++it) {
    for (int64_t pre = 0; pre < n; ++pre) {
      // Boxed lane: one materialized Value per cell — the retired row
      // layout's cost model, reproduced over the typed column.
      const Value v = dict_col.GetValue(static_cast<size_t>(pre));
      if (!v.is_null() && v.AsString() == needle) ++row_matches;
    }
  }
  auto t1 = Clock::now();
  for (int it = 0; it < iters; ++it) {
    if (nulls) {
      for (int64_t pre = 0; pre < n; ++pre) {
        const auto r = static_cast<size_t>(pre);
        if (!nulls[r] && plain[r] == needle) ++col_matches;
      }
    } else {
      for (int64_t pre = 0; pre < n; ++pre) {
        if (plain[static_cast<size_t>(pre)] == needle) ++col_matches;
      }
    }
  }
  auto t2 = Clock::now();
  const int64_t code = dict_col.DictCode(needle);
  const auto& codes = dict_col.dict_codes();
  for (int it = 0; it < iters; ++it) {
    if (code < 0) continue;  // absent: zero matches without touching rows
    const auto c = static_cast<uint32_t>(code);
    if (nulls) {
      for (int64_t pre = 0; pre < n; ++pre) {
        const auto r = static_cast<size_t>(pre);
        if (!nulls[r] && codes[r] == c) ++dict_matches;
      }
    } else {
      for (int64_t pre = 0; pre < n; ++pre) {
        if (codes[static_cast<size_t>(pre)] == c) ++dict_matches;
      }
    }
  }
  auto t3 = Clock::now();
  auto secs = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
  };
  out.row_seconds = secs(t0, t1);
  out.columnar_seconds = secs(t1, t2);
  out.dict_seconds = secs(t2, t3);
  if (row_matches != col_matches || row_matches != dict_matches) {
    std::fprintf(stderr, "storage scan paths disagree: %lld/%lld/%lld\n",
                 row_matches, col_matches, dict_matches);
    std::abort();
  }
  out.matches = iters > 0 ? row_matches / iters : 0;
  return out;
}

struct Workbench {
  api::XQueryProcessor processor;
  double dnf_seconds;
  int64_t xmark_nodes = 0;
  int64_t dblp_nodes = 0;

  static Workbench& Instance() {
    static Workbench bench;
    return bench;
  }

 private:
  Workbench() {
    dnf_seconds = EnvDouble("XQJG_DNF_SECONDS", 30.0);
    data::XmarkOptions xmark;
    xmark.scale = EnvDouble("XQJG_XMARK_SCALE", 1.0);
    data::DblpOptions dblp;
    dblp.publications =
        static_cast<int>(EnvDouble("XQJG_DBLP_PUBS", 4000.0));
    std::string auction = data::GenerateXmark(xmark);
    std::string bibliography = data::GenerateDblp(dblp);
    auto check = [](const Status& st, const char* what) {
      if (!st.ok()) {
        std::fprintf(stderr, "bench setup failed (%s): %s\n", what,
                     st.ToString().c_str());
        std::abort();
      }
    };
    check(processor.LoadDocument("auction.xml", auction,
                                 api::XmarkSegmentTags()),
          "auction.xml");
    check(processor.LoadDocument("dblp.xml", bibliography,
                                 api::DblpSegmentTags()),
          "dblp.xml");
    check(processor.CreateRelationalIndexes(), "Table VI indexes");
    for (auto& pattern : api::PaperPatternIndexes()) {
      processor.CreatePatternIndex(pattern);
    }
    xmark_nodes = 0;
    dblp_nodes = 0;
    const auto& doc = processor.doc_table();
    for (int64_t pre = 0; pre < doc.row_count(); ++pre) {
      if (doc.Root(pre) == 0) ++xmark_nodes;
      else ++dblp_nodes;
    }
  }
};

}  // namespace xqjg::bench

#endif  // XQJG_BENCH_BENCH_COMMON_H_
