#include "src/engine/database.h"

#include <algorithm>
#include <chrono>

#include "src/common/str.h"
#include "src/xml/doc_block.h"

namespace xqjg::engine {

const std::vector<std::string>& EngineDocColumns() {
  static const std::vector<std::string> kCols = {
      "pre", "size", "level", "kind", "name", "value",
      "data", "parent", "root", "pss"};
  return kCols;
}

std::string IndexDef::ToString() const {
  std::string out = name + " (" + Join(key_columns, ", ") + ")";
  if (!include_columns.empty()) {
    out += " INCLUDE (" + Join(include_columns, ", ") + ")";
  }
  if (clustered) out += " CLUSTERED";
  return out;
}

double ColumnStats::EqSelectivity(const Value& v) const {
  if (row_count == 0) return 0.0;
  if (!frequent.empty()) {
    auto it = frequent.find(v.ToString());
    if (it == frequent.end()) return 0.5 / static_cast<double>(row_count);
    return static_cast<double>(it->second) / static_cast<double>(row_count);
  }
  if (ndv <= 0) return 0.0;
  return 1.0 / static_cast<double>(ndv);
}

double ColumnStats::RangeSelectivity(const Value& lo, const Value& hi) const {
  if (row_count == 0 || bucket_bounds.empty()) return 0.1;
  const double buckets = static_cast<double>(bucket_bounds.size());
  auto position = [&](const Value& v) {
    size_t idx = 0;
    while (idx < bucket_bounds.size() && bucket_bounds[idx].SortLess(v)) ++idx;
    return static_cast<double>(idx) / buckets;
  };
  double from = lo.is_null() ? 0.0 : position(lo);
  double to = hi.is_null() ? 1.0 : position(hi);
  return std::max(1.0 / static_cast<double>(row_count),
                  std::max(0.0, to - from));
}

namespace {

constexpr size_t kStatBuckets = 32;

/// Equi-depth bucket positions of the old Value-based collector: the
/// sorted element at min(n-1, b*n/32) for b = 1..32.
template <typename Emit>
void EmitBucketPositions(size_t n, const Emit& emit) {
  for (size_t b = 1; b <= kStatBuckets; ++b) {
    emit(std::min(n - 1, b * n / kStatBuckets));
  }
}

/// Sorted-typed-array statistics shared by the int64 and double
/// collectors: sort the non-NULL payload, then derive ndv / min / max /
/// bounds (and exact frequencies) — one algorithm, one place.
template <typename T, typename Box>
void CollectSortedStats(const ValueColumn& col,
                        const std::vector<T>& payload, const Box& box,
                        bool want_frequent, ColumnStats* st) {
  std::vector<T> sorted;
  sorted.reserve(col.size());
  for (size_t r = 0; r < col.size(); ++r) {
    if (!col.IsNull(r)) sorted.push_back(payload[r]);
  }
  if (sorted.empty()) return;
  std::sort(sorted.begin(), sorted.end());
  st->min = box(sorted.front());
  st->max = box(sorted.back());
  int64_t ndv = 1;
  for (size_t i = 1; i < sorted.size(); ++i) {
    if (sorted[i - 1] < sorted[i]) ++ndv;
  }
  st->ndv = ndv;
  EmitBucketPositions(sorted.size(), [&](size_t pos) {
    st->bucket_bounds.push_back(box(sorted[pos]));
  });
  if (want_frequent) {
    for (size_t i = 0; i < sorted.size();) {
      size_t j = i;
      while (j < sorted.size() && sorted[j] == sorted[i]) ++j;
      st->frequent[box(sorted[i]).ToString()] = static_cast<int64_t>(j - i);
      i = j;
    }
  }
}

/// Dictionary-column statistics come from the dictionary directly: one
/// count per code (a single pass over the code vector), then a sort of
/// the dictionary — never a sort or re-hash of all rows.
void CollectDictStats(const ValueColumn& col, bool want_frequent,
                      ColumnStats* st) {
  const auto& dict = col.dict().strings;
  std::vector<int64_t> count(dict.size(), 0);
  size_t non_null = 0;
  const auto& codes = col.dict_codes();
  for (size_t r = 0; r < col.size(); ++r) {
    if (col.IsNull(r)) continue;
    ++count[codes[r]];
    ++non_null;
  }
  if (non_null == 0) return;
  // Codes present at least once, in dictionary string order.
  std::vector<uint32_t> order;
  order.reserve(dict.size());
  for (uint32_t c = 0; c < dict.size(); ++c) {
    if (count[c] > 0) order.push_back(c);
  }
  std::sort(order.begin(), order.end(),
            [&](uint32_t a, uint32_t b) { return dict[a] < dict[b]; });
  st->ndv = static_cast<int64_t>(order.size());
  st->min = Value::String(dict[order.front()]);
  st->max = Value::String(dict[order.back()]);
  // Equi-depth bounds via cumulative counts over the sorted dictionary
  // (bucket positions are ascending, so one forward walk suffices).
  size_t cursor = 0;
  size_t cum_end = static_cast<size_t>(count[order[0]]);
  EmitBucketPositions(non_null, [&](size_t pos) {
    while (pos >= cum_end && cursor + 1 < order.size()) {
      ++cursor;
      cum_end += static_cast<size_t>(count[order[cursor]]);
    }
    st->bucket_bounds.push_back(Value::String(dict[order[cursor]]));
  });
  if (want_frequent) {
    for (uint32_t c : order) st->frequent[dict[c]] = count[c];
  }
}

/// Boxed fallback for representations without a typed collector (the doc
/// relation never hits this; kept so ad-hoc databases stay correct).
void CollectGenericStats(const ValueColumn& col, bool want_frequent,
                         ColumnStats* st) {
  std::vector<Value> non_null;
  non_null.reserve(col.size());
  for (size_t r = 0; r < col.size(); ++r) {
    Value v = col.GetValue(r);
    if (!v.is_null()) non_null.push_back(std::move(v));
  }
  if (non_null.empty()) return;
  std::sort(non_null.begin(), non_null.end(),
            [](const Value& a, const Value& b) { return a.SortLess(b); });
  st->min = non_null.front();
  st->max = non_null.back();
  int64_t ndv = 1;
  for (size_t i = 1; i < non_null.size(); ++i) {
    if (non_null[i - 1].SortLess(non_null[i])) ++ndv;
  }
  st->ndv = ndv;
  EmitBucketPositions(non_null.size(), [&](size_t pos) {
    st->bucket_bounds.push_back(non_null[pos]);
  });
  if (want_frequent) {
    for (const Value& v : non_null) st->frequent[v.ToString()]++;
  }
}

void CollectColumnStats(const ValueColumn& col, bool want_frequent,
                        ColumnStats* st) {
  switch (col.tag()) {
    case ColumnTag::kInt:
      CollectSortedStats(col, col.ints(), Value::Int, want_frequent, st);
      return;
    case ColumnTag::kDouble:
      CollectSortedStats(col, col.doubles(), Value::Double, want_frequent,
                         st);
      return;
    case ColumnTag::kDictString:
      CollectDictStats(col, want_frequent, st);
      return;
    case ColumnTag::kString:
    case ColumnTag::kMixed:
      CollectGenericStats(col, want_frequent, st);
      return;
  }
}

}  // namespace

// GCC 12's inliner mis-tracks the control-block allocation of the
// shared Storage below at -O3 and reports a spurious
// -Wfree-nonheap-object from the vector destructors (GCC PR104475
// family); there is no non-heap free here — clang and newer GCCs agree.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wfree-nonheap-object"
#endif
std::unique_ptr<Database> Database::Build(const xml::DocTable& doc) {
  auto db = std::make_unique<Database>();
  auto storage = std::make_shared<Storage>();
  db->source_ = &doc;
  db->row_count_ = doc.row_count();
  const auto& cols = EngineDocColumns();
  // One materialization per corpus: a block-backed table shares its
  // columns outright (zero copies — the block's layout IS the engine
  // layout); an ad-hoc builder table materializes a fresh block first.
  // Either way xml::DocBlock is the single place that knows how to turn
  // the infoset encoding into typed columns.
  std::shared_ptr<const xml::DocBlock> block =
      doc.block() ? doc.block() : xml::DocBlock::FromTable(doc);
  storage->columns = block->columns();
  // Statistics: ndv, min/max, equi-depth histogram; exact frequencies for
  // the low-cardinality columns kind and name. Computed per typed
  // representation (dictionary columns straight from the dictionary),
  // exactly over the merged columns — delta reload/append changes the
  // columns, so stats recompute; the column BYTES are what is reused.
  storage->stats.resize(cols.size());
  for (size_t c = 0; c < cols.size(); ++c) {
    ColumnStats& st = storage->stats[c];
    st.row_count = db->row_count_;
    CollectColumnStats(*storage->columns[c],
                       cols[c] == "kind" || cols[c] == "name", &st);
  }
  db->storage_ = std::move(storage);
  return db;
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

int Database::ColumnIndex(const std::string& name) const {
  const auto& cols = EngineDocColumns();
  for (size_t i = 0; i < cols.size(); ++i) {
    if (cols[i] == name) return static_cast<int>(i);
  }
  return -1;
}

Status Database::CreateIndex(const IndexDef& def) {
  auto index = std::make_shared<Index>();
  index->def = def;
  key_columns_.resize(EngineDocColumns().size());
  std::vector<std::shared_ptr<const KeyColumn>> keys;
  for (const auto& col : def.key_columns) {
    const int idx = ColumnIndex(col);
    if (idx < 0) return Status::InvalidArgument("unknown column " + col);
    auto& key = key_columns_[static_cast<size_t>(idx)];
    if (!key) {
      XQJG_ASSIGN_OR_RETURN(key, KeyColumn::Make(ColumnPtr(idx)));
    }
    keys.push_back(key);
  }
  // The key columns before `pre` decide the order; pre breaks the ties.
  auto order = [](const IndexDef& d) {
    const auto& k = d.key_columns;
    return std::vector<std::string>(k.begin(),
                                    std::find(k.begin(), k.end(), "pre"));
  };
  const std::vector<std::string> sort_order = order(def);
  std::shared_ptr<const std::vector<uint32_t>> pres;
  for (const auto& other : indexes_) {
    if (order(other->def) == sort_order) pres = other->sorted.pres_ptr();
  }
  if (!pres) {
    const auto start = std::chrono::steady_clock::now();
    std::vector<const KeyColumn*> sort_keys;
    for (size_t i = 0; i < sort_order.size(); ++i) {
      sort_keys.push_back(keys[i].get());
    }
    pres = std::make_shared<const std::vector<uint32_t>>(
        SortedIndex::SortPres(sort_keys, static_cast<size_t>(row_count_)));
    index->build_seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
  }
  index->sorted = SortedIndex(std::move(keys), std::move(pres));
  indexes_.push_back(std::move(index));
  return Status::OK();
}

void Database::DropAllIndexes() { indexes_.clear(); }

namespace {

void AddIndex(std::vector<IndexDef>* out, const std::string& name,
              std::vector<std::string> keys,
              std::vector<std::string> includes = {}, bool clustered = false) {
  for (const auto& existing : *out) {
    if (existing.name == name) return;
  }
  out->push_back(IndexDef{name, std::move(keys), std::move(includes),
                          clustered});
}

}  // namespace

std::vector<IndexDef> TableVIIndexes() {
  // Paper Table VI with the key-letter mapping p:pre, s:pre+size(=pss),
  // l:level, k:kind, n:name, v:value, d:data — extended by one
  // parent-prefixed key (qnkp) for the attribute/owner and sibling steps
  // our `parent` encoding column supports.
  std::vector<IndexDef> out;
  AddIndex(&out, "nkspl", {"name", "kind", "pss", "pre", "level"});
  AddIndex(&out, "nlkps", {"name", "level", "kind", "pre", "pss"});
  AddIndex(&out, "nksp", {"name", "kind", "pss", "pre"});
  AddIndex(&out, "nlkp", {"name", "level", "kind", "pre"});
  AddIndex(&out, "vnlkp", {"value", "name", "level", "kind", "pre"});
  AddIndex(&out, "nlkpv", {"name", "level", "kind", "pre", "value"});
  AddIndex(&out, "nkdlp", {"name", "kind", "data", "level", "pre"});
  AddIndex(&out, "p-nvkls", {"pre"},
           {"name", "value", "kind", "level", "pss"}, /*clustered=*/true);
  AddIndex(&out, "qnkp", {"parent", "name", "kind", "pre"});
  return out;
}

std::vector<IndexDef> AdviseIndexes(
    const std::vector<const opt::JoinGraph*>& workload) {
  // Feature scan over the workload's conjunctive predicates — the join
  // graph SQL is completely regular (paper §IV), so a handful of
  // predicate shapes determines the useful key layouts.
  bool name_tests = false;       // name = '...' equality
  bool level_preds = false;      // level° + 1 = level (child steps)
  bool pre_ranges = false;       // pre BETWEEN ... (descendant/child)
  bool value_comparisons = false;
  bool data_comparisons = false;
  bool parent_joins = false;     // attribute / sibling steps
  bool serialization = false;    // bare pre-range scans of full rows
  for (const opt::JoinGraph* jg : workload) {
    for (const auto& p : jg->predicates) {
      auto mentions = [&](const char* col) {
        return p.lhs.col == col || p.lhs.col2 == col || p.rhs.col == col ||
               p.rhs.col2 == col;
      };
      if (mentions("name") && p.op == algebra::CmpOp::kEq) name_tests = true;
      if (mentions("level")) level_preds = true;
      if (mentions("pre") && p.op != algebra::CmpOp::kEq) pre_ranges = true;
      if (mentions("value")) value_comparisons = true;
      if (mentions("data")) data_comparisons = true;
      if (mentions("parent")) parent_joins = true;
    }
    // A select list wider than a couple of columns means full infoset rows
    // flow to serialization.
    if (jg->select_list.size() >= 2) serialization = true;
  }
  std::vector<IndexDef> out;
  if (name_tests && pre_ranges) {
    AddIndex(&out, "nkspl", {"name", "kind", "pss", "pre", "level"});
    AddIndex(&out, "nksp", {"name", "kind", "pss", "pre"});
  }
  if (name_tests && level_preds) {
    AddIndex(&out, "nlkps", {"name", "level", "kind", "pre", "pss"});
    AddIndex(&out, "nlkp", {"name", "level", "kind", "pre"});
  }
  if (value_comparisons) {
    AddIndex(&out, "vnlkp", {"value", "name", "level", "kind", "pre"});
    AddIndex(&out, "nlkpv", {"name", "level", "kind", "pre", "value"});
  }
  if (data_comparisons) {
    AddIndex(&out, "nkdlp", {"name", "kind", "data", "level", "pre"});
  }
  if (parent_joins) {
    AddIndex(&out, "qnkp", {"parent", "name", "kind", "pre"});
  }
  if (serialization) {
    AddIndex(&out, "p-nvkls", {"pre"},
             {"name", "value", "kind", "level", "pss"}, /*clustered=*/true);
  }
  return out;
}

}  // namespace xqjg::engine
