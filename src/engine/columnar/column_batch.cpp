#include "src/engine/columnar/column_batch.h"

#include <numeric>
#include <utility>

#include "src/algebra/operators.h"
#include "src/xml/doc_block.h"

namespace xqjg::engine::columnar {

int ColumnBatch::ColumnIndex(const std::string& name) const {
  for (size_t i = 0; i < schema.size(); ++i) {
    if (schema[i] == name) return static_cast<int>(i);
  }
  return -1;
}

int64_t ApproxBatchBytes(const ColumnBatch& b) {
  int64_t bytes = 64;  // struct + schema overhead floor
  const size_t phys = b.PhysSize();
  for (const ColumnRef& col : b.cols) {
    int64_t cb = col->ApproxBytes();
    if (b.sel && phys > 0) {
      cb = cb * static_cast<int64_t>(b.num_rows) /
           static_cast<int64_t>(phys);
    }
    bytes += cb;
  }
  return bytes;
}

Result<ColumnBatch> DocRelationBatch(const xml::DocTable& doc,
                                     BudgetClock* clock) {
  const auto n = static_cast<size_t>(doc.row_count());
  XQJG_RETURN_NOT_OK(clock->CheckRows(doc.row_count()));
  if (const std::shared_ptr<const xml::DocBlock>& block = doc.block()) {
    // Shared-block corpus: the batch VIEWS the block's columns (the
    // algebra's doc columns are the block's engine-order prefix) — zero
    // copies, zero per-execution materialization. The row-count budget
    // check above still applies; there is no per-row work to meter.
    ColumnBatch batch;
    batch.schema = algebra::DocColumns();
    batch.num_rows = n;
    batch.cols.assign(block->columns().begin(),
                      block->columns().begin() +
                          static_cast<ptrdiff_t>(batch.schema.size()));
    return batch;
  }
  std::vector<int64_t> pre(n), size(n), level(n), kind(n), parent(n), root(n);
  std::vector<std::string> name(n), value(n);
  std::vector<uint8_t> value_null(n, 0);
  std::vector<double> data(n, 0.0);
  std::vector<uint8_t> data_null(n, 0);
  for (size_t i = 0; i < n; ++i) {
    const auto p = static_cast<int64_t>(i);
    pre[i] = p;
    size[i] = doc.size(p);
    level[i] = doc.level(p);
    kind[i] = static_cast<int64_t>(doc.kind(p));
    name[i] = doc.name(p);
    if (doc.has_value(p)) {
      value[i] = doc.value(p);
    } else {
      value_null[i] = 1;
    }
    if (doc.has_data(p)) {
      data[i] = doc.data(p);
    } else {
      data_null[i] = 1;
    }
    parent[i] = doc.Parent(p);
    root[i] = doc.Root(p);
    XQJG_RETURN_NOT_OK(clock->Tick());
  }
  ColumnBatch batch;
  batch.schema = algebra::DocColumns();
  batch.num_rows = n;
  auto add = [&](ValueColumn col) {
    batch.cols.push_back(std::make_shared<const ValueColumn>(std::move(col)));
  };
  add(ValueColumn::Ints(std::move(pre)));
  add(ValueColumn::Ints(std::move(size)));
  add(ValueColumn::Ints(std::move(level)));
  add(ValueColumn::Ints(std::move(kind)));
  // name and value are dictionary-encoded: the tag alphabet is tiny, so
  // the equality kernels compare one uint32 code per row.
  add(ValueColumn::DictStrings(name));
  add(ValueColumn::DictStrings(value, std::move(value_null)));
  add(ValueColumn::Doubles(std::move(data), std::move(data_null)));
  add(ValueColumn::Ints(std::move(parent)));
  add(ValueColumn::Ints(std::move(root)));
  return batch;
}

ValueColumn GatherColumn(const RowRefs& refs, size_t c) {
  // Sources in one raw representation — NULL-free int64, or codes of one
  // shared dictionary — gather raw; anything else appends cell by cell.
  const ValueColumn& first = *refs.front().first->cols[c];
  const StringDict* dict =
      first.tag() == ColumnTag::kDictString ? &first.dict() : nullptr;
  bool ints = true, codes = dict != nullptr, nulls = false;
  const ColumnBatch* checked = nullptr;
  for (const auto& ref : refs) {
    if (ref.first == checked) continue;
    checked = ref.first;
    const ValueColumn& col = *ref.first->cols[c];
    ints = ints && col.tag() == ColumnTag::kInt && !col.has_nulls();
    codes = codes && col.tag() == ColumnTag::kDictString &&
            &col.dict() == dict;
    nulls = nulls || col.has_nulls();
  }
  const size_t n = refs.size();
  if (ints) {
    std::vector<int64_t> v(n);
    for (size_t i = 0; i < n; ++i) {
      v[i] = refs[i].first->cols[c]->ints()[refs[i].second];
    }
    return ValueColumn::Ints(std::move(v));
  }
  if (codes) {
    std::vector<uint32_t> v(n);
    std::vector<uint8_t> mask(nulls ? n : 0);
    for (size_t i = 0; i < n; ++i) {
      const ValueColumn& col = *refs[i].first->cols[c];
      v[i] = col.dict_codes()[refs[i].second];
      if (nulls) mask[i] = col.IsNull(refs[i].second) ? 1 : 0;
    }
    return ValueColumn::DictCodes(first.dict_ptr(), std::move(v),
                                  std::move(mask));
  }
  ValueColumn col;
  col.Reserve(n);
  for (const auto& [batch, row] : refs) col.AppendFrom(*batch->cols[c], row);
  return col;
}

ColumnBatch GatherRows(const RowRefs& refs) {
  ColumnBatch out;
  out.num_rows = refs.size();
  for (size_t c = 0; c < refs.front().first->cols.size(); ++c) {
    out.cols.push_back(
        std::make_shared<const ValueColumn>(GatherColumn(refs, c)));
  }
  return out;
}

ColumnBatch GatherPhysicalRows(const ColumnBatch& batch,
                               const std::vector<uint32_t>& phys_idx) {
  ColumnBatch out;
  out.num_rows = phys_idx.size();
  out.cols.reserve(batch.cols.size());
  // xqjg-lint: allow(no-budget-guard): O(schema columns), plan-shaped
  for (const ColumnRef& col : batch.cols) {
    out.cols.push_back(
        std::make_shared<const ValueColumn>(col->Gather(phys_idx)));
  }
  return out;
}

}  // namespace xqjg::engine::columnar
