// Differential test of index probe ranges over a doc relation: for every
// Table VI index, random equality prefixes and lower/upper bounds are
// bound through ProbeRange exactly as the index-probe operator binds
// them, and the slice the index returns must equal a brute-force filter
// of every row under Value::SortLess, sorted by (key columns, pre).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <set>

#include "src/data/xmark.h"
#include "src/engine/database.h"
#include "src/xml/parser.h"

namespace xqjg::engine {
namespace {

struct Bound {
  Value v;
  bool lower = false;
  bool strict = false;
};

class ProbeRangeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    doc_ = new xml::DocTable();
    data::XmarkOptions options;
    options.scale = 0.05;
    ASSERT_TRUE(xml::LoadDocument(doc_, "auction.xml",
                                  data::GenerateXmark(options))
                    .ok());
    db_ = Database::Build(*doc_).release();
    for (const auto& def : TableVIIndexes()) {
      ASSERT_TRUE(db_->CreateIndex(def).ok()) << def.ToString();
    }
  }
  static void TearDownTestSuite() {
    delete db_;
    delete doc_;
  }

  static xml::DocTable* doc_;
  static Database* db_;
};

xml::DocTable* ProbeRangeTest::doc_ = nullptr;
Database* ProbeRangeTest::db_ = nullptr;

bool Equivalent(const Value& a, const Value& b) {
  return !a.SortLess(b) && !b.SortLess(a);
}

/// A value near `v` in the key column's order: itself, a neighbour, a
/// double on an int column, or a string the dictionary does not hold.
Value Perturb(const Value& v, std::mt19937_64* rng) {
  switch (v.type()) {
    case ValueType::kInt: {
      const int64_t d = static_cast<int64_t>((*rng)() % 3) - 1;
      if ((*rng)() % 3 == 0) {
        return Value::Double(static_cast<double>(v.AsInt() + d) +
                             ((*rng)() % 2 ? 0.5 : 0.0));
      }
      return Value::Int(v.AsInt() + d);
    }
    case ValueType::kDouble:
      return (*rng)() % 2 ? v : Value::Double(v.AsDouble() + 0.25);
    case ValueType::kString:
      switch ((*rng)() % 4) {
        case 0:
          return Value::String(v.AsString() + "~absent");
        case 1:
          return Value::String(v.AsString().substr(0, v.AsString().size() / 2));
        default:
          return v;
      }
    case ValueType::kNull:
      break;
  }
  return v;
}

TEST_F(ProbeRangeTest, EveryTableVIIndexMatchesBruteForce) {
  const size_t n = static_cast<size_t>(db_->row_count());
  ASSERT_GT(n, 1000u);
  std::mt19937_64 rng(26);
  int nonempty = 0, null_probes = 0, tie_probes = 0;
  for (const auto& index : db_->indexes()) {
    const SortedIndex& sorted = index->sorted;
    const size_t nkeys = sorted.num_keys();
    // The boxed key cells, one vector per key column.
    std::vector<std::vector<Value>> cells(nkeys);
    for (size_t k = 0; k < nkeys; ++k) {
      for (size_t r = 0; r < n; ++r) {
        cells[k].push_back(sorted.key(k).column().GetValue(r));
      }
    }
    for (int trial = 0; trial < 300; ++trial) {
      const size_t anchor = static_cast<size_t>(rng() % n);
      const size_t other = static_cast<size_t>(rng() % n);
      const size_t neq = static_cast<size_t>(rng() % (nkeys + 1));
      std::vector<Value> eq;
      for (size_t k = 0; k < neq; ++k) {
        eq.push_back(rng() % 8 == 0 ? Perturb(cells[k][anchor], &rng)
                                    : cells[k][anchor]);
      }
      std::vector<Bound> bounds;
      if (neq < nkeys) {
        const Value& a = cells[neq][anchor];
        const Value& b = cells[neq][other];
        const Value lo = a.SortLess(b) ? a : b;
        const Value hi = a.SortLess(b) ? b : a;
        switch (rng() % 5) {
          case 0:  // both sides, each inclusive or strict
            bounds.push_back({Perturb(lo, &rng), true, rng() % 2 == 0});
            bounds.push_back({Perturb(hi, &rng), false, rng() % 2 == 0});
            break;
          case 1:  // one side only
            bounds.push_back({Perturb(a, &rng), rng() % 2 == 0,
                              rng() % 2 == 0});
            break;
          case 2:  // `. <= x and . < y` and its mirror on one side
            ++tie_probes;
            for (int side = 0; side < 2; ++side) {
              const bool lower = side == 0;
              const Value& x = lower ? lo : hi;
              bounds.push_back({x, lower, false});
              bounds.push_back(
                  {rng() % 2 ? x : Perturb(x, &rng), lower, true});
            }
            break;
          case 3:  // a NULL bound: the probe is empty
            bounds.push_back({Value::Null(), rng() % 2 == 0, false});
            break;
          default:  // equalities only
            break;
        }
        if (!a.is_null() && rng() % 10 == 0) {  // a NULL equality instead
          eq.push_back(Value::Null());
          bounds.clear();
        }
      }
      // Bind as the probe operator does: equalities, then bounds.
      ProbeRange range;
      bool bound = true;
      for (const Value& v : eq) bound = bound && range.AddEq(sorted, v);
      for (const Bound& b : bounds) {
        bound = bound && range.AddBound(sorted, b.v, b.lower, b.strict);
      }
      bool has_null = false;
      for (const Value& v : eq) has_null = has_null || v.is_null();
      for (const Bound& b : bounds) has_null = has_null || b.v.is_null();
      EXPECT_EQ(bound, !has_null);
      if (has_null) {
        ++null_probes;
        continue;
      }
      const auto [first, last] = sorted.Find(range);
      const std::vector<uint32_t> got(sorted.pres().begin() + first,
                                      sorted.pres().begin() + last);
      std::vector<uint32_t> want;
      for (size_t r = 0; r < n; ++r) {
        bool pass = true;
        for (size_t k = 0; pass && k < eq.size(); ++k) {
          pass = Equivalent(cells[k][r], eq[k]);
        }
        for (const Bound& b : bounds) {
          if (!pass) break;
          const Value& c = cells[eq.size()][r];
          pass = b.lower ? (b.strict ? b.v.SortLess(c) : !c.SortLess(b.v))
                         : (b.strict ? c.SortLess(b.v) : !b.v.SortLess(c));
        }
        if (pass) want.push_back(static_cast<uint32_t>(r));
      }
      std::stable_sort(want.begin(), want.end(), [&](uint32_t x, uint32_t y) {
        for (size_t k = 0; k < nkeys; ++k) {
          if (cells[k][x].SortLess(cells[k][y])) return true;
          if (cells[k][y].SortLess(cells[k][x])) return false;
        }
        return false;
      });
      ASSERT_EQ(got, want) << index->def.ToString() << " trial " << trial;
      if (!got.empty()) ++nonempty;
    }
  }
  // The draws reach the interesting shapes.
  EXPECT_GT(nonempty, 1000);
  EXPECT_GT(null_probes, 100);
  EXPECT_GT(tie_probes, 100);
}

/// Pre is unique, so key columns after `pre` never change the order:
/// Table VI's nine indexes need five sorts plus the identity.
TEST_F(ProbeRangeTest, TableVISharesPermutationsAcrossKeyOrders) {
  std::map<std::string, const std::vector<uint32_t>*> pres;
  std::set<const std::vector<uint32_t>*> distinct;
  int shared = 0;
  for (const auto& index : db_->indexes()) {
    pres[index->def.name] = &index->sorted.pres();
    distinct.insert(&index->sorted.pres());
    if (index->build_seconds == 0) ++shared;
  }
  EXPECT_EQ(distinct.size(), 6u);
  EXPECT_EQ(shared, 3);
  EXPECT_EQ(pres["nkspl"], pres["nksp"]);
  EXPECT_EQ(pres["nlkps"], pres["nlkp"]);
  EXPECT_EQ(pres["nlkp"], pres["nlkpv"]);
  const std::vector<uint32_t>& identity = *pres["p-nvkls"];
  for (size_t i = 0; i < identity.size(); ++i) {
    ASSERT_EQ(identity[i], i);
  }
}

}  // namespace
}  // namespace xqjg::engine
