// Unit and property tests of the engine's index structure, the sorted
// permutation of pre ranks (src/engine/sorted_index.h). The suites keep
// their names from the B+-tree it replaced, so their test ids are stable;
// every probe is checked against a brute-force reference over the same
// rows under Value::SortLess, order included (key order, then pre).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>

#include "src/engine/sorted_index.h"

namespace xqjg::engine {
namespace {

/// An index over `cols` (its key columns, in order) with pre = row.
SortedIndex Build(const std::vector<ValueColumn>& cols) {
  std::vector<std::shared_ptr<const KeyColumn>> keys;
  std::vector<const KeyColumn*> raw;
  for (const ValueColumn& col : cols) {
    auto key = KeyColumn::Make(std::make_shared<const ValueColumn>(col));
    EXPECT_TRUE(key.ok());
    keys.push_back(key.value());
    raw.push_back(keys.back().get());
  }
  const size_t rows = cols.empty() ? 0 : cols[0].size();
  return SortedIndex(std::move(keys),
                     std::make_shared<const std::vector<uint32_t>>(
                         SortedIndex::SortPres(raw, rows)));
}

std::vector<uint32_t> Lookup(const SortedIndex& index,
                             const ProbeRange& range) {
  const auto [first, last] = index.Find(range);
  return std::vector<uint32_t>(index.pres().begin() + first,
                               index.pres().begin() + last);
}

ProbeRange Eq(const SortedIndex& index, const std::vector<Value>& eq) {
  ProbeRange range;
  for (const Value& v : eq) EXPECT_TRUE(range.AddEq(index, v));
  return range;
}

TEST(BTree, InsertAndPointLookup) {
  std::vector<int64_t> a, b;
  for (int64_t i = 0; i < 500; ++i) {
    a.push_back(i % 50);
    b.push_back(500 - i);
  }
  SortedIndex index = Build({ValueColumn::Ints(a), ValueColumn::Ints(b)});
  EXPECT_EQ(index.pres().size(), 500u);
  const auto pres = Lookup(index, Eq(index, {Value::Int(7)}));
  ASSERT_EQ(pres.size(), 10u);  // 10 rows with first component 7
  for (uint32_t pre : pres) EXPECT_EQ(pre % 50, 7u);
  // Second key descending in pre: key order reverses pre order.
  EXPECT_TRUE(std::is_sorted(pres.rbegin(), pres.rend()));
  EXPECT_EQ(Lookup(index, Eq(index, {Value::Int(7), Value::Int(493)})),
            std::vector<uint32_t>{7});
}

TEST(BTree, EmptyTreeScans) {
  SortedIndex index = Build({ValueColumn::Ints({})});
  EXPECT_TRUE(Lookup(index, ProbeRange()).empty());
  EXPECT_TRUE(Lookup(index, Eq(index, {Value::Int(1)})).empty());
  ProbeRange null_bound;
  EXPECT_FALSE(null_bound.AddEq(index, Value::Null()));
}

/// The radix-sorted permutation equals a comparison sort of the boxed
/// keys under Value::SortLess, ties in pre order — for ints with
/// negatives, doubles with NULLs and -0.0, and dictionary strings with
/// NULLs.
TEST(BTree, BulkLoadMatchesInsert) {
  std::mt19937_64 rng(7);
  const char* words[] = {"b", "a", "ab", "", "zz", "B"};
  std::vector<int64_t> ints;
  std::vector<double> doubles;
  std::vector<uint8_t> double_nulls, string_nulls;
  std::vector<std::string> strings;
  for (int i = 0; i < 1000; ++i) {
    ints.push_back(static_cast<int64_t>(rng() % 7) - 3);
    const double d = static_cast<double>(rng() % 5) - 2.0;
    doubles.push_back(d == 0 && rng() % 2 ? -0.0 : d * 1e300);
    double_nulls.push_back(rng() % 5 == 0);
    strings.push_back(words[rng() % 6]);
    string_nulls.push_back(rng() % 4 == 0);
  }
  const std::vector<ValueColumn> cols = {
      ValueColumn::Doubles(doubles, double_nulls),
      ValueColumn::DictStrings(strings, string_nulls),
      ValueColumn::Ints(ints)};
  SortedIndex index = Build(cols);
  std::vector<uint32_t> want(1000);
  for (uint32_t i = 0; i < want.size(); ++i) want[i] = i;
  std::stable_sort(want.begin(), want.end(), [&](uint32_t a, uint32_t b) {
    for (const ValueColumn& col : cols) {
      const Value x = col.GetValue(a), y = col.GetValue(b);
      if (x.SortLess(y)) return true;
      if (y.SortLess(x)) return false;
    }
    return false;
  });
  EXPECT_EQ(index.pres(), want);
}

TEST(BTree, StringKeys) {
  const char* names[] = {"bidder", "item", "price", "open_auction", "name"};
  std::vector<std::string> name;
  std::vector<int64_t> seq;
  for (int64_t i = 0; i < 200; ++i) {
    name.push_back(names[i % 5]);
    seq.push_back(i);
  }
  SortedIndex index =
      Build({ValueColumn::DictStrings(name), ValueColumn::Ints(seq)});
  const auto pres = Lookup(index, Eq(index, {Value::String("price")}));
  EXPECT_EQ(pres.size(), 40u);
  for (uint32_t pre : pres) EXPECT_EQ(pre % 5, 2u);
  // A string absent from the dictionary matches nothing, and bounds
  // by its place among the dictionary's strings.
  EXPECT_TRUE(Lookup(index, Eq(index, {Value::String("j")})).empty());
  ProbeRange after_j;
  ASSERT_TRUE(after_j.AddBound(index, Value::String("j"), /*lower=*/true,
                               /*strict=*/false));
  EXPECT_EQ(Lookup(index, after_j).size(), 120u);  // name, open_auction, price
}

/// Random (a, b, pre) rows; SortLess brute force for each probe shape.
class BTreeProperty : public ::testing::TestWithParam<int> {};

TEST_P(BTreeProperty, RandomRangesMatchBruteForce) {
  std::mt19937_64 rng(static_cast<uint64_t>(GetParam()));
  const int n = 500 + GetParam() * 137;
  std::vector<int64_t> a, b;
  for (int i = 0; i < n; ++i) {
    a.push_back(static_cast<int64_t>(rng() % 40));
    b.push_back(static_cast<int64_t>(rng() % 97));
  }
  SortedIndex index = Build({ValueColumn::Ints(a), ValueColumn::Ints(b)});
  for (int trial = 0; trial < 50; ++trial) {
    const int shape = static_cast<int>(rng() % 4);
    const int64_t key = static_cast<int64_t>(rng() % 40);
    const int64_t lo = static_cast<int64_t>(rng() % 97);
    const int64_t hi = lo + static_cast<int64_t>(rng() % 30);
    const bool lo_strict = rng() % 2 == 0, hi_strict = rng() % 2 == 0;
    ProbeRange range;
    if (shape <= 2) {
      ASSERT_TRUE(range.AddEq(index, Value::Int(key)));
    }
    if (shape == 1) {
      ASSERT_TRUE(range.AddBound(index, Value::Int(lo), true, lo_strict));
      ASSERT_TRUE(range.AddBound(index, Value::Int(hi), false, hi_strict));
    } else if (shape == 2) {
      ASSERT_TRUE(range.AddBound(index, Value::Int(lo), true, false));
    }
    std::vector<uint32_t> want;
    for (int i = 0; i < n; ++i) {
      if (shape <= 2 && a[i] != key) continue;
      if (shape == 1 && (lo_strict ? b[i] <= lo : b[i] < lo)) continue;
      if (shape == 1 && (hi_strict ? b[i] >= hi : b[i] > hi)) continue;
      if (shape == 2 && b[i] < lo) continue;
      want.push_back(static_cast<uint32_t>(i));
    }
    std::stable_sort(want.begin(), want.end(), [&](uint32_t x, uint32_t y) {
      return std::make_pair(a[x], b[x]) < std::make_pair(a[y], b[y]);
    });
    EXPECT_EQ(Lookup(index, range), want)
        << "trial " << trial << " shape " << shape;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BTreeProperty, ::testing::Range(0, 8));

}  // namespace
}  // namespace xqjg::engine
