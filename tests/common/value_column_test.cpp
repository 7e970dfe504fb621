// kDictString end-to-end: construction, Append/AppendFrom promotion and
// DemoteToMixed, null handling, Gather dictionary sharing, and — the
// property every executor depends on — cross-representation agreement of
// EqualAt / SortLessAt / HashAt with plain string columns and with
// Value::Hash().
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/value.h"
#include "src/common/value_column.h"

namespace xqjg {
namespace {

TEST(DictColumn, BuildsDictionaryAndRoundTrips) {
  ValueColumn col = ValueColumn::DictStrings(
      {"item", "person", "item", "bidder", "item", "person"});
  ASSERT_EQ(col.tag(), ColumnTag::kDictString);
  ASSERT_EQ(col.size(), 6u);
  EXPECT_EQ(col.dict_size(), 3u);  // item, person, bidder
  EXPECT_EQ(col.GetValue(0).AsString(), "item");
  EXPECT_EQ(col.GetValue(3).AsString(), "bidder");
  EXPECT_EQ(col.StringAt(5), "person");
  // Codes of equal strings are equal; the lookup finds exactly them.
  EXPECT_EQ(col.dict_codes()[0], col.dict_codes()[2]);
  EXPECT_EQ(col.DictCode("bidder"),
            static_cast<int64_t>(col.dict_codes()[3]));
  EXPECT_EQ(col.DictCode("absent"), -1);
}

TEST(DictColumn, NullHandling) {
  ValueColumn col =
      ValueColumn::DictStrings({"x", "", "y"}, {0, 1, 0});
  ASSERT_TRUE(col.has_nulls());
  EXPECT_FALSE(col.IsNull(0));
  EXPECT_TRUE(col.IsNull(1));
  EXPECT_TRUE(col.GetValue(1).is_null());
  EXPECT_EQ(col.GetValue(2).AsString(), "y");
  EXPECT_EQ(col.HashAt(1), Value::kNullHash);
  col.AppendNull();
  ASSERT_EQ(col.size(), 4u);
  EXPECT_TRUE(col.IsNull(3));
  // NULL slots never enter the dictionary.
  EXPECT_EQ(col.dict_size(), 2u);
}

TEST(DictColumn, AppendPromotesStringsIntoTheDictionary) {
  ValueColumn col = ValueColumn::DictStrings({"a", "b"});
  col.Append(Value::String("a"));  // existing entry: code reuse
  col.Append(Value::String("c"));  // new entry: interned
  ASSERT_EQ(col.tag(), ColumnTag::kDictString);
  ASSERT_EQ(col.size(), 4u);
  EXPECT_EQ(col.dict_size(), 3u);
  EXPECT_EQ(col.dict_codes()[2], col.dict_codes()[0]);
  EXPECT_EQ(col.GetValue(3).AsString(), "c");
}

TEST(DictColumn, AppendOfNonStringDemotesToMixed) {
  ValueColumn col = ValueColumn::DictStrings({"a", "b"});
  col.Append(Value::Int(7));
  ASSERT_EQ(col.tag(), ColumnTag::kMixed);
  ASSERT_EQ(col.size(), 3u);
  // Demotion preserves every cell.
  EXPECT_EQ(col.GetValue(0).AsString(), "a");
  EXPECT_EQ(col.GetValue(1).AsString(), "b");
  EXPECT_EQ(col.GetValue(2).AsInt(), 7);
}

TEST(DictColumn, AppendFromSharedDictionaryCopiesCodes) {
  ValueColumn src = ValueColumn::DictStrings({"a", "b", "c"});
  ValueColumn dst = src.Gather({0});  // shares src's dictionary
  dst.AppendFrom(src, 2);
  ASSERT_EQ(dst.tag(), ColumnTag::kDictString);
  ASSERT_EQ(dst.size(), 2u);
  EXPECT_EQ(dst.GetValue(1).AsString(), "c");
  // No new dictionary was built: codes align with the source's.
  EXPECT_EQ(dst.dict_codes()[1], src.dict_codes()[2]);
}

TEST(DictColumn, AppendFromIntoNullOnlyColumnKeepsTheDictionary) {
  ValueColumn src = ValueColumn::DictStrings({"", "a", "b", "a"}, {1, 0, 0, 0});
  ValueColumn dst;  // representation not decided yet
  dst.AppendFrom(src, 0);
  dst.AppendNull();
  for (size_t row = 1; row < src.size(); ++row) dst.AppendFrom(src, row);
  ASSERT_EQ(dst.tag(), ColumnTag::kDictString);
  EXPECT_EQ(dst.dict_ptr(), src.dict_ptr());
  ASSERT_EQ(dst.size(), 5u);
  EXPECT_TRUE(dst.IsNull(0));
  EXPECT_TRUE(dst.IsNull(1));
  EXPECT_EQ(dst.GetValue(2).AsString(), "a");
  EXPECT_EQ(dst.GetValue(3).AsString(), "b");
  EXPECT_EQ(dst.GetValue(4).AsString(), "a");
  EXPECT_EQ(dst.dict_codes()[4], src.dict_codes()[3]);
  // A plain source still yields a plain column.
  ValueColumn plain;
  plain.AppendNull();
  plain.AppendFrom(ValueColumn::Ints({7}), 0);
  ASSERT_EQ(plain.tag(), ColumnTag::kInt);
  EXPECT_TRUE(plain.IsNull(0));
  EXPECT_EQ(plain.GetValue(1).AsInt(), 7);
}

TEST(DictColumn, AppendFromForeignColumnsStaysTyped) {
  ValueColumn plain = ValueColumn::Strings({"p", "q"});
  ValueColumn dict = ValueColumn::DictStrings({"a"});
  dict.AppendFrom(plain, 1);  // string → dict: interned
  ASSERT_EQ(dict.tag(), ColumnTag::kDictString);
  EXPECT_EQ(dict.GetValue(1).AsString(), "q");
  EXPECT_EQ(dict.dict_size(), 2u);
  ValueColumn out = ValueColumn::Strings({"z"});
  out.AppendFrom(dict, 0);  // dict → string: payload copied
  ASSERT_EQ(out.tag(), ColumnTag::kString);
  EXPECT_EQ(out.GetValue(1).AsString(), "a");
  // NULLs propagate across representations.
  ValueColumn with_null = ValueColumn::DictStrings({"x", ""}, {0, 1});
  out.AppendFrom(with_null, 1);
  EXPECT_TRUE(out.IsNull(2));
}

TEST(DictColumn, GatherSharesTheDictionary) {
  ValueColumn col =
      ValueColumn::DictStrings({"a", "b", "c", "b", ""}, {0, 0, 0, 0, 1});
  ValueColumn picked = col.Gather({4, 3, 1, 0});
  ASSERT_EQ(picked.tag(), ColumnTag::kDictString);
  ASSERT_EQ(picked.size(), 4u);
  EXPECT_TRUE(picked.IsNull(0));
  EXPECT_EQ(picked.GetValue(1).AsString(), "b");
  EXPECT_EQ(picked.GetValue(2).AsString(), "b");
  EXPECT_EQ(picked.GetValue(3).AsString(), "a");
  // Same dictionary object — a gather must not copy it.
  EXPECT_EQ(&picked.dict(), &col.dict());
}

TEST(DictColumn, CrossRepresentationAgreement) {
  const std::vector<std::string> strings = {"item", "bidder", "item",
                                            "person", ""};
  const std::vector<uint8_t> nulls = {0, 0, 0, 0, 1};
  ValueColumn dict = ValueColumn::DictStrings(strings, nulls);
  ValueColumn plain = ValueColumn::Strings(strings, nulls);
  for (size_t i = 0; i < strings.size(); ++i) {
    // HashAt must equal Value::Hash() of the boxed cell — the contract
    // hash joins across representations rely on.
    EXPECT_EQ(dict.HashAt(i), dict.GetValue(i).Hash()) << i;
    EXPECT_EQ(dict.HashAt(i), plain.HashAt(i)) << i;
    for (size_t j = 0; j < strings.size(); ++j) {
      EXPECT_EQ(ValueColumn::EqualAt(dict, i, dict, j),
                ValueColumn::EqualAt(plain, i, plain, j))
          << i << "," << j;
      EXPECT_EQ(ValueColumn::EqualAt(dict, i, plain, j),
                ValueColumn::EqualAt(plain, i, plain, j))
          << i << "," << j;
      EXPECT_EQ(ValueColumn::SortLessAt(dict, i, dict, j),
                ValueColumn::SortLessAt(plain, i, plain, j))
          << i << "," << j;
      EXPECT_EQ(ValueColumn::SortLessAt(dict, i, plain, j),
                ValueColumn::SortLessAt(plain, i, plain, j))
          << i << "," << j;
      EXPECT_EQ(ValueColumn::SortLessAt(plain, i, dict, j),
                ValueColumn::SortLessAt(plain, i, plain, j))
          << i << "," << j;
    }
  }
  // Two dictionary columns with DIFFERENT dictionaries still agree.
  ValueColumn other = ValueColumn::DictStrings(
      {"person", "item", "bidder", "item", ""}, {0, 0, 0, 0, 1});
  for (size_t i = 0; i < strings.size(); ++i) {
    for (size_t j = 0; j < strings.size(); ++j) {
      EXPECT_EQ(ValueColumn::EqualAt(dict, i, other, j),
                ValueColumn::EqualAt(plain, i, other, j))
          << i << "," << j;
      EXPECT_EQ(ValueColumn::SortLessAt(dict, i, other, j),
                ValueColumn::SortLessAt(plain, i, other, j))
          << i << "," << j;
    }
  }
}

TEST(DictColumn, CopyOnWritePreservesSharedReaders) {
  ValueColumn src = ValueColumn::DictStrings({"a", "b"});
  ValueColumn view = src.Gather({0, 1});  // shares the dictionary
  view.Append(Value::String("new"));      // must clone, not mutate, the dict
  EXPECT_EQ(src.dict_size(), 2u);
  EXPECT_EQ(view.dict_size(), 3u);
  EXPECT_EQ(src.DictCode("new"), -1);
  EXPECT_EQ(view.GetValue(2).AsString(), "new");
}

}  // namespace
}  // namespace xqjg
