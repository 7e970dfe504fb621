// Delta-reload / corpus-append pinning suite for the shared document
// block: replacing one URI must leave every OTHER document's storage
// untouched — dictionaries pointer-identical, untouched column runs
// byte-identical (shifted, not rebuilt, when they sit after the replaced
// run), native DOM fragments pointer-identical across snapshots, cached
// plans on other documents served pointer-identically — while plans on
// the replaced document go stale and a cursor pinned before the reload
// drains bit-identically against its old snapshot.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/api/processor.h"
#include "src/xml/doc_block.h"

namespace xqjg::api {
namespace {

using xml::DocBlock;
using xml::DocRun;

// Three documents over one shared tag/value alphabet, so a reload that
// reuses the alphabet must not clone any dictionary.
constexpr const char* kDocA = "<r><a id=\"n0\">1</a><b>2</b></r>";
constexpr const char* kDocB = "<r><a>3</a><c>4</c></r>";
constexpr const char* kDocC = "<r><b>5</b><c>6</c></r>";
// Replacement for b.xml: different row count (delta != 0), but every
// tag and value already exists in the corpus alphabet.
constexpr const char* kDocB2 = "<r><a>1</a><a>2</a><c>5</c></r>";
// Appended fourth document, again alphabet-only.
constexpr const char* kDocD = "<r><c>3</c><a>6</a></r>";

class DeltaReloadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(processor_.LoadDocument("a.xml", kDocA).ok());
    ASSERT_TRUE(processor_.LoadDocument("b.xml", kDocB).ok());
    ASSERT_TRUE(processor_.LoadDocument("c.xml", kDocC).ok());
  }

  /// Forces the shared block + relational database of the current
  /// snapshot and returns the snapshot.
  std::shared_ptr<const CatalogSnapshot> Materialized() {
    auto snap = processor_.snapshot();
    EXPECT_TRUE(snap->doc_table()->block() != nullptr);
    EXPECT_TRUE(snap->relational_db() != nullptr);
    return snap;
  }

  XQueryProcessor processor_;
};

TEST_F(DeltaReloadTest, ReloadKeepsOtherRunsAndDictionariesIdentical) {
  auto before = Materialized();
  const auto old_block = before->doc_table()->block();
  const DocRun* old_a = old_block->FindRun("a.xml");
  const DocRun* old_b = old_block->FindRun("b.xml");
  const DocRun* old_c = old_block->FindRun("c.xml");
  ASSERT_TRUE(old_a && old_b && old_c);

  ASSERT_TRUE(processor_.LoadDocument("b.xml", kDocB2).ok());
  auto after = Materialized();
  const auto new_block = after->doc_table()->block();
  ASSERT_NE(new_block.get(), old_block.get());
  const DocRun* new_b = new_block->FindRun("b.xml");
  ASSERT_TRUE(new_b != nullptr);
  const int64_t delta = new_b->rows - old_b->rows;
  EXPECT_NE(delta, 0);  // the fixture replaces 5 rows with 7
  EXPECT_EQ(new_block->row_count(), old_block->row_count() + delta);

  // Dictionaries: the replacement document stays inside the corpus
  // alphabet, so name and value dictionaries are POINTER-identical (no
  // copy-on-write fired anywhere in the splice).
  EXPECT_EQ(new_block->column(DocBlock::kName).dict_ptr().get(),
            old_block->column(DocBlock::kName).dict_ptr().get());
  EXPECT_EQ(new_block->column(DocBlock::kValue).dict_ptr().get(),
            old_block->column(DocBlock::kValue).dict_ptr().get());

  // a.xml sits before the replaced run: its rows copy verbatim — same
  // base, byte-identical structural values and dictionary codes.
  const DocRun* new_a = new_block->FindRun("a.xml");
  ASSERT_TRUE(new_a != nullptr);
  EXPECT_EQ(new_a->base, old_a->base);
  EXPECT_EQ(new_a->rows, old_a->rows);
  for (int64_t i = 0; i < old_a->rows; ++i) {
    const auto o = static_cast<size_t>(old_a->base + i);
    const auto m = static_cast<size_t>(new_a->base + i);
    EXPECT_EQ(new_block->column(DocBlock::kSizeCol).ints()[m],
              old_block->column(DocBlock::kSizeCol).ints()[o]);
    EXPECT_EQ(new_block->column(DocBlock::kLevel).ints()[m],
              old_block->column(DocBlock::kLevel).ints()[o]);
    EXPECT_EQ(new_block->column(DocBlock::kParent).ints()[m],
              old_block->column(DocBlock::kParent).ints()[o]);
    EXPECT_EQ(new_block->column(DocBlock::kPss).ints()[m],
              old_block->column(DocBlock::kPss).ints()[o]);
    EXPECT_EQ(new_block->column(DocBlock::kName).dict_codes()[m],
              old_block->column(DocBlock::kName).dict_codes()[o]);
    EXPECT_EQ(new_block->column(DocBlock::kValue).dict_codes()[m],
              old_block->column(DocBlock::kValue).dict_codes()[o]);
  }

  // c.xml sits after it: base shifts by the delta, size/level/kind and
  // the dictionary codes stay byte-identical, and the pre-valued columns
  // shift by exactly the delta.
  const DocRun* new_c = new_block->FindRun("c.xml");
  ASSERT_TRUE(new_c != nullptr);
  EXPECT_EQ(new_c->base, old_c->base + delta);
  EXPECT_EQ(new_c->rows, old_c->rows);
  for (int64_t i = 0; i < old_c->rows; ++i) {
    const auto o = static_cast<size_t>(old_c->base + i);
    const auto m = static_cast<size_t>(new_c->base + i);
    EXPECT_EQ(new_block->column(DocBlock::kSizeCol).ints()[m],
              old_block->column(DocBlock::kSizeCol).ints()[o]);
    EXPECT_EQ(new_block->column(DocBlock::kLevel).ints()[m],
              old_block->column(DocBlock::kLevel).ints()[o]);
    EXPECT_EQ(new_block->column(DocBlock::kKind).ints()[m],
              old_block->column(DocBlock::kKind).ints()[o]);
    EXPECT_EQ(new_block->column(DocBlock::kName).dict_codes()[m],
              old_block->column(DocBlock::kName).dict_codes()[o]);
    EXPECT_EQ(new_block->column(DocBlock::kValue).dict_codes()[m],
              old_block->column(DocBlock::kValue).dict_codes()[o]);
    EXPECT_EQ(new_block->column(DocBlock::kPss).ints()[m],
              old_block->column(DocBlock::kPss).ints()[o] + delta);
    const int64_t old_parent = old_block->column(DocBlock::kParent).ints()[o];
    const int64_t new_parent = new_block->column(DocBlock::kParent).ints()[m];
    EXPECT_EQ(new_parent, old_parent < 0 ? old_parent : old_parent + delta);
  }

  // Epochs: only the reloaded document's bumped.
  EXPECT_EQ(after->DocEpoch("a.xml"), before->DocEpoch("a.xml"));
  EXPECT_EQ(after->DocEpoch("c.xml"), before->DocEpoch("c.xml"));
  EXPECT_EQ(after->DocEpoch("b.xml"), before->DocEpoch("b.xml") + 1);
}

TEST_F(DeltaReloadTest, NativeDomOfOtherDocumentsSharedAcrossReload) {
  auto before = processor_.snapshot();
  // Force a.xml's native DOM on the pre-reload snapshot.
  const auto& old_frags = before->whole_store->Fragments("a.xml");
  ASSERT_EQ(old_frags.size(), 1u);

  ASSERT_TRUE(processor_.LoadDocument("b.xml", kDocB2).ok());
  auto after = processor_.snapshot();
  const auto& new_frags = after->whole_store->Fragments("a.xml");
  ASSERT_EQ(new_frags.size(), 1u);
  // Same XmlDocument object: the store entry (and its built tree) is
  // shared between snapshots; the reload rebuilt only b.xml's entry.
  EXPECT_EQ(new_frags[0], old_frags[0]);
}

TEST_F(DeltaReloadTest, DatabaseAdoptsBlockColumnsWithoutCopying) {
  auto snap = Materialized();
  const auto block = snap->doc_table()->block();
  const auto db = snap->relational_db();
  for (int c = 0; c < DocBlock::kNumCols; ++c) {
    EXPECT_EQ(db->ColumnPtr(c).get(), block->column_ptr(c).get())
        << "engine column " << c;
  }
}

TEST_F(DeltaReloadTest, ReloadEvictsOnlyThatDocumentsPlans) {
  auto plan_a = processor_.Prepare("doc(\"a.xml\")//a");
  auto plan_b = processor_.Prepare("doc(\"b.xml\")//c");
  ASSERT_TRUE(plan_a.ok() && plan_b.ok());

  ASSERT_TRUE(processor_.LoadDocument("b.xml", kDocB2).ok());

  // a.xml's plan survives: the SAME artifact comes back from the cache.
  auto plan_a2 = processor_.Prepare("doc(\"a.xml\")//a");
  ASSERT_TRUE(plan_a2.ok());
  EXPECT_EQ(plan_a2.value().get(), plan_a.value().get());

  // b.xml's plan is stale: Execute rejects it, re-Prepare recompiles.
  auto stale = processor_.Execute(plan_b.value());
  EXPECT_FALSE(stale.ok());
  auto plan_b2 = processor_.Prepare("doc(\"b.xml\")//c");
  ASSERT_TRUE(plan_b2.ok());
  EXPECT_NE(plan_b2.value().get(), plan_b.value().get());
  EXPECT_TRUE(processor_.Execute(plan_b2.value()).ok());
}

TEST_F(DeltaReloadTest, PinnedCursorDrainsOldSnapshotBitIdentically) {
  // Reference result of b.xml BEFORE the reload.
  RunOptions run;
  run.mode = Mode::kNativeWhole;
  auto reference = processor_.Run("doc(\"b.xml\")//c", run);
  ASSERT_TRUE(reference.ok());

  PrepareOptions popts;
  popts.mode = Mode::kStacked;
  auto prepared = processor_.Prepare("doc(\"b.xml\")//c", popts);
  ASSERT_TRUE(prepared.ok());
  auto cursor = processor_.Execute(prepared.value());
  ASSERT_TRUE(cursor.ok());

  // Reload under the open cursor, then drain: the cursor executes
  // against the snapshot it pinned, bit-identical to the old content.
  ASSERT_TRUE(processor_.LoadDocument("b.xml", kDocB2).ok());
  auto items = cursor.value()->FetchAll();
  ASSERT_TRUE(items.ok()) << items.status().ToString();
  EXPECT_EQ(items.value(), reference.value().items);

  // A fresh run sees the new content.
  auto fresh = processor_.Run("doc(\"b.xml\")//c", run);
  ASSERT_TRUE(fresh.ok());
  EXPECT_NE(fresh.value().items, reference.value().items);
}

TEST_F(DeltaReloadTest, AppendKeepsPriorRunsDictionariesAndPlans) {
  auto before = Materialized();
  const auto old_block = before->doc_table()->block();
  auto plan_a = processor_.Prepare("doc(\"a.xml\")//a");
  ASSERT_TRUE(plan_a.ok());

  ASSERT_TRUE(processor_.LoadDocument("d.xml", kDocD).ok());
  auto after = Materialized();
  const auto new_block = after->doc_table()->block();

  // Prior runs: same bases and row counts, in order, plus the new run.
  ASSERT_EQ(new_block->runs().size(), old_block->runs().size() + 1);
  for (size_t r = 0; r < old_block->runs().size(); ++r) {
    EXPECT_EQ(new_block->runs()[r].uri, old_block->runs()[r].uri);
    EXPECT_EQ(new_block->runs()[r].base, old_block->runs()[r].base);
    EXPECT_EQ(new_block->runs()[r].rows, old_block->runs()[r].rows);
  }
  EXPECT_EQ(new_block->runs().back().uri, "d.xml");
  EXPECT_EQ(new_block->runs().back().base, old_block->row_count());

  // d.xml's values stay inside the alphabet: the value dictionary is
  // still the SAME object. The name dictionary necessarily grows — the
  // new URI "d.xml" is a new distinct string (DOC rows carry the URI as
  // their name) — so copy-on-write clones it into a SUPERSET that
  // preserves every existing code: the prior runs' code vectors decode
  // identically without being rewritten.
  EXPECT_EQ(new_block->column(DocBlock::kValue).dict_ptr().get(),
            old_block->column(DocBlock::kValue).dict_ptr().get());
  const auto& old_names = old_block->column(DocBlock::kName).dict().strings;
  const auto& new_names = new_block->column(DocBlock::kName).dict().strings;
  ASSERT_GT(new_names.size(), old_names.size());
  for (size_t i = 0; i < old_names.size(); ++i) {
    EXPECT_EQ(new_names[i], old_names[i]) << "name code " << i;
  }

  // Plans over existing documents survive the append pointer-identically.
  auto plan_a2 = processor_.Prepare("doc(\"a.xml\")//a");
  ASSERT_TRUE(plan_a2.ok());
  EXPECT_EQ(plan_a2.value().get(), plan_a.value().get());

  // And the old snapshot still serves its own (pre-append) storage.
  EXPECT_EQ(before->doc_table()->block().get(), old_block.get());
  for (int c = 0; c < DocBlock::kNumCols; ++c) {
    EXPECT_EQ(before->relational_db()->ColumnPtr(c).get(),
              old_block->column_ptr(c).get());
  }
}

}  // namespace
}  // namespace xqjg::api
