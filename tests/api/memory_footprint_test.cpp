// Memory-footprint regression for the shared document block: after
// forcing every RELATIONAL lane of one corpus — the DocTable view, the
// engine::Database storage, and a stacked and a join-graph execution — the
// bytes retained across all of them must stay within ~1.15× of ONE
// shared block (pre-refactor, each lane materialized its own typed copy:
// ~3×). The native stores stay lazy when never queried natively, so
// they retain no tree at all.
#include <gtest/gtest.h>

#include <string>

#include "src/api/paper_queries.h"
#include "src/api/processor.h"
#include "src/data/xmark.h"
#include "src/xml/doc_block.h"

namespace xqjg::api {
namespace {

TEST(MemoryFootprint, CorpusIsStoredOnceAcrossRelationalLanes) {
  data::XmarkOptions xmark;
  xmark.scale = 0.05;  // ~2.5k nodes: big enough to dominate overheads
  XQueryProcessor processor;
  ASSERT_TRUE(processor
                  .LoadDocument("auction.xml", data::GenerateXmark(xmark),
                                XmarkSegmentTags())
                  .ok());

  // Force every relational lane: the DocTable view and the database
  // (B-trees included), then one join-graph and one stacked execution
  // (whose doc-relation batches view the same block).
  ASSERT_TRUE(processor.CreateRelationalIndexes().ok());
  RunOptions joingraph;
  joingraph.mode = Mode::kJoinGraph;
  joingraph.context_document = "auction.xml";
  ASSERT_TRUE(processor.Run("/site/people/person", joingraph).ok());
  RunOptions stacked;
  stacked.mode = Mode::kStacked;
  stacked.context_document = "auction.xml";
  ASSERT_TRUE(processor.Run("/site/people/person", stacked).ok());

  auto snap = processor.snapshot();
  const auto block = snap->doc_table()->block();
  ASSERT_TRUE(block != nullptr);
  const int64_t shared_block = block->ApproxBytes();
  ASSERT_GT(shared_block, 0);

  // The accounting hook dedups columns and dictionaries by pointer, so
  // N lanes viewing one block cost one block.
  const int64_t retained = snap->RetainedStorageBytes();
  EXPECT_LE(retained, shared_block + shared_block * 15 / 100)
      << "retained " << retained << " bytes vs shared block "
      << shared_block << " — a lane is holding its own copy";
  EXPECT_GE(retained, shared_block);  // the block itself is retained

  // Pointer-level proof, not just byte accounting: the database adopted
  // the block's columns.
  const auto db = snap->relational_db();
  for (int c = 0; c < xml::DocBlock::kNumCols; ++c) {
    EXPECT_EQ(db->ColumnPtr(c).get(), block->column_ptr(c).get())
        << "engine column " << c;
  }

  // Purely relational workloads never build the native trees.
  EXPECT_EQ(snap->whole_store->RetainedBytes(), 0);
  EXPECT_EQ(snap->segmented_store->RetainedBytes(), 0);

  // A native execution materializes the whole-document DOM — a genuine
  // second representation — and the accounting reports the increase.
  RunOptions native;
  native.mode = Mode::kNativeWhole;
  native.context_document = "auction.xml";
  ASSERT_TRUE(processor.Run("/site/people/person", native).ok());
  EXPECT_GT(snap->whole_store->RetainedBytes(), 0);
  EXPECT_GT(snap->RetainedStorageBytes(), retained);
}

}  // namespace
}  // namespace xqjg::api
