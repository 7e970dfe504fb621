#include "corpus.h"

#include "src/api/paper_queries.h"
#include "src/data/dblp.h"
#include "src/data/xmark.h"
#include "src/xml/infoset.h"
#include "src/xml/parser.h"
#include "util.h"

namespace xqbench {

using xqjg::Result;
using xqjg::api::XQueryProcessor;

namespace {

constexpr double kMainScale = 1.0;
constexpr double kSideScale = 0.1;
constexpr int kDblpPublications = 4000;

}  // namespace

int64_t Corpus::xml_bytes() const {
  int64_t bytes = 0;
  for (const CorpusDoc& doc : docs) {
    bytes += static_cast<int64_t>(doc.text.size());
  }
  return bytes;
}

CorpusDoc SideDocument(uint64_t seed, int side, uint64_t version) {
  xqjg::data::XmarkOptions options;
  options.scale = kSideScale;
  // Version 0 is the initial corpus, the same for every run seed.
  options.seed = (version == 0 ? 0 : seed * 1000003 + version * 104729) +
                 static_cast<uint64_t>(side) * 7919 + 11;
  return {"doc_" + std::to_string(side) + ".xml",
          xqjg::data::GenerateXmark(options), &xqjg::api::XmarkSegmentTags()};
}

Corpus GenerateCorpus() {
  Corpus corpus;
  xqjg::data::XmarkOptions auction;  // the generator's default seed
  auction.scale = kMainScale;
  corpus.docs.push_back({"auction.xml", xqjg::data::GenerateXmark(auction),
                         &xqjg::api::XmarkSegmentTags()});
  xqjg::data::DblpOptions dblp;  // the generator's default seed
  dblp.publications = kDblpPublications;
  corpus.docs.push_back({"dblp.xml", xqjg::data::GenerateDblp(dblp),
                         &xqjg::api::DblpSegmentTags()});
  for (int side = 0; side < kSideDocs; ++side) {
    corpus.docs.push_back(SideDocument(0, side, 0));
  }
  return corpus;
}

Result<std::unique_ptr<XQueryProcessor>> SetUp(const Corpus& corpus,
                                               SetupTimes* times) {
  const double start = Now();
  auto processor = std::make_unique<XQueryProcessor>();
  for (const CorpusDoc& doc : corpus.docs) {
    XQJG_RETURN_NOT_OK(
        processor->LoadDocument(doc.uri, doc.text, *doc.segment_tags));
  }
  const double loaded = Now();
  XQJG_RETURN_NOT_OK(processor->CreateRelationalIndexes());
  const double indexed = Now();
  for (auto& pattern : xqjg::api::PaperPatternIndexes()) {
    processor->CreatePatternIndex(std::move(pattern));
  }
  times->load = loaded - start;
  times->index_build = indexed - loaded;
  times->total = Now() - start;
  return processor;
}

Result<double> ParseOnly(const Corpus& corpus) {
  const double start = Now();
  xqjg::xml::DocTable scratch;
  for (const CorpusDoc& doc : corpus.docs) {
    XQJG_RETURN_NOT_OK(xqjg::xml::LoadDocument(&scratch, doc.uri, doc.text));
  }
  return Now() - start;
}

Result<double> Write(XQueryProcessor& processor, const CorpusDoc& doc) {
  const double start = Now();
  XQJG_RETURN_NOT_OK(
      processor.LoadDocument(doc.uri, doc.text, *doc.segment_tags));
  XQJG_RETURN_NOT_OK(processor.CreateRelationalIndexes());
  return Now() - start;
}

}  // namespace xqbench
