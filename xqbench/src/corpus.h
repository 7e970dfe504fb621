// The benchmark corpus and its set-up.
//
// The corpus is XMark scale 1 (auction.xml), DBLP with 4000
// publications (dblp.xml), and four side documents doc_0.xml ..
// doc_3.xml at XMark scale 0.1, all from fixed generator seeds: Q2's
// cost alone moves by 2x between XMark seeds, so a per-run corpus would
// swamp every comparison. The run's seed drives the request lists and
// the content of every write. A set-up goes
// from an empty processor to every document loaded, the Table VI
// relational indexes and the native pattern indexes built; a write
// reloads one side document from a fresh seed (same scale, so the
// corpus keeps its size) and re-creates the relational indexes.
#ifndef XQBENCH_CORPUS_H_
#define XQBENCH_CORPUS_H_

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/api/processor.h"
#include "src/common/status.h"

namespace xqbench {

inline constexpr int kSideDocs = 4;

struct CorpusDoc {
  std::string uri;
  std::string text;
  const std::set<std::string>* segment_tags = nullptr;
};

struct Corpus {
  std::vector<CorpusDoc> docs;
  int64_t xml_bytes() const;
};

Corpus GenerateCorpus();

/// Side document `side`: version 0 is the initial corpus; version v > 0
/// is the content of the v-th write of a run with seed `seed`.
CorpusDoc SideDocument(uint64_t seed, int side, uint64_t version);

/// Per-phase wall times of one set-up, in seconds.
struct SetupTimes {
  double total = 0.0;        ///< the whole set-up (what setup_s reports)
  double load = 0.0;         ///< XQueryProcessor::LoadDocument, all docs
  double index_build = 0.0;  ///< CreateRelationalIndexes
};

/// One fresh set-up into a new processor.
xqjg::Result<std::unique_ptr<xqjg::api::XQueryProcessor>> SetUp(
    const Corpus& corpus, SetupTimes* times);

/// Parses every corpus document with xml::LoadDocument into a scratch
/// table (the parser alone, no catalog); returns seconds.
xqjg::Result<double> ParseOnly(const Corpus& corpus);

/// Reloads `doc` (a side document) and re-creates the relational
/// indexes; returns the seconds both took.
xqjg::Result<double> Write(xqjg::api::XQueryProcessor& processor,
                           const CorpusDoc& doc);

}  // namespace xqbench

#endif  // XQBENCH_CORPUS_H_
