// Deterministic XMark-like auction document generator (paper workload
// substitute; see DESIGN.md substitutions). Reproduces the schema/paths
// and value distributions the paper's queries touch: open_auction with
// bidders and increases, closed_auction with decimal prices and itemref
// foreign keys, items with incategory references, categories with names,
// people with ids.
#ifndef XQJG_DATA_XMARK_H_
#define XQJG_DATA_XMARK_H_

#include <cstdint>
#include <string>

namespace xqjg::data {

struct XmarkOptions {
  /// Size knob; 1.0 yields about 329 KB of XML and 22k nodes. The
  /// paper's instance (110 MB, 4.7M nodes) is about scale 330 by bytes,
  /// or 210 by nodes.
  double scale = 1.0;
  uint64_t seed = 42;

  int items() const { return static_cast<int>(500 * scale); }
  int open_auctions() const { return static_cast<int>(300 * scale); }
  int closed_auctions() const { return static_cast<int>(200 * scale); }
  int categories() const { return static_cast<int>(25 * scale) + 5; }
  int people() const { return static_cast<int>(150 * scale); }
};

/// Generates the auction.xml text.
std::string GenerateXmark(const XmarkOptions& options = {});

}  // namespace xqjg::data

#endif  // XQJG_DATA_XMARK_H_
