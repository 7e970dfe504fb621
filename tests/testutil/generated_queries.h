// The generated XMark query family: every axis family, predicates,
// nested FLWOR and empty results over "auction.xml". The differential
// suite runs each on every executor; the rewriter suite checks its
// incremental properties on each.
#ifndef XQJG_TESTS_TESTUTIL_GENERATED_QUERIES_H_
#define XQJG_TESTS_TESTUTIL_GENERATED_QUERIES_H_

#include <vector>

namespace xqjg::testutil {

inline const std::vector<const char*>& GeneratedQueries() {
  static const std::vector<const char*> kQueries = {
      // single steps, each axis family
      "doc(\"auction.xml\")/child::site",
      "doc(\"auction.xml\")//open_auction",
      "doc(\"auction.xml\")//bidder/child::increase",
      "doc(\"auction.xml\")//increase/parent::bidder",
      "doc(\"auction.xml\")//bidder/ancestor::open_auction",
      "doc(\"auction.xml\")//category/ancestor-or-self::*",
      "doc(\"auction.xml\")//person/@id",
      "doc(\"auction.xml\")//people/child::node()",
      "doc(\"auction.xml\")//categories/preceding-sibling::regions",
      "doc(\"auction.xml\")//regions/following-sibling::*",
      "doc(\"auction.xml\")//name/text()",
      "doc(\"auction.xml\")//category/self::category/name",
      // predicates: existence, value, attribute, conjunction
      "doc(\"auction.xml\")//open_auction[bidder]",
      "doc(\"auction.xml\")//closed_auction[price > 100]/price",
      "doc(\"auction.xml\")//person[@id = \"person3\"]/name",
      "doc(\"auction.xml\")//item[incategory and quantity]/name",
      "doc(\"auction.xml\")//open_auction[bidder/increase > 30]",
      // two upper bounds on one key column, the inclusive one tighter
      "doc(\"auction.xml\")//quantity[. <= 2 and . < 4]",
      // nested FLWOR / let / where
      "for $a in doc(\"auction.xml\")//open_auction "
      "return $a/bidder/time",
      "let $d := doc(\"auction.xml\") for $p in $d//person "
      "return if ($p/phone) then $p/name else ()",
      "for $a in doc(\"auction.xml\")//open_auction "
      "where $a/initial > 100 return $a/itemref",
      "for $c in doc(\"auction.xml\")//category "
      "for $i in doc(\"auction.xml\")//item "
      "where $i/incategory/@category = $c/@id return $c/name",
      // reverse-axis heavy
      "doc(\"auction.xml\")//increase/ancestor::site",
      "doc(\"auction.xml\")//time/preceding::initial",
      // empty results
      "doc(\"auction.xml\")//nosuchtag",
      "doc(\"auction.xml\")//person[@id = \"nobody\"]",
  };
  return kQueries;
}

}  // namespace xqjg::testutil

#endif  // XQJG_TESTS_TESTUTIL_GENERATED_QUERIES_H_
