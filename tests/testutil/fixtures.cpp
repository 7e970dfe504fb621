#include "tests/testutil/fixtures.h"

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "src/compiler/compile.h"
#include "src/xml/parser.h"
#include "src/xquery/normalize.h"
#include "src/xquery/parser.h"

namespace xqjg {

void PrintTo(const Value& value, std::ostream* os) { *os << value.ToString(); }

}  // namespace xqjg

namespace xqjg::testutil {

const char* TinyBibXml() {
  return R"(<bib>
  <book year="1994">
    <title>TCP/IP Illustrated</title>
    <author>Stevens</author>
    <price>65.95</price>
  </book>
  <book year="2000">
    <title>Data on the Web</title>
    <author>Abiteboul</author>
    <author>Buneman</author>
    <price>39.95</price>
  </book>
</bib>)";
}

const char* TinySiteXml() {
  return R"(<site>
  <regions>
    <europe>
      <item id="i1"><name>clock</name><price>12.5</price></item>
      <item id="i2"><name>vase</name><price>7.0</price></item>
    </europe>
    <asia>
      <item id="i3"><name>lamp</name><price>30.0</price></item>
    </asia>
  </regions>
  <people>
    <person id="p1"><name>Ada</name></person>
    <person id="p2"><name>Grace</name></person>
  </people>
</site>)";
}

std::string RandomXml(uint64_t seed, int target_nodes) {
  // splitmix64 — fully deterministic across platforms.
  uint64_t state = seed + 0x9e3779b97f4a7c15ULL;
  auto next = [&state](uint64_t bound) {
    state += 0x9e3779b97f4a7c15ULL;
    uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z = z ^ (z >> 31);
    return z % bound;
  };
  static const char* kTags[] = {"a", "b", "c", "d"};
  int budget = target_nodes;
  int next_id = 0;
  std::string out = "<r>";
  // Iterative depth-first construction with an explicit stack of open tags.
  std::vector<std::string> open;
  int depth = 0;
  while (budget > 0) {
    if (depth > 0 && (depth >= 5 || next(3) == 0)) {
      out += "</" + open.back() + ">";
      open.pop_back();
      --depth;
      continue;
    }
    const std::string tag = kTags[next(4)];
    --budget;
    out += "<" + tag;
    if (next(3) == 0) {
      out += " id=\"n" + std::to_string(next_id++) + "\"";
    }
    if (next(4) == 0 && next_id > 0) {
      out += " ref=\"n" + std::to_string(next(static_cast<uint64_t>(next_id))) +
             "\"";
    }
    if (next(2) == 0) {
      // Leaf with a numeric value.
      out += ">" + std::to_string(next(50)) + "</" + tag + ">";
    } else {
      out += ">";
      open.push_back(tag);
      ++depth;
    }
  }
  while (!open.empty()) {
    out += "</" + open.back() + ">";
    open.pop_back();
  }
  out += "</r>";
  return out;
}

xml::DocTable LoadDoc(const std::string& uri, const std::string& xml) {
  xml::DocTable table;
  Status st = xml::LoadDocument(&table, uri, xml);
  if (!st.ok()) {
    std::fprintf(stderr, "fixture document %s failed to parse: %s\n",
                 uri.c_str(), st.ToString().c_str());
    std::abort();
  }
  return table;
}

Result<algebra::OpPtr> CompileToPlan(const std::string& query,
                                     const std::string& context_document) {
  XQJG_ASSIGN_OR_RETURN(xquery::ExprPtr ast, xquery::Parse(query));
  xquery::NormalizeOptions norm;
  norm.context_document = context_document;
  XQJG_ASSIGN_OR_RETURN(xquery::ExprPtr core, xquery::Normalize(ast, norm));
  return compiler::CompileQuery(core);
}

Result<std::vector<int64_t>> Drain(
    Result<std::unique_ptr<engine::SequenceStream>> stream) {
  XQJG_RETURN_NOT_OK(stream.status());
  constexpr size_t kBatch = 4096;
  std::vector<int64_t> out;
  for (;;) {
    const size_t before = out.size();
    XQJG_RETURN_NOT_OK(stream.value()->Next(kBatch, &out));
    if (out.size() - before < kBatch) return out;
  }
}

std::vector<std::vector<Value>> Rows(
    const engine::columnar::ColumnBatch& batch) {
  std::vector<std::vector<Value>> rows(batch.num_rows);
  for (size_t r = 0; r < batch.num_rows; ++r) {
    rows[r].reserve(batch.cols.size());
    for (const engine::columnar::ColumnRef& col : batch.cols) {
      rows[r].push_back(col->GetValue(batch.PhysRow(r)));
    }
  }
  return rows;
}

}  // namespace xqjg::testutil
