#include <cstdio>
#include "src/algebra/printer.h"
#include "src/algebra/dag.h"
#include "src/compiler/compile.h"
#include "src/opt/rules.h"
#include "src/opt/properties.h"
#include "src/xquery/normalize.h"
#include "src/xquery/parser.h"
using namespace xqjg;
int main(int argc, char** argv) {
  const char* q = argc > 1 ? argv[1] :
    "for $x in doc(\"auction.xml\")/descendant::open_auction "
    "return if ($x/child::bidder) then $x else ()";
  auto ast = xquery::Parse(q);
  auto core = xquery::Normalize(ast.value());
  auto plan = compiler::CompileQuery(core.value());
  opt::Rewriter rw(plan.value());
  rw.Run();
  auto props = opt::PropertyMap::Infer(rw.root());
  for (auto* op : algebra::TopoOrder(rw.root())) {
    const auto& p = props.Get(op);
    std::string icols, keys;
    for (auto& c : p.IcolNames()) icols += c + ",";
    for (auto& k : p.KeyNames()) { keys += "{"; for (auto& c : k) keys += c + ","; keys += "}"; }
    printf("[%d] %s | icols=%s set=%d keys=%s\n", op->id, op->Describe().c_str(),
           icols.c_str(), (int)p.dedup_upstream, keys.c_str());
  }
  return 0;
}
