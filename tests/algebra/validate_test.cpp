// Negative tests for the static plan verifier (src/algebra/validate.h).
//
// Each test hand-corrupts a well-formed DAG — the Make* constructors
// refuse to build broken plans, so corruption happens by mutating the
// public Op fields after construction — and asserts that ValidatePlan
// reports the specific invariant class the corruption violates. This
// pins the verifier's diagnostic vocabulary: a refactor that stops
// detecting one of these breakages fails here, not three stages later
// in a differential fuzz run.
#include "src/algebra/validate.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/algebra/operators.h"
#include "src/algebra/predicate.h"

namespace xqjg::algebra {
namespace {

using ::testing::AssertionFailure;
using ::testing::AssertionResult;
using ::testing::AssertionSuccess;

/// A small well-formed plan: serialize(rank(select(doc))) with the rank
/// attaching a pos column ordered by pre.
OpPtr WellFormedPlan() {
  OpPtr doc = MakeDocTable();
  OpPtr sel = MakeSelect(
      doc, Predicate::Single(Term::Col("kind"), CmpOp::kEq,
                             Term::Const(Value::Int(1))));
  OpPtr rank = MakeRank(sel, "pos", {"pre"});
  return MakeSerialize(rank, "pos", "pre");
}

/// True iff some reported error carries `invariant`; on failure, lists
/// what was reported instead.
AssertionResult Reports(const std::vector<ValidationError>& errors,
                        const std::string& invariant) {
  for (const ValidationError& err : errors) {
    if (err.invariant == invariant) return AssertionSuccess();
  }
  auto failure = AssertionFailure()
                 << "no error with invariant '" << invariant << "'; got "
                 << errors.size() << " error(s)";
  for (const ValidationError& err : errors) {
    failure << "\n  " << err.ToString();
  }
  return failure;
}

const ValidationError* FindError(const std::vector<ValidationError>& errors,
                                 const std::string& invariant) {
  for (const ValidationError& err : errors) {
    if (err.invariant == invariant) return &err;
  }
  return nullptr;
}

/// Clears a deliberately closed back edge when the test scope ends, on
/// every exit path (ASSERT_* returns early): the cycle's shared_ptrs
/// would otherwise keep each other alive past the test.
class BackEdgeGuard {
 public:
  explicit BackEdgeGuard(OpPtr* edge) : edge_(edge) {}
  ~BackEdgeGuard() { edge_->reset(); }
  BackEdgeGuard(const BackEdgeGuard&) = delete;
  BackEdgeGuard& operator=(const BackEdgeGuard&) = delete;

 private:
  OpPtr* edge_;
};

TEST(ValidateTest, WellFormedPlanHasNoErrors) {
  auto errors = ValidatePlan(WellFormedPlan(), "test");
  EXPECT_TRUE(errors.empty())
      << (errors.empty() ? "" : errors.front().ToString());
}

TEST(ValidateTest, NullRootIsDagStructure) {
  auto errors = ValidatePlan(nullptr, "test");
  ASSERT_TRUE(Reports(errors, "dag-structure"));
  EXPECT_EQ(errors.front().op_id, -1);
}

// --- acyclic ---------------------------------------------------------

TEST(ValidateTest, CyclicShareIsRejected) {
  OpPtr root = WellFormedPlan();
  // Close a cycle: the select (two levels down) gets the rank node (its
  // parent) as its child. shared_ptr keeps both alive; a traversal that
  // does not track the stack would recurse forever.
  OpPtr rank = root->children[0];
  OpPtr sel = rank->children[0];
  sel->children[0] = rank;
  BackEdgeGuard guard(&sel->children[0]);
  auto errors = ValidatePlan(root, "test");
  ASSERT_TRUE(Reports(errors, "acyclic"));
  // The diagnostic names the edge that closes the cycle.
  EXPECT_NE(FindError(errors, "acyclic")->detail.find("closes a cycle"),
            std::string::npos);
}

TEST(ValidateTest, DiamondShareIsNotACycle) {
  // Sharing without a back edge is legal (the doc table leaf is shared
  // by design): cross(select(doc), project(doc)).
  OpPtr doc = MakeDocTable();
  OpPtr left = MakeProject(doc, {{"l_pre", "pre"}});
  OpPtr right = MakeProject(doc, {{"r_pre", "pre"}});
  OpPtr cross = MakeCross(left, right);
  ValidateOptions opts;
  opts.expect_serialize_root = false;
  auto errors = ValidatePlan(cross, "test", opts);
  EXPECT_TRUE(errors.empty())
      << (errors.empty() ? "" : errors.front().ToString());
}

// --- dag-structure ---------------------------------------------------

TEST(ValidateTest, WrongArityIsDagStructure) {
  OpPtr root = WellFormedPlan();
  OpPtr rank = root->children[0];
  rank->children.clear();  // rank is unary
  auto errors = ValidatePlan(root, "test");
  EXPECT_TRUE(Reports(errors, "dag-structure"));
}

TEST(ValidateTest, NullChildIsDagStructure) {
  OpPtr root = WellFormedPlan();
  root->children[0]->children[0] = nullptr;
  auto errors = ValidatePlan(root, "test");
  ASSERT_TRUE(Reports(errors, "dag-structure"));
  EXPECT_NE(FindError(errors, "dag-structure")->detail.find("null child"),
            std::string::npos);
}

TEST(ValidateTest, SerializeBelowRootIsDagStructure) {
  OpPtr inner = WellFormedPlan();  // serialize root
  OpPtr outer = MakeDistinct(inner);
  ValidateOptions opts;
  opts.expect_serialize_root = false;
  auto errors = ValidatePlan(outer, "test", opts);
  ASSERT_TRUE(Reports(errors, "dag-structure"));
  EXPECT_NE(
      FindError(errors, "dag-structure")->detail.find("serialize below"),
      std::string::npos);
}

TEST(ValidateTest, NonSerializeRootFlaggedWhenExpected) {
  OpPtr doc = MakeDocTable();
  auto errors = ValidatePlan(doc, "test");  // default expects serialize
  EXPECT_TRUE(Reports(errors, "dag-structure"));
}

// --- column-ref ------------------------------------------------------

TEST(ValidateTest, DanglingPredicateColumnIsColumnRef) {
  OpPtr root = WellFormedPlan();
  OpPtr sel = root->children[0]->children[0];
  // Point the select's predicate at a column no child produces — the
  // classic broken-rewrite shape (rename pushed past a use).
  sel->pred.conjuncts[0].lhs = Term::Col("no_such_col");
  auto errors = ValidatePlan(root, "test");
  ASSERT_TRUE(Reports(errors, "column-ref"));
  EXPECT_NE(FindError(errors, "column-ref")->detail.find("no_such_col"),
            std::string::npos);
}

TEST(ValidateTest, DanglingRankOrderIsColumnRef) {
  OpPtr root = WellFormedPlan();
  OpPtr rank = root->children[0];
  rank->order = {"vanished"};
  auto errors = ValidatePlan(root, "test");
  EXPECT_TRUE(Reports(errors, "column-ref"));
}

TEST(ValidateTest, DanglingSerializeItemIsColumnRef) {
  OpPtr root = WellFormedPlan();
  root->col = "gone";  // serialize item column
  auto errors = ValidatePlan(root, "test");
  EXPECT_TRUE(Reports(errors, "column-ref"));
}

TEST(ValidateTest, DanglingProjectionInputIsColumnRef) {
  OpPtr doc = MakeDocTable();
  OpPtr proj = MakeProject(doc, {{"out", "pre"}});
  proj->proj[0].second = "missing";
  ValidateOptions opts;
  opts.expect_serialize_root = false;
  auto errors = ValidatePlan(proj, "test", opts);
  EXPECT_TRUE(Reports(errors, "column-ref"));
}

// --- schema-unique ---------------------------------------------------

TEST(ValidateTest, DuplicateSchemaColumnIsSchemaUnique) {
  OpPtr doc = MakeDocTable();
  OpPtr proj = MakeProject(doc, {{"a", "pre"}, {"b", "size"}});
  proj->proj[1].first = "a";  // two outputs named 'a'
  proj->schema = {"a", "a"};
  ValidateOptions opts;
  opts.expect_serialize_root = false;
  auto errors = ValidatePlan(proj, "test", opts);
  EXPECT_TRUE(Reports(errors, "schema-unique"));
}

TEST(ValidateTest, OverlappingJoinInputsAreSchemaUnique) {
  // A rewrite renamed the right input's column onto the left's name:
  // the column now has two producers, so the join output is ambiguous.
  OpPtr doc = MakeDocTable();
  OpPtr left = MakeProject(doc, {{"l_pre", "pre"}});
  OpPtr right = MakeProject(doc, {{"r_pre", "pre"}});
  OpPtr cross = MakeCross(left, right);
  right->proj = {{"l_pre", "pre"}};
  right->schema = {"l_pre"};
  ValidateOptions opts;
  opts.expect_serialize_root = false;
  auto errors = ValidatePlan(cross, "test", opts);
  EXPECT_TRUE(Reports(errors, "schema-unique"));
}

// --- schema-arith ----------------------------------------------------

TEST(ValidateTest, StaleSchemaIsSchemaArith) {
  OpPtr root = WellFormedPlan();
  OpPtr sel = root->children[0]->children[0];
  // A rewrite renamed the child's outputs but forgot to refresh this
  // node's stored schema.
  sel->schema.push_back("stale_extra");
  auto errors = ValidatePlan(root, "test");
  ASSERT_TRUE(Reports(errors, "schema-arith"));
  EXPECT_NE(FindError(errors, "schema-arith")->detail.find("stale_extra"),
            std::string::npos);
}

TEST(ValidateTest, AttachedColumnCollisionIsSchemaArith) {
  OpPtr doc = MakeDocTable();
  OpPtr attach = MakeAttach(doc, "mark", Value::Int(7));
  attach->col = "pre";  // collides with an input column
  attach->schema = doc->schema;
  ValidateOptions opts;
  opts.expect_serialize_root = false;
  auto errors = ValidatePlan(attach, "test", opts);
  EXPECT_TRUE(Reports(errors, "schema-arith"));
}

// --- literal-shape ---------------------------------------------------

TEST(ValidateTest, RaggedLiteralRowIsLiteralShape) {
  OpPtr lit = MakeLiteral({"iter", "item"},
                          {{Value::Int(1), Value::Int(10)}});
  lit->rows.push_back({Value::Int(2)});  // 1 cell, 2-column schema
  ValidateOptions opts;
  opts.expect_serialize_root = false;
  auto errors = ValidatePlan(lit, "test", opts);
  ASSERT_TRUE(Reports(errors, "literal-shape"));
  EXPECT_NE(FindError(errors, "literal-shape")->detail.find("1 cells"),
            std::string::npos);
}

// --- param-slot ------------------------------------------------------

TEST(ValidateTest, UnboundParamSlotIsParamSlot) {
  OpPtr doc = MakeDocTable();
  OpPtr sel = MakeSelect(
      doc, Predicate::Single(Term::Col("value"), CmpOp::kEq,
                             Term::Param(3, "x")));
  ValidateOptions opts;
  opts.expect_serialize_root = false;
  opts.num_params = 1;  // slot 3 is out of range
  auto errors = ValidatePlan(sel, "test", opts);
  ASSERT_TRUE(Reports(errors, "param-slot"));
  EXPECT_NE(FindError(errors, "param-slot")->detail.find("slot 3"),
            std::string::npos);
}

TEST(ValidateTest, NamelessParamMarkerIsParamSlot) {
  OpPtr doc = MakeDocTable();
  OpPtr sel = MakeSelect(
      doc, Predicate::Single(Term::Col("value"), CmpOp::kEq,
                             Term::Param(0, "x")));
  sel->pred.conjuncts[0].rhs.param_name.clear();
  ValidateOptions opts;
  opts.expect_serialize_root = false;
  auto errors = ValidatePlan(sel, "test", opts);
  EXPECT_TRUE(Reports(errors, "param-slot"));
}

TEST(ValidateTest, ParamsUnknownSkipsUpperBoundCheck) {
  OpPtr doc = MakeDocTable();
  OpPtr sel = MakeSelect(
      doc, Predicate::Single(Term::Col("value"), CmpOp::kEq,
                             Term::Param(3, "x")));
  ValidateOptions opts;
  opts.expect_serialize_root = false;
  opts.num_params = kParamsUnknown;  // mid-rewrite: count out of scope
  auto errors = ValidatePlan(sel, "test", opts);
  EXPECT_TRUE(errors.empty())
      << (errors.empty() ? "" : errors.front().ToString());
}

// --- diagnostics -----------------------------------------------------

TEST(ValidateTest, ErrorNamesStageOperatorAndInvariant) {
  OpPtr root = WellFormedPlan();
  root->children[0]->children[0]->pred.conjuncts[0].lhs =
      Term::Col("no_such_col");
  Status st = Validate(root, "isolate");
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("[stage=isolate]"), std::string::npos);
  EXPECT_NE(st.ToString().find("[invariant=column-ref]"),
            std::string::npos);
  EXPECT_NE(st.ToString().find("plan excerpt:"), std::string::npos);
}

TEST(ValidateTest, CycleExcerptTerminates) {
  // The excerpt printer must not recurse forever on the very plans the
  // acyclic check exists for.
  OpPtr root = WellFormedPlan();
  OpPtr rank = root->children[0];
  rank->children[0]->children[0] = rank;
  BackEdgeGuard guard(&rank->children[0]->children[0]);
  auto errors = ValidatePlan(root, "test");
  ASSERT_TRUE(Reports(errors, "acyclic"));
  EXPECT_LT(FindError(errors, "acyclic")->excerpt.size(), 4096u);
}

}  // namespace
}  // namespace xqjg::algebra
