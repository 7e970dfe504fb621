#include "src/algebra/predicate.h"

#include "src/common/str.h"

namespace xqjg::algebra {

const char* CmpOpToString(CmpOp op) {
  switch (op) {
    case CmpOp::kEq:
      return "=";
    case CmpOp::kNe:
      return "!=";
    case CmpOp::kLt:
      return "<";
    case CmpOp::kLe:
      return "<=";
    case CmpOp::kGt:
      return ">";
    case CmpOp::kGe:
      return ">=";
  }
  return "?";
}

CmpOp FlipCmpOp(CmpOp op) {
  switch (op) {
    case CmpOp::kLt:
      return CmpOp::kGt;
    case CmpOp::kLe:
      return CmpOp::kGe;
    case CmpOp::kGt:
      return CmpOp::kLt;
    case CmpOp::kGe:
      return CmpOp::kLe;
    default:
      return op;
  }
}

bool CompareValues(const Value& lhs, CmpOp op, const Value& rhs) {
  int c = lhs.Compare(rhs);
  if (c == Value::kNullCmp) return false;
  switch (op) {
    case CmpOp::kEq:
      return c == 0;
    case CmpOp::kNe:
      return c != 0;
    case CmpOp::kLt:
      return c < 0;
    case CmpOp::kLe:
      return c <= 0;
    case CmpOp::kGt:
      return c > 0;
    case CmpOp::kGe:
      return c >= 0;
  }
  return false;
}

void Term::CollectCols(std::set<std::string>* out) const {
  if (!col.empty()) out->insert(col);
  if (!col2.empty()) out->insert(col2);
}

bool Term::RenameCols(
    const std::vector<std::pair<std::string, std::string>>& out_to_in) {
  auto map_one = [&](std::string* c) {
    if (c->empty()) return true;
    for (const auto& [out_name, in_name] : out_to_in) {
      if (*c == out_name) {
        *c = in_name;
        return true;
      }
    }
    return false;
  };
  return map_one(&col) && map_one(&col2);
}

// Built with appends (not operator+) throughout: GCC 12's -Wrestrict
// reports false positives on `"literal" + std::string&&` chains.
void AppendTermTail(std::string* out, int param,
                    const std::string& param_name, const Value& constant) {
  if (param >= 0) {
    if (!out->empty()) *out += " + ";
    *out += '$';
    *out += param_name;
  }
  if (!constant.is_null()) {
    if (!out->empty()) {
      *out += " + ";
      *out += constant.ToString();
    } else if (constant.type() == ValueType::kString) {
      *out += '\'';
      *out += constant.ToString();
      *out += '\'';
    } else {
      *out = constant.ToString();
    }
  }
}

std::string Term::ToString() const {
  std::string out;
  if (!col.empty()) out = col;
  if (!col2.empty()) out += " + " + col2;
  AppendTermTail(&out, param, param_name, constant);
  return out.empty() ? "0" : out;
}

bool Term::operator==(const Term& other) const {
  return col == other.col && col2 == other.col2 && param == other.param &&
         constant == other.constant &&
         constant.is_null() == other.constant.is_null();
}

void Comparison::CollectCols(std::set<std::string>* out) const {
  lhs.CollectCols(out);
  rhs.CollectCols(out);
}

std::string Comparison::ToString() const {
  return lhs.ToString() + " " + CmpOpToString(op) + " " + rhs.ToString();
}

bool Comparison::operator==(const Comparison& other) const {
  return op == other.op && lhs == other.lhs && rhs == other.rhs;
}

std::set<std::string> Predicate::Cols() const {
  std::set<std::string> out;
  for (const auto& c : conjuncts) c.CollectCols(&out);
  return out;
}

std::string Predicate::ToString() const {
  if (conjuncts.empty()) return "true";
  std::vector<std::string> parts;
  parts.reserve(conjuncts.size());
  for (const auto& c : conjuncts) parts.push_back(c.ToString());
  return Join(parts, " AND ");
}

}  // namespace xqjg::algebra
