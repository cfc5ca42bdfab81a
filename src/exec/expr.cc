#include "exec/expr.h"

#include <algorithm>

namespace ccdb {

const char* CmpOpName(CmpOp op) {
  switch (op) {
    case CmpOp::kEq: return "=";
    case CmpOp::kNe: return "!=";
    case CmpOp::kLt: return "<";
    case CmpOp::kLe: return "<=";
    case CmpOp::kGt: return ">";
    case CmpOp::kGe: return ">=";
  }
  return "?";
}

CmpOp ComplementCmpOp(CmpOp op) {
  switch (op) {
    case CmpOp::kEq: return CmpOp::kNe;
    case CmpOp::kNe: return CmpOp::kEq;
    case CmpOp::kLt: return CmpOp::kGe;
    case CmpOp::kGe: return CmpOp::kLt;
    case CmpOp::kLe: return CmpOp::kGt;
    case CmpOp::kGt: return CmpOp::kLe;
  }
  return op;
}

std::string Literal::ToString() const {
  switch (type) {
    case Type::kU32: return std::to_string(u32);
    case Type::kI64: return std::to_string(i64);
    case Type::kF64: return std::to_string(f64);
    case Type::kStr: return "\"" + str + "\"";
  }
  return "?";
}

namespace {

/// Parenthesize `child` when rendered under `parent`? AND binds tighter
/// than OR; NOT children always get parens for clarity.
bool NeedsParens(const Expr& parent, const Expr& child) {
  if (child.leaf()) return false;
  if (parent.kind == Expr::Kind::kNot) return true;
  if (child.kind == Expr::Kind::kNot) return false;  // renders as NOT (...)
  return parent.kind != child.kind;  // Or under And, And under Or
}

void Render(const Expr& e, std::string* out) {
  switch (e.kind) {
    case Expr::Kind::kCmp:
      out->append(e.column).append(" ").append(CmpOpName(e.cmp)).append(" ")
          .append(e.value.ToString());
      return;
    case Expr::Kind::kBetween:
      out->append(e.column).append(e.negated ? " not in [" : " in [")
          .append(e.lo.ToString()).append(", ").append(e.hi.ToString())
          .append("]");
      return;
    case Expr::Kind::kIn: {
      out->append(e.column).append(e.negated ? " not in {" : " in {");
      if (!e.in_u32.empty()) {
        for (size_t i = 0; i < e.in_u32.size(); ++i) {
          if (i) out->append(", ");
          out->append(std::to_string(e.in_u32[i]));
        }
      } else {
        for (size_t i = 0; i < e.in_str.size(); ++i) {
          if (i) out->append(", ");
          out->append("\"").append(e.in_str[i]).append("\"");
        }
      }
      out->append("}");
      return;
    }
    case Expr::Kind::kAnd:
    case Expr::Kind::kOr: {
      const char* sep = e.kind == Expr::Kind::kAnd ? " AND " : " OR ";
      if (e.children.empty()) {
        out->append(e.kind == Expr::Kind::kAnd ? "<empty AND>" : "<empty OR>");
        return;
      }
      for (size_t i = 0; i < e.children.size(); ++i) {
        if (i) out->append(sep);
        bool parens = NeedsParens(e, e.children[i]);
        if (parens) out->append("(");
        Render(e.children[i], out);
        if (parens) out->append(")");
      }
      return;
    }
    case Expr::Kind::kNot:
      out->append("NOT (");
      if (!e.children.empty()) Render(e.children[0], out);
      out->append(")");
      return;
  }
}

}  // namespace

std::string Expr::ToString() const {
  std::string out;
  Render(*this, &out);
  return out;
}

Expr Between(Col c, uint32_t lo, uint32_t hi) {
  Expr e;
  e.kind = Expr::Kind::kBetween;
  e.column = std::move(c.name);
  e.lo = Literal::U32(lo);
  e.hi = Literal::U32(hi);
  return e;
}

Expr Between(Col c, long long lo, long long hi) {
  // Bounds inside the u32 domain build the kernel-eligible u32 range —
  // Between(c, 0LL, 50LL) must execute exactly like Between(c, 0u, 50u).
  if (lo >= 0 && hi >= 0 && lo <= (long long)UINT32_MAX &&
      hi <= (long long)UINT32_MAX) {
    return Between(std::move(c), static_cast<uint32_t>(lo),
                   static_cast<uint32_t>(hi));
  }
  Expr e;
  e.kind = Expr::Kind::kBetween;
  e.column = std::move(c.name);
  e.lo = Literal::I64(static_cast<int64_t>(lo));
  e.hi = Literal::I64(static_cast<int64_t>(hi));
  return e;
}

Expr Between(Col c, double lo, double hi) {
  Expr e;
  e.kind = Expr::Kind::kBetween;
  e.column = std::move(c.name);
  e.lo = Literal::F64(lo);
  e.hi = Literal::F64(hi);
  return e;
}

Expr InU32(Col c, std::vector<uint32_t> values) {
  Expr e;
  e.kind = Expr::Kind::kIn;
  e.column = std::move(c.name);
  e.in_u32 = std::move(values);
  return e;
}

Expr InStr(Col c, std::vector<std::string> values) {
  Expr e;
  e.kind = Expr::Kind::kIn;
  e.column = std::move(c.name);
  e.in_str = std::move(values);
  return e;
}

namespace {

Expr Combine(Expr::Kind kind, Expr a, Expr b) {
  Expr e;
  e.kind = kind;
  // Flatten same-kind children so (a && b) && c reads a AND b AND c.
  if (a.kind == kind) {
    e.children = std::move(a.children);
  } else {
    e.children.push_back(std::move(a));
  }
  if (b.kind == kind) {
    for (Expr& c : b.children) e.children.push_back(std::move(c));
  } else {
    e.children.push_back(std::move(b));
  }
  return e;
}

}  // namespace

Expr operator&&(Expr a, Expr b) {
  return Combine(Expr::Kind::kAnd, std::move(a), std::move(b));
}

Expr operator||(Expr a, Expr b) {
  return Combine(Expr::Kind::kOr, std::move(a), std::move(b));
}

Expr operator!(Expr e) {
  if (e.kind == Expr::Kind::kNot && e.children.size() == 1) {
    return std::move(e.children[0]);  // double negation
  }
  Expr n;
  n.kind = Expr::Kind::kNot;
  n.children.push_back(std::move(e));
  return n;
}

namespace {

Expr Normalize(Expr e, bool negate) {
  switch (e.kind) {
    case Expr::Kind::kNot: {
      if (e.children.size() != 1) return e;  // invalid; Build() reports it
      return Normalize(std::move(e.children[0]), !negate);
    }
    case Expr::Kind::kAnd:
    case Expr::Kind::kOr: {
      Expr out;
      // De Morgan: a negated And becomes an Or of negated children.
      bool is_and = (e.kind == Expr::Kind::kAnd) != negate;
      out.kind = is_and ? Expr::Kind::kAnd : Expr::Kind::kOr;
      for (Expr& c : e.children) {
        Expr n = Normalize(std::move(c), negate);
        if (n.kind == out.kind) {
          for (Expr& gc : n.children) out.children.push_back(std::move(gc));
        } else {
          out.children.push_back(std::move(n));
        }
      }
      if (out.children.size() == 1) return std::move(out.children[0]);
      return out;
    }
    case Expr::Kind::kCmp:
      if (negate) e.cmp = ComplementCmpOp(e.cmp);
      return e;
    case Expr::Kind::kBetween:
      if (negate) e.negated = !e.negated;
      return e;
    case Expr::Kind::kIn:
      if (negate) e.negated = !e.negated;
      std::sort(e.in_u32.begin(), e.in_u32.end());
      e.in_u32.erase(std::unique(e.in_u32.begin(), e.in_u32.end()),
                     e.in_u32.end());
      std::sort(e.in_str.begin(), e.in_str.end());
      e.in_str.erase(std::unique(e.in_str.begin(), e.in_str.end()),
                     e.in_str.end());
      return e;
  }
  return e;
}

}  // namespace

Expr NormalizeExpr(Expr e) { return Normalize(std::move(e), false); }

int ConjunctRank(const Expr& e) {
  switch (e.kind) {
    case Expr::Kind::kCmp:
      if (e.value.type == Literal::Type::kStr) return 2;
      return e.cmp == CmpOp::kEq ? 0 : 1;
    case Expr::Kind::kBetween:
      return 1;
    case Expr::Kind::kIn:
      return e.in_str.empty() ? 1 : 2;
    default:
      return 3;
  }
}

const char* ConjunctRankName(int rank) {
  switch (rank) {
    case 0: return "eq";
    case 1: return "range";
    case 2: return "str-eq";
    default: return "composite";
  }
}

Expr OrderConjunctsBySelectivity(Expr e) {
  for (Expr& c : e.children) c = OrderConjunctsBySelectivity(std::move(c));
  if (e.kind == Expr::Kind::kAnd) {
    std::stable_sort(e.children.begin(), e.children.end(),
                     [](const Expr& a, const Expr& b) {
                       return ConjunctRank(a) < ConjunctRank(b);
                     });
  }
  return e;
}

}  // namespace ccdb
