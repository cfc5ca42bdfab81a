// Typed, composable filter expressions — the predicate surface of the
// query API. An Expr is a tree of leaf comparisons (column vs typed
// literal: Eq/Ne/Lt/Le/Gt/Ge, Between, InU32/InStr) combined with
// And/Or/Not, built via fluent helpers:
//
//   Filter(Col("qty") >= 2u && (Col("shipmode") == "MAIL" ||
//                               !Between(Col("price"), 10.0, 20.0)))
//
// Expressions validate against the plan schema at Build() time and lower
// to fused candidate-list passes (exec/operator.cc): conjunctions narrow
// one surviving position list predicate by predicate, disjunctions union
// the sorted position lists of their branches — no intermediate BAT is
// ever materialized, which is the paper's §3.1 memory-access discipline.
//
// Semantics notes:
//  * NormalizeExpr() rewrites to negation normal form: Not distributes
//    over And/Or (De Morgan) and lands in the leaves, flipping comparison
//    operators (Eq<->Ne, Lt<->Ge, Le<->Gt) or toggling the leaf's
//    `negated` flag (Between, In).
//  * f64 comparisons follow IEEE: NaN fails every ordering comparison and
//    every [lo, hi] range — including "not in [lo, hi]", which evaluates
//    as v < lo || v > hi — while `!=` is true for NaN.
#ifndef CCDB_EXEC_EXPR_H_
#define CCDB_EXEC_EXPR_H_

#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/logging.h"

namespace ccdb {

enum class CmpOp { kEq, kNe, kLt, kLe, kGt, kGe };

/// Rendering name: "=", "!=", "<", "<=", ">", ">=".
const char* CmpOpName(CmpOp op);

/// The complement operator: Eq<->Ne, Lt<->Ge, Le<->Gt. NormalizeExpr uses
/// this to push a Not into a comparison leaf.
CmpOp ComplementCmpOp(CmpOp op);

/// A typed scalar literal. Which member is valid follows `type`.
struct Literal {
  enum class Type { kU32, kI64, kF64, kStr };
  Type type = Type::kU32;
  uint32_t u32 = 0;
  int64_t i64 = 0;
  double f64 = 0;
  std::string str;

  static Literal U32(uint32_t v) {
    Literal l;
    l.type = Type::kU32;
    l.u32 = v;
    return l;
  }
  /// Wide integer literal — the only way to compare an i64 aggregate output
  /// (sum/count) against a constant above 2^32: Having(Col("sum") >
  /// 5'000'000'000LL). Valid on u32 columns too (evaluated widened).
  static Literal I64(int64_t v) {
    Literal l;
    l.type = Type::kI64;
    l.i64 = v;
    return l;
  }
  static Literal F64(double v) {
    Literal l;
    l.type = Type::kF64;
    l.f64 = v;
    return l;
  }
  static Literal Str(std::string v) {
    Literal l;
    l.type = Type::kStr;
    l.str = std::move(v);
    return l;
  }

  std::string ToString() const;

  /// Member-wise, inactive members included (the factories zero them).
  /// f64 follows IEEE: a NaN literal equals nothing, not even itself.
  bool operator==(const Literal&) const = default;
};

/// One node of a filter expression tree. Value-semantic (copyable), so
/// expressions compose and reuse like the scalars they describe.
struct Expr {
  enum class Kind {
    kCmp,      // column <op> literal
    kBetween,  // column in [lo, hi] (inclusive; negated = outside)
    kIn,       // column in {v1, v2, ...} (negated = not in)
    kAnd,      // all children hold (>= 1 child; 0 children is invalid)
    kOr,       // any child holds
    kNot,      // exactly one child; removed by NormalizeExpr
  };

  Kind kind = Kind::kAnd;  // default-constructed Expr is invalid (empty And)

  // Leaf payload (kCmp / kBetween / kIn).
  std::string column;
  bool negated = false;  // kBetween / kIn: match the complement set
  CmpOp cmp = CmpOp::kEq;
  Literal value;                     // kCmp
  Literal lo, hi;                    // kBetween (same literal type)
  std::vector<uint32_t> in_u32;      // kIn: exactly one of in_u32 /
  std::vector<std::string> in_str;   //      in_str is populated

  std::vector<Expr> children;  // kAnd / kOr / kNot

  bool leaf() const {
    return kind == Kind::kCmp || kind == Kind::kBetween || kind == Kind::kIn;
  }

  /// Renders the expression, AND binding tighter than OR:
  /// `qty in [2, 4] AND (shipmode = "MAIL" OR supp != 7)`.
  std::string ToString() const;

  /// Structural equality: same tree, same literals and literal types,
  /// children in the same order. Filters that mean the same but normalize
  /// to different trees (`Between(x, 2, 3)` vs `x >= 2 && x <= 3`) are
  /// unequal; the FilterCache shares lists only between equal filters.
  bool operator==(const Expr&) const = default;
};

// --- fluent construction -----------------------------------------------------

/// Column reference for the fluent helpers: Col("qty") >= 2u.
struct Col {
  std::string name;
  explicit Col(std::string n) : name(std::move(n)) {}
};

namespace expr_internal {

inline Expr MakeCmp(Col c, CmpOp op, Literal v) {
  Expr e;
  e.kind = Expr::Kind::kCmp;
  e.column = std::move(c.name);
  e.cmp = op;
  e.value = std::move(v);
  return e;
}

inline uint32_t NonNegative(int v) {
  CCDB_CHECK(v >= 0);  // negative literals are inexpressible on u32 columns
  return static_cast<uint32_t>(v);
}

/// Any integral type that is not one of the exact-match overloads below —
/// int64_t/long/uint64_t/size_t variables and the like, which would
/// otherwise be ambiguous among the uint32_t / int / long long / double
/// candidates.
template <typename T>
inline constexpr bool kOtherIntegral =
    std::is_integral_v<T> && !std::is_same_v<T, bool> &&
    !std::is_same_v<T, uint32_t> && !std::is_same_v<T, int> &&
    !std::is_same_v<T, long long>;

/// Maps any integral to the literal domain: values inside [0, UINT32_MAX]
/// become u32 literals (eligible for the ranged select kernels — a
/// `Col("v") < int64_t{100}` must run exactly like `Col("v") < 100`),
/// anything wider an i64 literal (compared widened). Unsigned values past
/// INT64_MAX saturate to INT64_MAX — exact for every comparison unless the
/// column actually holds INT64_MAX (aggregates reject sums beyond it
/// anyway).
template <typename T>
inline Literal IntegralLiteral(T v) {
  if constexpr (std::is_unsigned_v<T>) {
    if (static_cast<uint64_t>(v) > static_cast<uint64_t>(INT64_MAX)) {
      return Literal::I64(INT64_MAX);
    }
  }
  int64_t w = static_cast<int64_t>(v);
  if (w >= 0 && w <= static_cast<int64_t>(UINT32_MAX)) {
    return Literal::U32(static_cast<uint32_t>(w));
  }
  return Literal::I64(w);
}

}  // namespace expr_internal

// Col <op> literal for u32, int (convenience; must be non-negative), i64
// (long long — constants above 2^32, e.g. for Having on an i64 sum), f64
// and string literals. String columns support = and != only (enforced at
// Build() time).
#define CCDB_EXPR_DEFINE_CMP(op, cmpop)                                       \
  inline Expr operator op(Col c, uint32_t v) {                                \
    return expr_internal::MakeCmp(std::move(c), cmpop, Literal::U32(v));      \
  }                                                                           \
  inline Expr operator op(Col c, int v) {                                     \
    return expr_internal::MakeCmp(std::move(c), cmpop,                        \
                                  Literal::U32(expr_internal::NonNegative(v))); \
  }                                                                           \
  inline Expr operator op(Col c, long long v) {                               \
    return expr_internal::MakeCmp(std::move(c), cmpop,                        \
                                  expr_internal::IntegralLiteral(v));         \
  }                                                                           \
  template <typename T,                                                       \
            typename = std::enable_if_t<expr_internal::kOtherIntegral<T>>>    \
  inline Expr operator op(Col c, T v) {                                       \
    return expr_internal::MakeCmp(std::move(c), cmpop,                        \
                                  expr_internal::IntegralLiteral(v));         \
  }                                                                           \
  inline Expr operator op(Col c, double v) {                                  \
    return expr_internal::MakeCmp(std::move(c), cmpop, Literal::F64(v));      \
  }                                                                           \
  inline Expr operator op(Col c, std::string v) {                             \
    return expr_internal::MakeCmp(std::move(c), cmpop,                        \
                                  Literal::Str(std::move(v)));                \
  }                                                                           \
  inline Expr operator op(Col c, const char* v) {                             \
    return expr_internal::MakeCmp(std::move(c), cmpop, Literal::Str(v));      \
  }

CCDB_EXPR_DEFINE_CMP(==, CmpOp::kEq)
CCDB_EXPR_DEFINE_CMP(!=, CmpOp::kNe)
CCDB_EXPR_DEFINE_CMP(<, CmpOp::kLt)
CCDB_EXPR_DEFINE_CMP(<=, CmpOp::kLe)
CCDB_EXPR_DEFINE_CMP(>, CmpOp::kGt)
CCDB_EXPR_DEFINE_CMP(>=, CmpOp::kGe)

#undef CCDB_EXPR_DEFINE_CMP

/// column in [lo, hi], inclusive on both ends. Build() rejects lo > hi.
Expr Between(Col c, uint32_t lo, uint32_t hi);
inline Expr Between(Col c, int lo, int hi) {
  return Between(std::move(c), expr_internal::NonNegative(lo),
                 expr_internal::NonNegative(hi));
}
Expr Between(Col c, long long lo, long long hi);
Expr Between(Col c, double lo, double hi);

/// Any other integral bound combination (int64_t variables, mixed
/// int/long long, size_t, ...): bounds within the u32 domain build the
/// kernel-eligible u32 range, anything wider the i64 range.
template <typename A, typename B,
          typename = std::enable_if_t<
              std::is_integral_v<A> && std::is_integral_v<B> &&
              !std::is_same_v<A, bool> && !std::is_same_v<B, bool>>>
inline Expr Between(Col c, A lo, B hi) {
  int64_t l = expr_internal::IntegralLiteral(lo).i64;
  int64_t h = expr_internal::IntegralLiteral(hi).i64;
  if (l >= 0 && h >= 0 && l <= int64_t{UINT32_MAX} &&
      h <= int64_t{UINT32_MAX}) {
    return Between(std::move(c), static_cast<uint32_t>(l),
                   static_cast<uint32_t>(h));
  }
  return Between(std::move(c), static_cast<long long>(l),
                 static_cast<long long>(h));
}

/// column in {values}. Build() rejects an empty list.
Expr InU32(Col c, std::vector<uint32_t> values);
Expr InStr(Col c, std::vector<std::string> values);

/// Boolean composition. && and || flatten nested conjunctions /
/// disjunctions; ! collapses double negation at construction.
Expr operator&&(Expr a, Expr b);
Expr operator||(Expr a, Expr b);
Expr operator!(Expr e);

// --- normalization and lowering helpers --------------------------------------

/// Negation normal form: every Not is pushed into the leaves (flipping
/// comparison operators / toggling `negated`), nested And/And and Or/Or
/// are flattened, and In-lists are sorted and deduplicated. Execution
/// (exec/operator.cc) requires normalized expressions; SelectOp normalizes
/// on construction, so callers only need this for inspection. Idempotent.
Expr NormalizeExpr(Expr e);

/// Estimated-selectivity rank used to order the conjuncts of an And before
/// lowering: cheaper, more selective shapes run first so later conjuncts
/// narrow a shorter candidate list. 0 = numeric equality, 1 = numeric
/// range (Between / ordering comparisons / In), 2 = string equality,
/// 3 = composite (a nested Or). Ties keep their written order.
int ConjunctRank(const Expr& e);

/// Rank name for EXPLAIN output: "eq", "range", "str-eq", "composite".
const char* ConjunctRankName(int rank);

/// Stable-sorts every And's children by ConjunctRank, recursively. The
/// match set is order-independent (conjuncts intersect), so this changes
/// evaluation cost, never results.
Expr OrderConjunctsBySelectivity(Expr e);

}  // namespace ccdb

#endif  // CCDB_EXEC_EXPR_H_
