#include "exec/operator.h"

#include <algorithm>
#include <functional>
#include <string_view>
#include <type_traits>
#include <utility>

#include "algo/bat_algebra.h"
#include "algo/partitioned_hash_join.h"
#include "algo/radix_join.h"
#include "algo/radix_sort.h"
#include "algo/simple_hash_join.h"
#include "algo/sort_merge_join.h"
#include "exec/filter_cache.h"
#include "util/thread_pool.h"

namespace ccdb {
namespace {

/// Smallest worthwhile morsel: below this, task dispatch costs more than
/// the memory traffic it parallelizes.
constexpr size_t kMorselRows = 4096;

size_t CtxShards(const ExecContext* ctx, size_t n, size_t per_worker = 1) {
  return ctx == nullptr ? 1 : ctx->ShardsFor(n, kMorselRows, per_worker);
}

ThreadPool* CtxPool(const ExecContext* ctx) {
  return ctx == nullptr ? nullptr : ctx->pool;
}

size_t CtxParallelism(const ExecContext* ctx) {
  return ctx == nullptr ? 1 : ctx->parallelism;
}

/// ParallelFor wired to the context's ScheduleContext: every morsel polls
/// cancellation/deadline before running, and worker drives yield their pool
/// slot after a full quantum so concurrently executing plans interleave on
/// the shared pool. With no sched attached this degenerates to plain
/// ParallelFor (hooks stay null — zero overhead on the single-query path).
Status ExecParallelFor(const ExecContext* ctx, size_t shards,
                       const std::function<Status(size_t)>& body) {
  ScheduleContext* sched = ctx == nullptr ? nullptr : ctx->sched;
  if (sched == nullptr) {
    return ParallelFor(CtxPool(ctx), CtxParallelism(ctx), shards, body);
  }
  ParallelForHooks hooks;
  hooks.before_morsel = [sched] { return sched->Check(); };
  hooks.yield_after_morsel = [sched] { return sched->YieldAfterMorsel(); };
  return ParallelFor(CtxPool(ctx), CtxParallelism(ctx), shards, body, &hooks);
}

/// Morsel-boundary poll for serial stretches of an operator (chunk
/// pipelining, single-shard paths) that never enter ExecParallelFor.
Status SchedCheck(const ExecContext* ctx) {
  if (ctx == nullptr || ctx->sched == nullptr) return Status::Ok();
  return ctx->sched->Check();
}

}  // namespace
}  // namespace ccdb

namespace ccdb {

StatusOr<std::vector<Bun>> ExecuteJoinPlan(std::span<const Bun> l,
                                           std::span<const Bun> r,
                                           const JoinPlan& plan,
                                           JoinStats* stats) {
  DirectMemory mem;
  switch (plan.strategy) {
    case JoinStrategy::kSortMerge:
      return SortMergeJoin(l, r, mem, stats);
    case JoinStrategy::kSimpleHash:
      return SimpleHashJoin(l, r, mem, stats);
    default:
      break;
  }
  if (plan.use_radix_join) {
    return RadixJoin(l, r, plan.bits, plan.passes, mem, stats);
  }
  return PartitionedHashJoin(l, r, plan.bits, plan.passes, mem, stats);
}

// --- Chunk -------------------------------------------------------------------

StatusOr<size_t> Chunk::Find(const std::string& name) const {
  for (size_t i = 0; i < cols.size(); ++i) {
    if (cols[i].name == name) return i;
  }
  return Status::NotFound("no chunk column named " + name);
}

PhysType Chunk::TypeOf(size_t c) const {
  const ChunkColumn& col = cols[c];
  PhysType t;
  if (col.lazy()) {
    if (col.base->is_encoded(col.base_col)) return PhysType::kStr;
    t = col.base->column_bat(col.base_col).tail().type();
  } else {
    t = col.owned->type();
  }
  switch (t) {
    case PhysType::kVoid:
    case PhysType::kU8:
    case PhysType::kU16:
    case PhysType::kU32:
    case PhysType::kI32:
      return PhysType::kU32;
    default:
      return t;
  }
}

namespace {

std::span<const oid_t> OidSpan(const Candidates& c) {
  CCDB_DCHECK(!c.dense());
  return {c.oids->data(), c.oids->size()};
}

/// Physical types that hold u32 values directly (the select kernels' and
/// GatherU32's domain).
bool U32Tail(PhysType t) {
  return t == PhysType::kVoid || t == PhysType::kU8 || t == PhysType::kU16 ||
         t == PhysType::kU32;
}

Status RequireIntegral(const Column& tail, const char* what) {
  if (U32Tail(tail.type())) return Status::Ok();
  return Status::InvalidArgument(std::string(what) +
                                 " requires an integral column, got " +
                                 PhysTypeName(tail.type()));
}

// --- value-type dispatch -----------------------------------------------------
// Per-type operator bodies (take, concat, materialize, null-extend, sort
// keys, per-value filter) are generic lambdas called through
// VisitValueType with the C++ type that holds the column's values.

/// Calls `body(T{})` for the value type T of logical column type `t`
/// (Chunk::TypeOf; owned columns only ever hold these four): uint32_t,
/// int64_t, double or std::string.
template <class Body>
auto VisitValueType(PhysType t, Body&& body) -> decltype(body(uint32_t{})) {
  switch (t) {
    case PhysType::kU32: return body(uint32_t{});
    case PhysType::kI64: return body(int64_t{});
    case PhysType::kF64: return body(double{});
    case PhysType::kStr: return body(std::string{});
    default:
      return Status::Internal(std::string("unexpected column type ") +
                              PhysTypeName(t));
  }
}

/// Chunk column `c` gathered as T.
template <class T>
StatusOr<std::vector<T>> GatherAs(const Chunk& chunk, size_t c) {
  if constexpr (std::is_same_v<T, uint32_t>) {
    return chunk.GatherU32(c);
  } else if constexpr (std::is_same_v<T, int64_t>) {
    return chunk.GatherI64(c);
  } else if constexpr (std::is_same_v<T, double>) {
    return chunk.GatherF64(c);
  } else {
    return chunk.GatherStr(c);
  }
}

/// An owned column holding `v`.
template <class T>
Column MakeColumn(const std::vector<T>& v) {
  if constexpr (std::is_same_v<T, uint32_t>) {
    return Column::U32(v);
  } else if constexpr (std::is_same_v<T, int64_t>) {
    return Column::I64(v);
  } else if constexpr (std::is_same_v<T, double>) {
    return Column::F64(v);
  } else {
    return Column::Str(v);
  }
}

/// Element reader for an owned column holding T: `at(i)` is the value, or a
/// string_view for strings.
template <class T>
auto OwnedReader(const Column& col) {
  if constexpr (std::is_same_v<T, std::string>) {
    return [&col](size_t i) { return col.GetStr(i); };
  } else {
    return [s = col.Span<T>()](size_t i) { return s[i]; };
  }
}

}  // namespace

StatusOr<std::vector<uint32_t>> Chunk::GatherU32(size_t c) const {
  const ChunkColumn& col = cols[c];
  if (!col.lazy()) {
    CCDB_RETURN_IF_ERROR(RequireIntegral(*col.owned, "GatherU32"));
    if (col.owned->type() == PhysType::kU32) {
      auto s = col.owned->Span<uint32_t>();
      return std::vector<uint32_t>(s.begin(), s.end());
    }
    std::vector<uint32_t> out(col.owned->size());
    for (size_t i = 0; i < out.size(); ++i) {
      out[i] = static_cast<uint32_t>(col.owned->GetIntegral(i));
    }
    return out;
  }
  const Bat& bat = col.base->column_bat(col.base_col);
  const Candidates& cd = cands[col.cand_slot];
  CCDB_RETURN_IF_ERROR(RequireIntegral(bat.tail(), "GatherU32"));
  if (!cd.dense()) {
    // Candidate projection kernel: touch only qualifying BUNs.
    CCDB_ASSIGN_OR_RETURN(Bat proj, BatProject(bat, OidSpan(cd)));
    auto s = proj.tail().Span<uint32_t>();
    return std::vector<uint32_t>(s.begin(), s.end());
  }
  if (cd.base + cd.count > bat.size()) {
    return Status::OutOfRange("dense candidates beyond BAT");
  }
  std::vector<uint32_t> out(cd.count);
  if (bat.tail().type() == PhysType::kU32) {
    auto s = bat.tail().Span<uint32_t>();
    std::copy_n(s.begin() + cd.base, cd.count, out.begin());
  } else {
    for (size_t i = 0; i < cd.count; ++i) {
      out[i] = static_cast<uint32_t>(bat.tail().GetIntegral(cd.base + i));
    }
  }
  return out;
}

StatusOr<std::vector<int64_t>> Chunk::GatherI64(size_t c) const {
  const ChunkColumn& col = cols[c];
  if (!col.lazy() && col.owned->type() == PhysType::kI64) {
    auto s = col.owned->Span<int64_t>();
    return std::vector<int64_t>(s.begin(), s.end());
  }
  if (col.lazy() &&
      col.base->column_bat(col.base_col).tail().type() == PhysType::kI64) {
    auto v = col.base->column_bat(col.base_col).tail().Span<int64_t>();
    const Candidates& cd = cands[col.cand_slot];
    std::vector<int64_t> out(cd.count);
    for (size_t i = 0; i < cd.count; ++i) {
      oid_t o = cd.Get(i);
      if (o >= v.size()) return Status::OutOfRange("candidate beyond column");
      out[i] = v[o];
    }
    return out;
  }
  CCDB_ASSIGN_OR_RETURN(std::vector<uint32_t> narrow, GatherU32(c));
  return std::vector<int64_t>(narrow.begin(), narrow.end());
}

StatusOr<std::vector<double>> Chunk::GatherF64(size_t c) const {
  const ChunkColumn& col = cols[c];
  if (!col.lazy()) {
    if (col.owned->type() != PhysType::kF64) {
      return Status::InvalidArgument("GatherF64 on non-f64 column " +
                                     col.name);
    }
    auto s = col.owned->Span<double>();
    return std::vector<double>(s.begin(), s.end());
  }
  const Column& tail = col.base->column_bat(col.base_col).tail();
  if (tail.type() != PhysType::kF64) {
    return Status::InvalidArgument("GatherF64 on non-f64 column " + col.name);
  }
  auto v = tail.Span<double>();
  const Candidates& cd = cands[col.cand_slot];
  std::vector<double> out(cd.count);
  for (size_t i = 0; i < cd.count; ++i) {
    oid_t o = cd.Get(i);
    if (o >= v.size()) return Status::OutOfRange("candidate beyond column");
    out[i] = v[o];
  }
  return out;
}

StatusOr<std::vector<std::string>> Chunk::GatherStr(size_t c) const {
  const ChunkColumn& col = cols[c];
  if (!col.lazy()) {
    if (col.owned->type() != PhysType::kStr) {
      return Status::InvalidArgument("GatherStr on non-string column " +
                                     col.name);
    }
    std::vector<std::string> out(col.owned->size());
    for (size_t i = 0; i < out.size(); ++i) {
      out[i] = std::string(col.owned->GetStr(i));
    }
    return out;
  }
  const Candidates& cd = cands[col.cand_slot];
  if (cd.dense()) {
    std::vector<oid_t> oids(cd.count);
    for (size_t i = 0; i < cd.count; ++i) oids[i] = cd.Get(i);
    return col.base->GatherStr(col.base->schema().field(col.base_col).name,
                               oids);
  }
  return col.base->GatherStr(col.base->schema().field(col.base_col).name,
                             OidSpan(cd));
}

namespace {

StatusOr<Column> TakeOwned(const Column& col,
                           std::span<const uint32_t> positions) {
  return VisitValueType(col.type(), [&](auto tag) -> StatusOr<Column> {
    using T = decltype(tag);
    auto at = OwnedReader<T>(col);
    std::vector<T> out(positions.size());
    for (size_t i = 0; i < positions.size(); ++i) out[i] = T(at(positions[i]));
    return MakeColumn(out);
  });
}

}  // namespace

StatusOr<Chunk> Chunk::Take(std::span<const uint32_t> positions) const {
  Chunk out;
  out.rows = positions.size();
  out.cands.reserve(cands.size());
  for (const Candidates& cd : cands) {
    std::vector<oid_t> oids(positions.size());
    for (size_t i = 0; i < positions.size(); ++i) {
      CCDB_DCHECK(positions[i] < rows);
      oids[i] = cd.Get(positions[i]);
    }
    out.cands.push_back(Candidates::FromOids(std::move(oids)));
  }
  out.cols.reserve(cols.size());
  for (const ChunkColumn& col : cols) {
    ChunkColumn c = col;
    if (!col.lazy()) {
      CCDB_ASSIGN_OR_RETURN(Column taken, TakeOwned(*col.owned, positions));
      c.owned = std::make_shared<const Column>(std::move(taken));
    }
    out.cols.push_back(std::move(c));
  }
  return out;
}

Status Chunk::AppendTo(size_t c, MaterializedColumn* out) const {
  return VisitValueType(TypeOf(c), [&](auto tag) -> Status {
    using T = decltype(tag);
    CCDB_ASSIGN_OR_RETURN(std::vector<T> v, GatherAs<T>(*this, c));
    std::vector<T>* dst;
    if constexpr (std::is_same_v<T, uint32_t>) {
      dst = &out->u32_values;
    } else if constexpr (std::is_same_v<T, int64_t>) {
      dst = &out->i64_values;
    } else if constexpr (std::is_same_v<T, double>) {
      dst = &out->f64_values;
    } else {
      dst = &out->str_values;
    }
    dst->insert(dst->end(), std::make_move_iterator(v.begin()),
                std::make_move_iterator(v.end()));
    return Status::Ok();
  });
}

StatusOr<Chunk> ConcatChunks(std::vector<Chunk> chunks) {
  if (chunks.empty()) {
    return Status::InvalidArgument("ConcatChunks: no chunks");
  }
  if (chunks.size() == 1) return std::move(chunks[0]);
  Chunk out;
  const Chunk& first = chunks[0];
  for (const Chunk& c : chunks) {
    if (c.cols.size() != first.cols.size() ||
        c.cands.size() != first.cands.size()) {
      return Status::InvalidArgument("ConcatChunks: layout mismatch");
    }
    out.rows += c.rows;
  }
  // Candidate lists concatenate into one materialized list per slot.
  for (size_t s = 0; s < first.cands.size(); ++s) {
    std::vector<oid_t> oids;
    oids.reserve(out.rows);
    for (const Chunk& c : chunks) {
      for (size_t i = 0; i < c.cands[s].count; ++i) {
        oids.push_back(c.cands[s].Get(i));
      }
    }
    out.cands.push_back(Candidates::FromOids(std::move(oids)));
  }
  for (size_t ci = 0; ci < first.cols.size(); ++ci) {
    ChunkColumn col = first.cols[ci];
    if (!col.lazy()) {
      auto cat = VisitValueType(
          col.owned->type(), [&](auto tag) -> StatusOr<Column> {
            using T = decltype(tag);
            std::vector<T> v;
            v.reserve(out.rows);
            for (const Chunk& c : chunks) {
              const Column& part = *c.cols[ci].owned;
              auto at = OwnedReader<T>(part);
              for (size_t i = 0; i < part.size(); ++i) v.emplace_back(at(i));
            }
            return MakeColumn(v);
          });
      if (!cat.ok()) return cat.status();
      col.owned = std::make_shared<const Column>(*std::move(cat));
    }
    out.cols.push_back(std::move(col));
  }
  return out;
}

// --- ScanOp ------------------------------------------------------------------

ScanOp::ScanOp(const Table* table, size_t chunk_rows)
    : table_(table), chunk_rows_(chunk_rows == 0 ? SIZE_MAX : chunk_rows) {}

Status ScanOp::Open() {
  pos_ = 0;
  emitted_ = false;
  return Status::Ok();
}

StatusOr<bool> ScanOp::Next(Chunk* out) {
  size_t total = table_->num_rows();
  if (pos_ >= total && emitted_) return false;
  size_t n = std::min(chunk_rows_, total - pos_);
  out->rows = n;
  out->cands = {Candidates::Dense(static_cast<oid_t>(pos_), n)};
  out->cols.clear();
  for (size_t i = 0; i < table_->num_columns(); ++i) {
    ChunkColumn c;
    c.name = table_->schema().field(i).name;
    c.base = table_;
    c.base_col = i;
    c.cand_slot = 0;
    out->cols.push_back(std::move(c));
  }
  pos_ += n;
  emitted_ = true;
  return true;
}

// --- SelectOp ----------------------------------------------------------------

SelectOp::SelectOp(std::unique_ptr<Operator> child, Expr expr,
                   const ExecContext* ctx, const Table* scanned,
                   size_t scan_chunk_rows)
    : child_(std::move(child)),
      ctx_(ctx),
      scanned_(scanned),
      scan_chunk_rows_(scan_chunk_rows) {
  // An empty conjunction (a childless And, e.g. a default-constructed
  // Expr) is logically true: leave expr_ empty so Next() passes chunks
  // through (plan validation rejects it, but SelectOp is also composed
  // directly).
  Expr lowered = OrderConjunctsBySelectivity(NormalizeExpr(std::move(expr)));
  if (lowered.kind != Expr::Kind::kAnd || !lowered.children.empty()) {
    expr_ = std::move(lowered);
  }
}

Status SelectOp::Open() {
  chunk_index_ = 0;
  return child_->Open();
}
void SelectOp::Close() { child_->Close(); }

namespace {

// --- leaf matchers -----------------------------------------------------------
// Direct evaluation of one normalized expression leaf against a typed
// value. f64 comparisons are IEEE: NaN fails every ordering and range test
// (including "not in [lo, hi]", which is v < lo || v > hi) while != is
// true for NaN.

/// Literal domain a leaf compares on: kU32 (including dictionary codes for
/// string literals on encoded columns), kI64, kF64, or kStr.
Literal::Type LeafLiteralType(const Expr& leaf) {
  switch (leaf.kind) {
    case Expr::Kind::kCmp: return leaf.value.type;
    case Expr::Kind::kBetween: return leaf.lo.type;
    case Expr::Kind::kIn:
      return leaf.in_str.empty() ? Literal::Type::kU32 : Literal::Type::kStr;
    default: return Literal::Type::kU32;
  }
}

template <class T>
bool Compare(CmpOp op, T v, T x) {
  switch (op) {
    case CmpOp::kEq: return v == x;
    case CmpOp::kNe: return v != x;
    case CmpOp::kLt: return v < x;
    case CmpOp::kLe: return v <= x;
    case CmpOp::kGt: return v > x;
    case CmpOp::kGe: return v >= x;
  }
  return false;
}

/// `lit` as a value of a T column; u32 literals widen on i64 columns.
template <class T>
T LiteralAs(const Literal& lit) {
  if constexpr (std::is_same_v<T, double>) {
    return lit.f64;
  } else if constexpr (std::is_same_v<T, int64_t>) {
    return lit.type == Literal::Type::kI64 ? lit.i64
                                           : static_cast<int64_t>(lit.u32);
  } else {
    return lit.u32;
  }
}

/// Matches a u32, i64 or f64 value.
template <class T>
  requires std::is_arithmetic_v<T>
bool MatchValue(const Expr& leaf, T v) {
  if constexpr (std::is_same_v<T, uint32_t>) {
    // Wide (i64) literals on a u32 column evaluate widened: `v < 2^40` must
    // be true for every u32 value, not wrap.
    if (LeafLiteralType(leaf) == Literal::Type::kI64) {
      return MatchValue(leaf, static_cast<int64_t>(v));
    }
  }
  switch (leaf.kind) {
    case Expr::Kind::kCmp:
      return Compare(leaf.cmp, v, LiteralAs<T>(leaf.value));
    case Expr::Kind::kBetween: {
      T lo = LiteralAs<T>(leaf.lo), hi = LiteralAs<T>(leaf.hi);
      return leaf.negated ? v < lo || v > hi : lo <= v && v <= hi;
    }
    case Expr::Kind::kIn:
      if constexpr (std::is_same_v<T, double>) {
        return false;  // f64 In-lists are rejected at Build() time
      } else {
        bool found = std::in_range<uint32_t>(v) &&
                     std::binary_search(leaf.in_u32.begin(),
                                        leaf.in_u32.end(),
                                        static_cast<uint32_t>(v));
        return found != leaf.negated;
      }
    default:
      return false;
  }
}

bool MatchValue(const Expr& leaf, std::string_view v) {
  switch (leaf.kind) {
    case Expr::Kind::kCmp:
      return leaf.cmp == CmpOp::kEq ? v == leaf.value.str
                                    : v != leaf.value.str;
    case Expr::Kind::kIn:
      return std::binary_search(leaf.in_str.begin(), leaf.in_str.end(), v,
                                std::less<>{}) != leaf.negated;
    default:
      return false;
  }
}

/// Rejects a leaf whose literal domain does not match column type
/// `col_type` (Chunk::TypeOf).
Status CheckLeafDomain(PhysType col_type, const Expr& leaf) {
  Literal::Type lt = LeafLiteralType(leaf);
  bool ok = false;
  switch (col_type) {
    case PhysType::kU32:
    case PhysType::kI64:
      ok = lt == Literal::Type::kU32 || lt == Literal::Type::kI64;
      break;
    case PhysType::kF64:
      ok = lt == Literal::Type::kF64;
      break;
    case PhysType::kStr:
      ok = lt == Literal::Type::kStr;
      break;
    default:
      break;
  }
  if (!ok) {
    return Status::InvalidArgument(
        "filter: literal type does not match column '" + leaf.column + "' (" +
        PhysTypeName(col_type) + ")");
  }
  return Status::Ok();
}

// --- leaf lowering to u32 range sets (kernel path) --------------------------

std::vector<U32Range> RangesForCmpU32(CmpOp op, uint32_t x) {
  switch (op) {
    case CmpOp::kEq:
      return {{x, x}};
    case CmpOp::kNe:
      return ComplementRanges(std::vector<U32Range>{{x, x}});
    case CmpOp::kLt:
      if (x == 0) return {};
      return {{0, x - 1}};
    case CmpOp::kLe:
      return {{0, x}};
    case CmpOp::kGt:
      if (x == UINT32_MAX) return {};
      return {{x + 1, UINT32_MAX}};
    case CmpOp::kGe:
      return {{x, UINT32_MAX}};
  }
  return {};
}

/// Coalesces sorted, duplicate-free values into maximal contiguous ranges.
std::vector<U32Range> CoalesceSortedValues(std::span<const uint32_t> vals) {
  std::vector<U32Range> out;
  for (uint32_t v : vals) {
    if (!out.empty() && out.back().hi != UINT32_MAX &&
        v == out.back().hi + 1) {
      out.back().hi = v;
    } else {
      out.push_back({v, v});
    }
  }
  return out;
}

/// The disjoint, ascending range set `leaf` selects on the u32 value (or
/// dictionary-code) domain. String literals are remapped onto the encoded
/// column's codes (§3.1 predicate remap): an unknown string selects
/// nothing — or, negated, everything.
StatusOr<std::vector<U32Range>> LeafU32Ranges(const ChunkColumn& col,
                                              const Expr& leaf) {
  switch (leaf.kind) {
    case Expr::Kind::kCmp: {
      if (leaf.value.type == Literal::Type::kStr) {
        auto code = col.base->dict(col.base_col).Lookup(leaf.value.str);
        if (leaf.cmp == CmpOp::kEq) {
          if (!code.ok()) return std::vector<U32Range>{};
          return std::vector<U32Range>{{*code, *code}};
        }
        // kNe (validation admits = and != only on strings).
        if (!code.ok()) return std::vector<U32Range>{{0, UINT32_MAX}};
        return ComplementRanges(std::vector<U32Range>{{*code, *code}});
      }
      return RangesForCmpU32(leaf.cmp, leaf.value.u32);
    }
    case Expr::Kind::kBetween: {
      std::vector<U32Range> base{{leaf.lo.u32, leaf.hi.u32}};
      return leaf.negated ? ComplementRanges(base) : base;
    }
    case Expr::Kind::kIn: {
      std::vector<U32Range> base;
      if (!leaf.in_str.empty()) {
        std::vector<uint32_t> codes;
        for (const std::string& s : leaf.in_str) {
          auto code = col.base->dict(col.base_col).Lookup(s);
          if (code.ok()) codes.push_back(*code);
        }
        std::sort(codes.begin(), codes.end());
        codes.erase(std::unique(codes.begin(), codes.end()), codes.end());
        base = CoalesceSortedValues(codes);
      } else {
        // NormalizeExpr sorted and deduplicated the list.
        base = CoalesceSortedValues(leaf.in_u32);
      }
      return leaf.negated ? ComplementRanges(base) : base;
    }
    default:
      return Status::Internal("LeafU32Ranges on a non-leaf expression");
  }
}

/// True when `leaf`, whose domain CheckLeafDomain accepted for column
/// `ci`, runs through the candidate-list kernels (or, for f64, a direct
/// loop over the base column), so any subset of its rows can be evaluated
/// without gathering the column first.
bool LeafRangedEvalSupported(const Chunk& in, size_t ci, const Expr& leaf) {
  const ChunkColumn& col = in.cols[ci];
  if (!col.lazy()) return false;
  switch (LeafLiteralType(leaf)) {
    case Literal::Type::kI64:
      // Wide literals cannot lower to u32 range sets.
      return false;
    case Literal::Type::kU32:
      // Not an i64 base column.
      return U32Tail(col.base->column_bat(col.base_col).tail().type());
    case Literal::Type::kF64:
      return true;  // the column is f64
    case Literal::Type::kStr:
      return col.base->is_encoded(col.base_col);
  }
  return false;
}

// --- the filter walk ---------------------------------------------------------
// A pass reads a set of chunk rows and returns the qualifying ones as
// ascending, duplicate-free chunk positions, so And narrows pass by pass
// and Or merge-unions branch results — candidate lists all the way down,
// never an intermediate BAT.

/// The rows a filter pass reads: the identity range [0, n) of the chunk, or
/// the ascending chunk positions at `list`.
struct Rows {
  size_t n = 0;
  const uint32_t* list = nullptr;  // null: the identity range

  static Rows Of(const std::vector<uint32_t>& positions) {
    return {positions.size(), positions.data()};
  }
  uint32_t operator[](size_t i) const {
    return list == nullptr ? static_cast<uint32_t>(i) : list[i];
  }
};

/// Runs `slice(lo, hi)` over the context's morsels of [0, n) — on the pool
/// when there are several — and concatenates the position lists in morsel
/// order, which equals one serial slice(0, n).
template <class Slice>
StatusOr<std::vector<uint32_t>> ConcatMorsels(const ExecContext* ctx, size_t n,
                                              const Slice& slice) {
  size_t shards = CtxShards(ctx, n);
  if (shards <= 1) return slice(0, n);
  std::vector<std::vector<uint32_t>> parts(shards);
  CCDB_RETURN_IF_ERROR(ExecParallelFor(ctx, shards, [&](size_t s) -> Status {
    CCDB_ASSIGN_OR_RETURN(parts[s],
                          slice(n * s / shards, n * (s + 1) / shards));
    return Status::Ok();
  }));
  size_t total = 0;
  for (const auto& p : parts) total += p.size();
  std::vector<uint32_t> out;
  out.reserve(total);
  for (const auto& p : parts) out.insert(out.end(), p.begin(), p.end());
  return out;
}

/// Evaluates a leaf that LeafRangedEvalSupported over rows[lo, hi) of lazy
/// column `ci`, returning the qualifying chunk positions in order. Integral
/// and string leaves arrive lowered to their non-empty range set `ranges`
/// (LeafU32Ranges, once per leaf pass); f64 leaves match per value.
StatusOr<std::vector<uint32_t>> EvalLeafSlice(
    const Chunk& in, const Expr& leaf, size_t ci,
    std::span<const U32Range> ranges, Rows rows, size_t lo, size_t hi) {
  const ChunkColumn& col = in.cols[ci];
  const Bat& bat = col.base->column_bat(col.base_col);
  const Candidates& cd = in.cands[col.cand_slot];
  std::vector<uint32_t> out;
  if (LeafLiteralType(leaf) == Literal::Type::kF64) {
    auto v = bat.tail().Span<double>();
    for (size_t i = lo; i < hi; ++i) {
      oid_t o = cd.Get(rows[i]);
      if (o >= v.size()) return Status::OutOfRange("candidate beyond column");
      if (MatchValue(leaf, v[o])) out.push_back(rows[i]);
    }
    return out;
  }
  // The range set runs through the candidate-list union kernels, which
  // return slice-relative indices.
  if (rows.list != nullptr) {
    std::vector<oid_t> oids(hi - lo);
    for (size_t i = lo; i < hi; ++i) oids[i - lo] = cd.Get(rows[i]);
    CCDB_ASSIGN_OR_RETURN(out, BatSelectPositionsUnion(bat, ranges, oids));
  } else if (cd.dense()) {
    CCDB_ASSIGN_OR_RETURN(
        out, BatSelectPositionsUnionDense(
                 bat, ranges, static_cast<oid_t>(cd.base + lo), hi - lo));
  } else {
    CCDB_ASSIGN_OR_RETURN(
        out,
        BatSelectPositionsUnion(bat, ranges, OidSpan(cd).subspan(lo, hi - lo)));
  }
  if (rows.list != nullptr || lo != 0) {
    for (uint32_t& p : out) p = rows[lo + p];
  }
  return out;
}

/// A leaf without a kernel path, over `rows`: owned columns (aggregate
/// output) match their values in place; lazy columns gather only this
/// column through `rows` and match per value.
StatusOr<std::vector<uint32_t>> EvalLeafPerValue(const Chunk& in,
                                                 const Expr& leaf, size_t ci,
                                                 Rows rows) {
  const ChunkColumn& col = in.cols[ci];
  // Lazy column over a position list: the column alone, through the
  // survivors' candidates; nothing else of the chunk is copied.
  Chunk survivors;
  if (col.lazy() && rows.list != nullptr) {
    const Candidates& cd = in.cands[col.cand_slot];
    std::vector<oid_t> oids(rows.n);
    for (size_t i = 0; i < rows.n; ++i) oids[i] = cd.Get(rows[i]);
    survivors.rows = rows.n;
    survivors.cands.push_back(Candidates::FromOids(std::move(oids)));
    survivors.cols.push_back(col);
    survivors.cols[0].cand_slot = 0;
  }
  const bool narrowed = !survivors.cols.empty();
  return VisitValueType(
      in.TypeOf(ci), [&](auto tag) -> StatusOr<std::vector<uint32_t>> {
        using T = decltype(tag);
        std::vector<uint32_t> out;
        if (!col.lazy()) {
          auto at = OwnedReader<T>(*col.owned);
          for (size_t i = 0; i < rows.n; ++i) {
            if (MatchValue(leaf, at(rows[i]))) out.push_back(rows[i]);
          }
          return out;
        }
        CCDB_ASSIGN_OR_RETURN(
            std::vector<T> v,
            narrowed ? GatherAs<T>(survivors, 0) : GatherAs<T>(in, ci));
        for (size_t i = 0; i < v.size(); ++i) {
          if (MatchValue(leaf, v[i])) out.push_back(rows[i]);
        }
        return out;
      });
}

/// One leaf over `rows`, morsel-parallel on the kernel path. Directly
/// composed SelectOps bypass Build() validation, so the literal domain is
/// checked against the column here, before any path runs: a mismatch must
/// stay a loud error, never a comparison against the wrong Literal member
/// or against an encoded column's dictionary codes.
StatusOr<std::vector<uint32_t>> EvalLeaf(const Chunk& in, const Expr& leaf,
                                         Rows rows, const ExecContext* ctx) {
  CCDB_ASSIGN_OR_RETURN(size_t ci, in.Find(leaf.column));
  CCDB_RETURN_IF_ERROR(CheckLeafDomain(in.TypeOf(ci), leaf));
  if (!LeafRangedEvalSupported(in, ci, leaf)) {
    return EvalLeafPerValue(in, leaf, ci, rows);
  }
  // Integral shapes (and string literals remapped onto codes) lower to a
  // disjoint range set once here, not per morsel.
  std::vector<U32Range> ranges;
  if (LeafLiteralType(leaf) != Literal::Type::kF64) {
    CCDB_ASSIGN_OR_RETURN(ranges, LeafU32Ranges(in.cols[ci], leaf));
    if (ranges.empty()) return std::vector<uint32_t>{};
  }
  return ConcatMorsels(ctx, rows.n, [&](size_t lo, size_t hi) {
    return EvalLeafSlice(in, leaf, ci, ranges, rows, lo, hi);
  });
}

/// Evaluates a normalized expression over `rows`.
StatusOr<std::vector<uint32_t>> EvalExpr(const Chunk& in, const Expr& e,
                                         Rows rows, const ExecContext* ctx) {
  switch (e.kind) {
    case Expr::Kind::kAnd: {
      // Fused conjunction pass: the first conjunct reads `rows`, each later
      // conjunct only the survivors of the one before.
      std::vector<uint32_t> positions;
      for (size_t i = 0; i < e.children.size(); ++i) {
        if (i > 0 && positions.empty()) break;
        CCDB_ASSIGN_OR_RETURN(
            positions, EvalExpr(in, e.children[i],
                                i == 0 ? rows : Rows::Of(positions), ctx));
      }
      return positions;
    }
    case Expr::Kind::kOr: {
      // Every branch reads the same rows; the union keeps each position
      // exactly once, in order.
      std::vector<std::vector<uint32_t>> parts(e.children.size());
      for (size_t i = 0; i < e.children.size(); ++i) {
        CCDB_ASSIGN_OR_RETURN(parts[i],
                              EvalExpr(in, e.children[i], rows, ctx));
      }
      return UnionSortedPositions(std::move(parts));
    }
    case Expr::Kind::kNot:
      return Status::Internal("filter expression not normalized (NOT node)");
    default:
      return EvalLeaf(in, e, rows, ctx);
  }
}

}  // namespace

StatusOr<std::vector<uint32_t>> EvalFilterPositions(const Chunk& chunk,
                                                    const Expr& normalized,
                                                    const ExecContext* ctx) {
  return EvalExpr(chunk, normalized, Rows{chunk.rows}, ctx);
}

StatusOr<bool> SelectOp::Next(Chunk* out) {
  Chunk in;
  CCDB_ASSIGN_OR_RETURN(bool more, child_->Next(&in));
  if (!more) return false;
  if (!expr_.has_value()) {
    *out = std::move(in);
    return true;
  }
  size_t index = chunk_index_++;
  if (scanned_ != nullptr && ctx_ != nullptr && ctx_->shared_scans != nullptr) {
    CCDB_ASSIGN_OR_RETURN(
        FilterCache::Positions positions,
        ctx_->shared_scans->Filter(*scanned_, scan_chunk_rows_, index, in,
                                   *expr_, ctx_));
    CCDB_ASSIGN_OR_RETURN(*out, in.Take(*positions));
    return true;
  }
  CCDB_ASSIGN_OR_RETURN(std::vector<uint32_t> positions,
                        EvalFilterPositions(in, *expr_, ctx_));
  CCDB_ASSIGN_OR_RETURN(*out, in.Take(positions));
  return true;
}

// --- JoinOp ------------------------------------------------------------------

JoinOp::JoinOp(std::unique_ptr<Operator> left, std::unique_ptr<Operator> right,
               std::string left_key, std::string right_key, JoinType join_type,
               JoinStrategy strategy, const MachineProfile& profile,
               JoinNodeInfo* info, const ExecContext* ctx,
               uint64_t est_result_rows, uint64_t est_probe_rows)
    : left_(std::move(left)),
      right_(std::move(right)),
      left_key_(std::move(left_key)),
      right_key_(std::move(right_key)),
      join_type_(join_type),
      strategy_(strategy),
      profile_(profile),
      info_(info),
      ctx_(ctx),
      est_result_rows_(est_result_rows),
      est_probe_rows_(est_probe_rows) {}

Status JoinOp::Open() {
  CCDB_RETURN_IF_ERROR(left_->Open());
  CCDB_RETURN_IF_ERROR(right_->Open());
  // Drain the inner (build) side, then plan the join for its *actual*
  // cardinality: the per-node cost-model consultation.
  std::vector<Chunk> inner_chunks;
  for (;;) {
    CCDB_RETURN_IF_ERROR(SchedCheck(ctx_));
    Chunk c;
    CCDB_ASSIGN_OR_RETURN(bool more, right_->Next(&c));
    if (!more) break;
    inner_chunks.push_back(std::move(c));
  }
  CCDB_ASSIGN_OR_RETURN(inner_, ConcatChunks(std::move(inner_chunks)));
  CCDB_ASSIGN_OR_RETURN(size_t rk, inner_.Find(right_key_));
  CCDB_ASSIGN_OR_RETURN(std::vector<uint32_t> keys, inner_.GatherU32(rk));
  inner_buns_.resize(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    inner_buns_[i] = {static_cast<oid_t>(i), keys[i]};
  }
  // An empty inner needs no clustering; the model's argmin is undefined at
  // C = 0.
  plan_ = inner_buns_.empty()
              ? PlanJoin(JoinStrategy::kSimpleHash, 0, profile_)
              : PlanJoin(strategy_, inner_buns_.size(), profile_);

  // Prepare the inner side exactly once for the chosen plan; probe chunks
  // reuse it. (This fixes the ROADMAP chunking defect: the full join kernel
  // used to re-cluster the inner for every probe chunk.) The build cost is
  // reported as the cluster_right phase, including the per-partition hash
  // tables that used to be rebuilt inside every chunk's join phase.
  DirectMemory mem;
  double prepare_ms = 0;
  switch (plan_.strategy) {
    case JoinStrategy::kSortMerge: {
      WallTimer t;
      inner_sorted_ = inner_buns_;
      QuickSortByTail(std::span<Bun>(inner_sorted_), mem);
      prepare_ms = t.ElapsedMillis();
      break;
    }
    case JoinStrategy::kSimpleHash: {
      WallTimer t;
      inner_table_.emplace(std::span<const Bun>(inner_buns_), /*shift=*/0,
                           kDefaultChainLength, mem);
      prepare_ms = t.ElapsedMillis();
      break;
    }
    default: {
      RadixClusterOptions opt{
          .bits = plan_.bits, .passes = plan_.passes, .bits_per_pass = {}};
      RadixClusterStats cs;
      CCDB_ASSIGN_OR_RETURN(
          inner_clustered_,
          (RadixCluster<DirectMemory, IdentityHash>(inner_buns_, opt, mem,
                                                    &cs)));
      inner_bounds_ = ClusterBounds<IdentityHash>(inner_clustered_);
      prepare_ms = cs.total_ms;
      if (!plan_.use_radix_join) {
        WallTimer t;
        size_t h = size_t{1} << plan_.bits;
        inner_tables_.resize(h);
        for (size_t c = 0; c < h; ++c) {
          size_t lo = inner_bounds_[c], hi = inner_bounds_[c + 1];
          if (hi == lo) continue;
          inner_tables_[c] = std::make_unique<InnerHashTable>(
              std::span<const Bun>(inner_clustered_.tuples.data() + lo,
                                   hi - lo),
              /*shift=*/plan_.bits, kDefaultChainLength, mem);
        }
        prepare_ms += t.ElapsedMillis();
      }
      break;
    }
  }

  if (info_ != nullptr) {
    info_->left_key = left_key_;
    info_->right_key = right_key_;
    info_->join_type = join_type_;
    info_->inner_cardinality = inner_buns_.size();
    info_->plan = plan_;
    info_->stats = JoinStats{};
    info_->stats.bits = plan_.bits;
    info_->stats.passes = plan_.passes;
    info_->stats.cluster_right_ms = prepare_ms;
    info_->inner_cluster_runs = 1;
    info_->partition_tasks = 0;
    info_->probe_chunks = 0;
    info_->parallelism = CtxParallelism(ctx_);
  }
  return Status::Ok();
}

void JoinOp::Close() {
  left_->Close();
  right_->Close();
  // Non-owning views (inner_table_, inner_tables_) go before their backing
  // stores.
  inner_table_.reset();
  inner_tables_.clear();
  inner_bounds_.clear();
  inner_clustered_ = ClusteredRelation{};
  inner_sorted_.clear();
  inner_ = Chunk{};
  inner_buns_.clear();
}

namespace {

/// Probe ranges per worker: enough slack that one slow range (a heavy inner
/// cluster, a descheduled worker) does not idle the others, few enough that
/// dispatch stays negligible next to the probe work it carries.
constexpr size_t kRangesPerWorker = 4;

/// Per-range match reserve: scale the planner's whole-join output estimate
/// down to this range's share of the probe side (clamped to 4x the range so
/// a bad overestimate cannot balloon the allocation); without an estimate,
/// the historical min(probe, inner) default.
size_t MatchReserveRows(size_t probe_rows, size_t inner_rows,
                        uint64_t est_result, uint64_t est_probe) {
  if (est_result > 0 && est_probe > 0) {
    double share = static_cast<double>(probe_rows) /
                   static_cast<double>(est_probe);
    double est = static_cast<double>(est_result) * share;
    double cap = static_cast<double>(probe_rows) * 4.0;
    return static_cast<size_t>(std::min(est, cap));
  }
  return std::min(probe_rows, inner_rows);
}

}  // namespace

StatusOr<JoinOp::MatchParts> JoinOp::ProbeRanges(
    size_t n, const std::function<Status(size_t, size_t, BunVec*)>& body)
    const {
  // No probe tuples, no ranges: a chunk filtered to nothing dispatches (and
  // counts) no task.
  if (n == 0) return MatchParts{};
  size_t ranges = CtxShards(ctx_, n, kRangesPerWorker);
  MatchParts parts(ranges);
  CCDB_RETURN_IF_ERROR(ExecParallelFor(ctx_, ranges, [&](size_t r) -> Status {
    size_t lo = n * r / ranges;
    size_t hi = n * (r + 1) / ranges;
    parts[r].reserve(MatchReserveRows(hi - lo, inner_buns_.size(),
                                      est_result_rows_, est_probe_rows_));
    return body(lo, hi, &parts[r]);
  }));
  if (info_ != nullptr) info_->partition_tasks += ranges;
  return parts;
}

StatusOr<JoinOp::MatchParts> JoinOp::ProbeSimpleHash(
    std::span<const Bun> probe) const {
  return ProbeRanges(probe.size(), [&](size_t lo, size_t hi,
                                       BunVec* out) -> Status {
    DirectMemory mem;
    for (size_t i = lo; i < hi; ++i) {
      Bun lt = probe[i];
      inner_table_->Probe(lt, mem, [&](Bun rt) {
        out->push_back({lt.head, rt.head});
      });
    }
    return Status::Ok();
  });
}

StatusOr<JoinOp::MatchParts> JoinOp::JoinClusteredChunk(
    std::span<const Bun> probe) const {
  // The probe is clustered on the top bits of B only, so each probe tuple
  // looks up its own B-bit inner cluster (bounds from Open()). Those
  // lookups stay inside the contiguous run of inner clusters its probe
  // cluster maps to, which is what keeps them cache-resident. Ranges cut
  // the chunk by probe-tuple position, so they are balanced however skewed
  // the clusters are.
  const uint32_t mask = LowMask32(plan_.bits);
  const bool radix = plan_.use_radix_join;
  return ProbeRanges(probe.size(), [&](size_t lo, size_t hi,
                                       BunVec* out) -> Status {
    DirectMemory mem;
    for (size_t a = lo; a < hi; ++a) {
      Bun lt = probe[a];
      uint32_t h = IdentityHash::Hash(lt.tail) & mask;
      uint64_t r_lo = inner_bounds_[h], r_hi = inner_bounds_[h + 1];
      if (r_hi == r_lo) continue;
      if (radix) {
        // Radix-join: B was chosen so inner clusters hold a few tuples;
        // nested loop.
        for (uint64_t b = r_lo; b < r_hi; ++b) {
          const Bun& rt = inner_clustered_.tuples[b];
          if (lt.tail == rt.tail) out->push_back({lt.head, rt.head});
        }
        continue;
      }
      // Partitioned hash-join: probe the partition's prebuilt table.
      const InnerHashTable* table = inner_tables_[h].get();
      if (table == nullptr) {
        return Status::Internal("missing partition hash table");
      }
      table->Probe(lt, mem, [&](Bun rt) {
        out->push_back({lt.head, rt.head});
      });
    }
    return Status::Ok();
  });
}

StatusOr<bool> JoinOp::Next(Chunk* out) {
  Chunk probe;
  CCDB_ASSIGN_OR_RETURN(bool more, left_->Next(&probe));
  if (!more) return false;
  CCDB_ASSIGN_OR_RETURN(size_t lk, probe.Find(left_key_));
  CCDB_ASSIGN_OR_RETURN(std::vector<uint32_t> keys, probe.GatherU32(lk));
  std::vector<Bun> probe_buns(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    probe_buns[i] = {static_cast<oid_t>(i), keys[i]};
  }
  JoinStats stats;
  MatchParts matches;
  switch (plan_.strategy) {
    case JoinStrategy::kSortMerge: {
      DirectMemory mem;
      WallTimer t_sort;
      // The bun heads carry the chunk positions, so sorting in place loses
      // nothing — probe_buns is not read again after the merge.
      QuickSortByTail(std::span<Bun>(probe_buns), mem);
      stats.cluster_left_ms = t_sort.ElapsedMillis();
      WallTimer t_join;
      BunVec& merged = matches.emplace_back();
      merged.reserve(MatchReserveRows(probe_buns.size(), inner_sorted_.size(),
                                      est_result_rows_, est_probe_rows_));
      MergeSortedByTail<DirectMemory>(probe_buns, inner_sorted_, mem, merged);
      stats.join_ms = t_join.ElapsedMillis();
      break;
    }
    case JoinStrategy::kSimpleHash: {
      WallTimer t;
      CCDB_ASSIGN_OR_RETURN(matches, ProbeSimpleHash(probe_buns));
      stats.join_ms = t.ElapsedMillis();
      break;
    }
    default: {
      // Only the cache-sized probe chunk is clustered per Next(), in one
      // pass on the top ProbeClusterBits of B; the inner stays clustered on
      // all B bits from Open().
      DirectMemory mem;
      int bits = ProbeClusterBits(plan_, probe_buns.size());
      BunVec clustered(probe_buns.size());
      WallTimer t_cluster;
      RadixClusterPass<DirectMemory, IdentityHash>(
          probe_buns, clustered, plan_.bits - bits, bits, mem);
      stats.cluster_left_ms = t_cluster.ElapsedMillis();
      WallTimer t;
      CCDB_ASSIGN_OR_RETURN(matches, JoinClusteredChunk(clustered));
      stats.join_ms = t.ElapsedMillis();
      break;
    }
  }
  // The match list [probe position, inner position] — the parts above, in
  // order — becomes an output chunk according to the join type; the
  // prepared inner and probe phases above are identical for all four types.
  size_t num_matches = 0;
  for (const BunVec& part : matches) num_matches += part.size();
  switch (join_type_) {
    case JoinType::kInner: {
      // Take each side through its positions, then zip the column sets.
      // Both sides stay lazy — the join produced nothing but two candidate
      // lists.
      std::vector<uint32_t> lpos, rpos;
      lpos.reserve(num_matches);
      rpos.reserve(num_matches);
      for (const BunVec& part : matches) {
        for (const Bun& m : part) {
          lpos.push_back(m.head);
          rpos.push_back(m.tail);
        }
      }
      CCDB_ASSIGN_OR_RETURN(Chunk lpart, probe.Take(lpos));
      CCDB_ASSIGN_OR_RETURN(Chunk rpart, inner_.Take(rpos));
      out->rows = num_matches;
      out->cands = std::move(lpart.cands);
      size_t shift = out->cands.size();
      for (Candidates& cd : rpart.cands) out->cands.push_back(std::move(cd));
      out->cols = std::move(lpart.cols);
      for (ChunkColumn& c : rpart.cols) {
        if (c.lazy()) c.cand_slot += shift;
        out->cols.push_back(std::move(c));
      }
      break;
    }
    case JoinType::kSemi:
    case JoinType::kAnti: {
      // A filter on the probe side: emit probe rows with (semi) / without
      // (anti) a match, in probe order — each row at most once.
      std::vector<uint8_t> matched(probe.rows, 0);
      for (const BunVec& part : matches) {
        for (const Bun& m : part) matched[m.head] = 1;
      }
      const uint8_t want = join_type_ == JoinType::kSemi ? 1 : 0;
      std::vector<uint32_t> positions;
      for (size_t i = 0; i < probe.rows; ++i) {
        if (matched[i] == want) positions.push_back(static_cast<uint32_t>(i));
      }
      CCDB_ASSIGN_OR_RETURN(*out, probe.Take(positions));
      break;
    }
    case JoinType::kLeftOuter: {
      // Restore probe order with a stable counting scatter on the probe
      // position (matches arrive in radix order, which is deterministic, so
      // the scatter is too), reserving one null slot per unmatched probe
      // row.
      std::vector<uint32_t> start(probe.rows + 1, 0);
      for (const BunVec& part : matches) {
        for (const Bun& m : part) ++start[m.head + 1];
      }
      for (size_t i = 0; i < probe.rows; ++i) {
        uint32_t slots = std::max<uint32_t>(start[i + 1], 1);
        start[i + 1] = start[i] + slots;
      }
      std::vector<uint32_t> lpos(start[probe.rows]), rpos(start[probe.rows]);
      std::vector<uint8_t> valid(start[probe.rows], 0);
      for (size_t i = 0; i < probe.rows; ++i) {
        for (uint32_t k = start[i]; k < start[i + 1]; ++k) {
          lpos[k] = static_cast<uint32_t>(i);
        }
      }
      std::vector<uint32_t> next(start.begin(), start.end() - 1);
      for (const BunVec& part : matches) {
        for (const Bun& m : part) {
          uint32_t k = next[m.head]++;
          rpos[k] = m.tail;
          valid[k] = 1;
        }
      }
      CCDB_ASSIGN_OR_RETURN(Chunk lpart, probe.Take(lpos));
      CCDB_ASSIGN_OR_RETURN(std::vector<ChunkColumn> rcols,
                            TakeInnerWithNulls(rpos, valid));
      out->rows = lpos.size();
      out->cands = std::move(lpart.cands);
      out->cols = std::move(lpart.cols);
      for (ChunkColumn& c : rcols) out->cols.push_back(std::move(c));
      break;
    }
  }
  stats.result_count = out->rows;
  if (info_ != nullptr) {
    ++info_->probe_chunks;
    info_->stats.cluster_left_ms += stats.cluster_left_ms;
    info_->stats.cluster_right_ms += stats.cluster_right_ms;
    info_->stats.join_ms += stats.join_ms;
    info_->stats.result_count += stats.result_count;
  }
  return true;
}

StatusOr<std::vector<ChunkColumn>> JoinOp::TakeInnerWithNulls(
    std::span<const uint32_t> rpos, std::span<const uint8_t> valid) const {
  // Gather each inner column once through rpos into an owned column (owned
  // always, so every chunk of a left-outer join has the same layout), with
  // the type's surrogate in null slots. Lazy columns read their base
  // through the inner's candidates remapped to rpos; owned columns are read
  // at rpos in place. An empty inner leaves every slot null.
  const size_t n = rpos.size();
  Chunk at_rpos;
  if (inner_.rows > 0) {
    at_rpos.rows = n;
    for (const Candidates& cd : inner_.cands) {
      std::vector<oid_t> oids(n);
      for (size_t i = 0; i < n; ++i) oids[i] = cd.Get(rpos[i]);
      at_rpos.cands.push_back(Candidates::FromOids(std::move(oids)));
    }
    at_rpos.cols = inner_.cols;
  }
  std::vector<ChunkColumn> out;
  out.reserve(inner_.cols.size());
  for (size_t c = 0; c < inner_.cols.size(); ++c) {
    const ChunkColumn& col = inner_.cols[c];
    auto values = VisitValueType(
        inner_.TypeOf(c), [&](auto tag) -> StatusOr<Column> {
          using T = decltype(tag);
          // T{} is the null surrogate: 0, 0.0 or "".
          std::vector<T> v(n);
          if (inner_.rows == 0) return MakeColumn(v);
          if (col.lazy()) {
            CCDB_ASSIGN_OR_RETURN(v, GatherAs<T>(at_rpos, c));
            for (size_t i = 0; i < n; ++i) {
              if (!valid[i]) v[i] = T{};
            }
          } else {
            auto at = OwnedReader<T>(*col.owned);
            for (size_t i = 0; i < n; ++i) {
              if (valid[i]) v[i] = T(at(rpos[i]));
            }
          }
          return MakeColumn(v);
        });
    if (!values.ok()) return values.status();
    ChunkColumn taken;
    taken.name = col.name;
    taken.owned = std::make_shared<const Column>(*std::move(values));
    out.push_back(std::move(taken));
  }
  return out;
}

// --- ProjectOp ---------------------------------------------------------------

ProjectOp::ProjectOp(std::unique_ptr<Operator> child,
                     std::vector<std::string> columns)
    : child_(std::move(child)), columns_(std::move(columns)) {}

Status ProjectOp::Open() { return child_->Open(); }
void ProjectOp::Close() { child_->Close(); }

StatusOr<bool> ProjectOp::Next(Chunk* out) {
  Chunk in;
  CCDB_ASSIGN_OR_RETURN(bool more, child_->Next(&in));
  if (!more) return false;
  out->rows = in.rows;
  out->cols.clear();
  out->cands.clear();
  // Keep only the candidate slots the projected columns still use.
  std::vector<size_t> slot_map(in.cands.size(), SIZE_MAX);
  for (const std::string& name : columns_) {
    CCDB_ASSIGN_OR_RETURN(size_t ci, in.Find(name));
    ChunkColumn col = in.cols[ci];
    if (col.lazy()) {
      if (slot_map[col.cand_slot] == SIZE_MAX) {
        slot_map[col.cand_slot] = out->cands.size();
        out->cands.push_back(in.cands[col.cand_slot]);
      }
      col.cand_slot = slot_map[col.cand_slot];
    }
    out->cols.push_back(std::move(col));
  }
  return true;
}

// --- GroupByAggOp ------------------------------------------------------------

GroupByAggOp::GroupByAggOp(std::unique_ptr<Operator> child,
                           std::vector<std::string> group_cols,
                           std::vector<AggSpec> aggs, const ExecContext* ctx,
                           size_t expected_groups)
    : child_(std::move(child)),
      group_cols_(std::move(group_cols)),
      aggs_(std::move(aggs)),
      ctx_(ctx),
      expected_groups_(expected_groups) {}

Status GroupByAggOp::Open() {
  done_ = false;
  return child_->Open();
}
void GroupByAggOp::Close() { child_->Close(); }

StatusOr<bool> GroupByAggOp::Next(Chunk* out) {
  if (done_) return false;
  done_ = true;

  const size_t kw = group_cols_.size();
  // Distinct value columns, in first-use order: several aggregates over the
  // same column (min+max+avg) share one accumulator slot.
  std::vector<std::string> value_cols;
  std::vector<size_t> agg_value_idx(aggs_.size(), SIZE_MAX);
  for (size_t a = 0; a < aggs_.size(); ++a) {
    if (aggs_[a].func == AggFunc::kCount) continue;
    size_t v = 0;
    while (v < value_cols.size() && value_cols[v] != aggs_[a].value_col) ++v;
    if (v == value_cols.size()) value_cols.push_back(aggs_[a].value_col);
    agg_value_idx[a] = v;
  }
  const size_t nv = value_cols.size();

  // One group table per worker shard, persistent across chunks. At
  // parallelism 1 the single table sees rows in stream order — byte
  // identical to a serial reference; shard merging (parallelism > 1) may
  // emit groups in a different (still deterministic) order.
  size_t nshards =
      (ctx_ != nullptr && ctx_->parallel()) ? ctx_->parallelism : 1;
  // Every shard may see every group, so each partial gets the full
  // planner-estimated capacity (rehash-free growth when the estimate
  // holds), bounded so a wild overestimate (the estimator's all-distinct
  // fallback on a stats-less key) cannot allocate nshards x estimate
  // upfront — past the cap, demand-grown rehashing costs one rebuild per
  // 4x anyway. Shards are emplaced individually: copying a prototype
  // through the vector fill-constructor would drop its reservations.
  constexpr size_t kMaxGroupHint = size_t{1} << 20;
  const size_t hint = std::min(expected_groups_, kMaxGroupHint);
  std::vector<GroupAggTable> partials;
  partials.reserve(nshards);
  for (size_t s = 0; s < nshards; ++s) {
    partials.emplace_back(kw, nv, hint);
  }

  // Dictionaries for decoding encoded group columns on emission.
  std::vector<const Table*> dict_tables(kw, nullptr);
  std::vector<size_t> dict_cols(kw, 0);

  for (;;) {
    // Blocking consume loop: the plan's per-chunk deadline/cancel poll in
    // PhysicalPlan::Execute never fires while we drain the child, so poll
    // here (serial shards skip ExecParallelFor's per-morsel check too).
    CCDB_RETURN_IF_ERROR(SchedCheck(ctx_));
    Chunk in;
    CCDB_ASSIGN_OR_RETURN(bool more, child_->Next(&in));
    if (!more) break;
    // For encoded group columns GatherU32 reads the 1-2 byte codes — the
    // aggregate groups on codes and decodes only the final group keys.
    std::vector<std::vector<uint32_t>> keys(kw), vals(nv);
    for (size_t c = 0; c < kw; ++c) {
      CCDB_ASSIGN_OR_RETURN(size_t gi, in.Find(group_cols_[c]));
      const ChunkColumn& gcol = in.cols[gi];
      if (gcol.lazy() && gcol.base->is_encoded(gcol.base_col)) {
        dict_tables[c] = gcol.base;
        dict_cols[c] = gcol.base_col;
      }
      CCDB_ASSIGN_OR_RETURN(keys[c], in.GatherU32(gi));
    }
    for (size_t v = 0; v < nv; ++v) {
      CCDB_ASSIGN_OR_RETURN(size_t vi, in.Find(value_cols[v]));
      CCDB_ASSIGN_OR_RETURN(vals[v], in.GatherU32(vi));
    }
    const size_t n = in.rows;
    auto add_range = [&](GroupAggTable& table, size_t lo, size_t hi) {
      std::vector<uint32_t> kbuf(kw), vbuf(nv);
      for (size_t i = lo; i < hi; ++i) {
        for (size_t c = 0; c < kw; ++c) kbuf[c] = keys[c][i];
        for (size_t v = 0; v < nv; ++v) vbuf[v] = vals[v][i];
        table.Add(kbuf.data(), vbuf.data());
      }
    };
    size_t shards = nshards == 1 ? 1 : CtxShards(ctx_, n);
    if (shards <= 1) {
      add_range(partials[0], 0, n);
    } else {
      CCDB_RETURN_IF_ERROR(
          ExecParallelFor(ctx_, shards, [&](size_t s) -> Status {
            add_range(partials[s], n * s / shards, n * (s + 1) / shards);
            return Status::Ok();
          }));
    }
  }

  for (size_t s = 1; s < nshards; ++s) partials[0].MergeFrom(partials[s]);
  const GroupAggTable& agg = partials[0];
  const size_t ngroups = agg.num_groups();

  out->rows = ngroups;
  out->cands.clear();
  out->cols.clear();
  for (size_t c = 0; c < kw; ++c) {
    ChunkColumn group;
    group.name = group_cols_[c];
    if (dict_tables[c] != nullptr) {
      const StrDictionary& dict = dict_tables[c]->dict(dict_cols[c]);
      std::vector<std::string> decoded(ngroups);
      for (size_t g = 0; g < ngroups; ++g) {
        uint32_t code = agg.key(g, c);
        if (code >= dict.size()) {
          return Status::Internal("group code beyond dictionary");
        }
        decoded[g] = std::string(dict.Get(code));
      }
      group.owned = std::make_shared<const Column>(Column::Str(decoded));
    } else {
      std::vector<uint32_t> raw(ngroups);
      for (size_t g = 0; g < ngroups; ++g) raw[g] = agg.key(g, c);
      group.owned = std::make_shared<const Column>(Column::U32(std::move(raw)));
    }
    out->cols.push_back(std::move(group));
  }
  for (size_t a = 0; a < aggs_.size(); ++a) {
    ChunkColumn col;
    col.name = aggs_[a].output_name;
    const size_t v = agg_value_idx[a];
    switch (aggs_[a].func) {
      case AggFunc::kSum: {
        std::vector<int64_t> sums(ngroups);
        for (size_t g = 0; g < ngroups; ++g) {
          // The unchecked u64 -> i64 narrowing used to wrap into negative
          // sums here; surface overflow instead.
          CCDB_ASSIGN_OR_RETURN(sums[g], CheckedI64(agg.state(g, v).sum));
        }
        col.owned =
            std::make_shared<const Column>(Column::I64(std::move(sums)));
        break;
      }
      case AggFunc::kCount: {
        std::vector<int64_t> counts(ngroups);
        for (size_t g = 0; g < ngroups; ++g) {
          CCDB_ASSIGN_OR_RETURN(counts[g], CheckedI64(agg.group_rows(g)));
        }
        col.owned =
            std::make_shared<const Column>(Column::I64(std::move(counts)));
        break;
      }
      case AggFunc::kMin:
      case AggFunc::kMax: {
        const bool is_min = aggs_[a].func == AggFunc::kMin;
        std::vector<uint32_t> ext(ngroups);
        for (size_t g = 0; g < ngroups; ++g) {
          ext[g] = is_min ? agg.state(g, v).min : agg.state(g, v).max;
        }
        col.owned =
            std::make_shared<const Column>(Column::U32(std::move(ext)));
        break;
      }
      case AggFunc::kAvg: {
        std::vector<double> avgs(ngroups);
        for (size_t g = 0; g < ngroups; ++g) {
          avgs[g] = static_cast<double>(agg.state(g, v).sum) /
                    static_cast<double>(agg.group_rows(g));
        }
        col.owned =
            std::make_shared<const Column>(Column::F64(std::move(avgs)));
        break;
      }
    }
    out->cols.push_back(std::move(col));
  }
  return true;
}

// --- OrderByOp ---------------------------------------------------------------

OrderByOp::OrderByOp(std::unique_ptr<Operator> child, std::string column,
                     bool descending, const ExecContext* ctx)
    : child_(std::move(child)),
      column_(std::move(column)),
      descending_(descending),
      ctx_(ctx) {}

Status OrderByOp::Open() {
  done_ = false;
  return child_->Open();
}
void OrderByOp::Close() { child_->Close(); }

StatusOr<bool> OrderByOp::Next(Chunk* out) {
  if (done_) return false;
  done_ = true;
  std::vector<Chunk> chunks;
  for (;;) {
    CCDB_RETURN_IF_ERROR(SchedCheck(ctx_));
    Chunk c;
    CCDB_ASSIGN_OR_RETURN(bool more, child_->Next(&c));
    if (!more) break;
    chunks.push_back(std::move(c));
  }
  CCDB_ASSIGN_OR_RETURN(Chunk all, ConcatChunks(std::move(chunks)));
  CCDB_ASSIGN_OR_RETURN(size_t ci, all.Find(column_));
  std::vector<uint32_t> positions(all.rows);
  for (size_t i = 0; i < positions.size(); ++i) {
    positions[i] = static_cast<uint32_t>(i);
  }
  auto argsort = [&](const auto& keys) -> Status {
    const bool desc = descending_;
    auto cmp = [&keys, desc](uint32_t a, uint32_t b) {
      return desc ? keys[b] < keys[a] : keys[a] < keys[b];
    };
    size_t shards = CtxShards(ctx_, positions.size());
    if (shards <= 1) {
      std::stable_sort(positions.begin(), positions.end(), cmp);
      return Status::Ok();
    }
    // Parallel merge sort: stable-sort contiguous shards on the pool, then
    // fold left to right. inplace_merge takes from the left run on ties —
    // exactly stable_sort's tie-break — so any parallelism produces the
    // byte-identical permutation.
    std::vector<std::ptrdiff_t> bounds(shards + 1);
    for (size_t s = 0; s <= shards; ++s) {
      bounds[s] = static_cast<std::ptrdiff_t>(positions.size() * s / shards);
    }
    CCDB_RETURN_IF_ERROR(
        ExecParallelFor(ctx_, shards, [&](size_t s) -> Status {
          std::stable_sort(positions.begin() + bounds[s],
                           positions.begin() + bounds[s + 1], cmp);
          return Status::Ok();
        }));
    for (size_t s = 1; s < shards; ++s) {
      std::inplace_merge(positions.begin(), positions.begin() + bounds[s],
                         positions.begin() + bounds[s + 1], cmp);
    }
    return Status::Ok();
  };
  CCDB_RETURN_IF_ERROR(
      VisitValueType(all.TypeOf(ci), [&](auto tag) -> Status {
        CCDB_ASSIGN_OR_RETURN(std::vector<decltype(tag)> keys,
                              GatherAs<decltype(tag)>(all, ci));
        return argsort(keys);
      }));
  CCDB_ASSIGN_OR_RETURN(*out, all.Take(positions));
  return true;
}

// --- LimitOp -----------------------------------------------------------------

LimitOp::LimitOp(std::unique_ptr<Operator> child, size_t limit, size_t offset)
    : child_(std::move(child)), limit_(limit), offset_(offset) {}

Status LimitOp::Open() {
  skipped_ = 0;
  emitted_ = 0;
  emitted_chunk_ = false;
  return child_->Open();
}
void LimitOp::Close() { child_->Close(); }

StatusOr<bool> LimitOp::Next(Chunk* out) {
  // Once the limit is reached, stop pulling from the child — but only
  // after at least one (possibly zero-row) chunk carried the layout
  // downstream. This must not depend on emitted_ > 0: Limit(0) reaches its
  // limit immediately and used to drain the whole child instead.
  if (emitted_chunk_ && emitted_ >= limit_) return false;
  Chunk in;
  CCDB_ASSIGN_OR_RETURN(bool more, child_->Next(&in));
  if (!more) return false;
  size_t skip = std::min(offset_ - skipped_, in.rows);
  skipped_ += skip;
  size_t take = std::min(in.rows - skip, limit_ - emitted_);
  emitted_ += take;
  std::vector<uint32_t> positions(take);
  for (size_t i = 0; i < take; ++i) {
    positions[i] = static_cast<uint32_t>(skip + i);
  }
  CCDB_ASSIGN_OR_RETURN(*out, in.Take(positions));
  emitted_chunk_ = true;
  return true;
}

}  // namespace ccdb
