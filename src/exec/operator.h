// Physical operators: Open/Next/Close over BAT chunks (Volcano-shaped, but
// column-at-a-time inside each chunk, as §3.1 prescribes). The payload
// flowing between operators is a Chunk — a set of aligned columns that are
// usually *not* materialized: each lazy column is a pointer into a base
// table plus a shared candidate list (selection vector of OIDs), so a
// Select pipelines into a Join or an aggregate by narrowing the candidate
// list, and tuple reconstruction stays the free positional lookup the paper
// describes (footnote 2). Only pipeline breakers (group-by, order-by) and
// the final result materialize values.
#ifndef CCDB_EXEC_OPERATOR_H_
#define CCDB_EXEC_OPERATOR_H_

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "algo/aggregate.h"
#include "algo/hash_table.h"
#include "algo/radix_cluster.h"
#include "exec/exec_context.h"
#include "exec/plan.h"
#include "exec/result.h"
#include "exec/table.h"
#include "model/strategy.h"

namespace ccdb {

/// A candidate list: the OIDs (into one base table) that survive upstream
/// operators. `oids == nullptr` means the dense virtual sequence
/// [base, base+count) — a void candidate column costing no memory.
struct Candidates {
  std::shared_ptr<const std::vector<oid_t>> oids;
  oid_t base = 0;
  size_t count = 0;

  static Candidates Dense(oid_t base, size_t count) {
    Candidates c;
    c.base = base;
    c.count = count;
    return c;
  }
  static Candidates FromOids(std::vector<oid_t> v) {
    Candidates c;
    c.count = v.size();
    c.oids = std::make_shared<const std::vector<oid_t>>(std::move(v));
    return c;
  }

  bool dense() const { return oids == nullptr; }
  oid_t Get(size_t i) const {
    return dense() ? static_cast<oid_t>(base + i) : (*oids)[i];
  }
};

/// One column visible in a chunk: either a lazy reference to a base-table
/// BAT, resolved through the chunk's candidate list number `cand_slot`, or
/// a Column materialized by an upstream pipeline breaker.
struct ChunkColumn {
  std::string name;
  const Table* base = nullptr;  // lazy: base table ...
  size_t base_col = 0;          //   ... column index ...
  size_t cand_slot = 0;         //   ... resolved through chunk.cands[slot]
  std::shared_ptr<const Column> owned;  // materialized (null when lazy)

  bool lazy() const { return owned == nullptr; }
};

/// A batch of rows flowing between operators. All columns are positionally
/// aligned; lazy columns from the same base-table side share one entry of
/// `cands` (so a join result carries exactly two candidate lists no matter
/// how many columns are later touched).
struct Chunk {
  size_t rows = 0;
  std::vector<ChunkColumn> cols;
  std::vector<Candidates> cands;

  StatusOr<size_t> Find(const std::string& name) const;

  /// Logical value type of column `c` (kU32 / kI64 / kF64 / kStr).
  PhysType TypeOf(size_t c) const;

  // Gathers (tuple reconstruction): materialize column `c` through its
  // candidate list. Encoded string columns decode via the dictionary.
  StatusOr<std::vector<uint32_t>> GatherU32(size_t c) const;
  StatusOr<std::vector<int64_t>> GatherI64(size_t c) const;
  StatusOr<std::vector<double>> GatherF64(size_t c) const;
  StatusOr<std::vector<std::string>> GatherStr(size_t c) const;

  /// Rows at `positions` (indices into this chunk, duplicates allowed —
  /// a join's take). Candidate lists are remapped, owned columns compacted.
  StatusOr<Chunk> Take(std::span<const uint32_t> positions) const;

  /// Appends column `c`'s values for all rows onto `out` (decoding strings,
  /// widening integrals) — the final materialization step.
  Status AppendTo(size_t c, MaterializedColumn* out) const;
};

/// Concatenates chunks with identical layout (same names, same lazy/owned
/// shape) into one; used by pipeline breakers.
StatusOr<Chunk> ConcatChunks(std::vector<Chunk> chunks);

/// Dispatches a resolved JoinPlan to the concrete join kernel over raw BUN
/// spans. JoinOp runs every join through it; benches and tests call it to
/// drive one kernel without building a plan.
StatusOr<std::vector<Bun>> ExecuteJoinPlan(std::span<const Bun> l,
                                           std::span<const Bun> r,
                                           const JoinPlan& plan,
                                           JoinStats* stats = nullptr);

/// The physical operator interface. Lifecycle: Open() once, Next() until it
/// returns false, Close() once. Next() fills `out` with the next chunk.
/// Every operator emits at least one (possibly zero-row) chunk, so
/// downstream operators always learn their input layout.
class Operator {
 public:
  virtual ~Operator() = default;
  virtual Status Open() = 0;
  virtual StatusOr<bool> Next(Chunk* out) = 0;
  virtual void Close() = 0;
};

/// Per-join diagnostics a physical plan records at Open() time: the actual
/// inner cardinality and the JoinPlan the cost model chose for it.
struct JoinNodeInfo {
  std::string left_key, right_key;
  JoinType join_type = JoinType::kInner;
  uint64_t inner_cardinality = 0;
  JoinPlan plan;
  JoinStats stats;  // accumulated over probe chunks

  /// The planner's pre-execution estimates for this node (model/estimator.h)
  /// — what the join order and the sizing hints were decided from. The
  /// actuals above verify them after the fact.
  uint64_t estimated_inner_cardinality = 0;
  uint64_t estimated_probe_cardinality = 0;
  uint64_t estimated_result_rows = 0;
  /// True when join-chain reordering moved this join away from the position
  /// the query was written in.
  bool reordered = false;

  /// Times the inner (build) side was reorganized — clustered, sorted, or
  /// hash-table-built. Always 1 after Open(): the inner is prepared once
  /// and reused across every probe chunk.
  int inner_cluster_runs = 0;
  /// Probe range tasks dispatched across all probe chunks — the
  /// independent parallel units of the hash and partitioned joins. Each is
  /// a contiguous range of the chunk's probe tuples (in radix order when
  /// clustered), about parallelism x 4 per chunk, one when serial.
  uint64_t partition_tasks = 0;
  /// Probe chunks the join consumed (empty ones included): the bound on
  /// partition_tasks is probe_chunks x parallelism x 8.
  uint64_t probe_chunks = 0;
  /// Worker budget the join ran with (ExecContext::parallelism).
  size_t parallelism = 1;
};

// --- concrete operators ------------------------------------------------------

/// Leaf: emits the base table as lazy columns over dense candidate lists,
/// `chunk_rows` rows at a time (SIZE_MAX = whole-BAT-at-a-time, the paper's
/// full-materialization model).
class ScanOp : public Operator {
 public:
  ScanOp(const Table* table, size_t chunk_rows);
  Status Open() override;
  StatusOr<bool> Next(Chunk* out) override;
  void Close() override {}

 private:
  const Table* table_;
  size_t chunk_rows_;
  size_t pos_ = 0;
  bool emitted_ = false;
};

/// Filter: evaluates a typed expression tree (exec/expr.h) through the
/// candidate list (predicate remap for encoded columns) and narrows the
/// chunk — no values are materialized and no intermediate BAT exists at any
/// point. Conjunctions run as one fused candidate pass: the first conjunct
/// scans the chunk's candidate range, every subsequent conjunct narrows the
/// surviving position list without re-scanning the chunk. Disjunctions
/// evaluate every branch over the same input candidates and merge-union the
/// sorted position lists (UnionSortedPositions), so a position matching
/// several branches survives exactly once. Leaves lower to disjoint u32
/// range sets on the value (or dictionary-code) domain where possible —
/// `x != 7` is two ranges, a negated Between or an IN-list a few more —
/// evaluated by the candidate-list union kernels; owned columns (aggregate
/// output) evaluate on their spans in place, and other shapes fall back to
/// a candidate-bounded gather. With a parallel ExecContext each leaf pass
/// splits into cache-sized morsels evaluated on the pool; morsel results
/// concatenate in morsel order, so output is byte-identical at any
/// parallelism.
///
/// The expression is normalized (NNF) and its conjuncts
/// selectivity-ordered on construction; SelectOp also serves Having nodes,
/// whose owned aggregate columns take the in-place span path.
class SelectOp : public Operator {
 public:
  /// `scanned`: the base table when `child` is that table's ScanOp with
  /// `scan_chunk_rows`. With ctx->shared_scans bound, such a Select takes
  /// each chunk's survivors from the FilterCache (exec/filter_cache.h).
  SelectOp(std::unique_ptr<Operator> child, Expr expr,
           const ExecContext* ctx = nullptr, const Table* scanned = nullptr,
           size_t scan_chunk_rows = 0);
  Status Open() override;
  StatusOr<bool> Next(Chunk* out) override;
  void Close() override;

  /// The normalized, selectivity-ordered expression this operator actually
  /// executes (nullopt: pass-through). The planner's ExplainFilters()
  /// report is derived from this, so the diagnostics cannot diverge from
  /// execution.
  const std::optional<Expr>& expr() const { return expr_; }

 private:
  std::unique_ptr<Operator> child_;
  std::optional<Expr> expr_;  // nullopt: pass-through (empty conjunction)
  const ExecContext* ctx_;
  const Table* scanned_ = nullptr;
  size_t scan_chunk_rows_ = 0;
  size_t chunk_index_ = 0;  // chunks pulled since Open()
};

/// Evaluates a normalized filter over a whole chunk, returning ascending,
/// duplicate-free chunk positions — exactly SelectOp's evaluation (same
/// kernels, same morsel-parallel splitting under `ctx`, same NaN and
/// encoded-string semantics).
StatusOr<std::vector<uint32_t>> EvalFilterPositions(const Chunk& chunk,
                                                    const Expr& normalized,
                                                    const ExecContext* ctx);

/// Equi-join. Open() drains the inner (right) child, asks the cost model
/// for a JoinPlan at the *actual* inner cardinality (recorded into `info`),
/// and prepares the inner side exactly once for that plan: radix-clustered
/// (plus per-partition hash tables for the phash family), sorted, or
/// hash-table-built — never redone per probe chunk. Next() probes with one
/// outer chunk at a time, split into about parallelism x 4 contiguous
/// ranges of (clustered) probe tuples run on the ExecContext's pool; range
/// results are read in range order, so join output is byte-identical at
/// any parallelism.
///
/// All four JoinTypes probe the same prepared-once inner structures; they
/// differ only in how the per-chunk match list becomes an output chunk:
///  - kInner: matching pairs in the probe chunk's cluster order; both sides
///    stay lazy — the join only produces two candidate lists.
///  - kSemi / kAnti: probe rows with / without a match, in probe order;
///    only left columns (and candidate lists) survive.
///  - kLeftOuter: matches sorted to probe order with unmatched probe rows
///    interleaved; right-side columns are materialized (decoded), with
///    type defaults (0 / 0.0 / "") standing in for nulls.
class JoinOp : public Operator {
 public:
  /// `est_result_rows` is the planner's estimated join output (0 = no
  /// estimate): per-chunk match buffers are pre-sized from it instead of
  /// the inner-cardinality default.
  JoinOp(std::unique_ptr<Operator> left, std::unique_ptr<Operator> right,
         std::string left_key, std::string right_key, JoinType join_type,
         JoinStrategy strategy, const MachineProfile& profile,
         JoinNodeInfo* info, const ExecContext* ctx = nullptr,
         uint64_t est_result_rows = 0, uint64_t est_probe_rows = 0);
  Status Open() override;
  StatusOr<bool> Next(Chunk* out) override;
  void Close() override;

 private:
  using InnerHashTable = BucketChainedHashTable<DirectMemory, IdentityHash>;

  /// A chunk's [probe position, inner position] match list, as per-range
  /// parts: their concatenation in order is the list.
  using MatchParts = std::vector<BunVec>;

  /// Runs `body(lo, hi, out)` over contiguous ranges of the n probe tuples
  /// on the pool — about parallelism x 4 ranges, none under a morsel — each
  /// appending its matches to its own part. Counts the ranges into
  /// `info_->partition_tasks`.
  StatusOr<MatchParts> ProbeRanges(
      size_t n,
      const std::function<Status(size_t, size_t, BunVec*)>& body) const;
  /// Joins one probe chunk, clustered on the top ProbeClusterBits of B,
  /// against the B-bit clustered inner, over ProbeRanges; matches come out
  /// in the chunk's cluster order.
  StatusOr<MatchParts> JoinClusteredChunk(std::span<const Bun> probe) const;
  /// Probes the single Open()-built table with one chunk, over ProbeRanges.
  StatusOr<MatchParts> ProbeSimpleHash(std::span<const Bun> probe) const;

  /// Right-side columns for a left-outer output chunk: inner row `rpos[i]`
  /// when `valid[i]`, the type's null surrogate otherwise. Always owned
  /// columns, so chunk layout is identical whether or not rows matched.
  StatusOr<std::vector<ChunkColumn>> TakeInnerWithNulls(
      std::span<const uint32_t> rpos, std::span<const uint8_t> valid) const;

  std::unique_ptr<Operator> left_, right_;
  std::string left_key_, right_key_;
  JoinType join_type_;
  JoinStrategy strategy_;
  MachineProfile profile_;
  JoinNodeInfo* info_;  // owned by the PhysicalPlan; may be null
  const ExecContext* ctx_;
  uint64_t est_result_rows_ = 0, est_probe_rows_ = 0;  // planner sizing hints
  JoinPlan plan_;
  Chunk inner_;
  // Inner-side scratch is arena-backed (BunVec): large builds land on
  // huge-page-eligible mappings with cache-line-aligned starts.
  BunVec inner_buns_;
  // Inner side prepared once at Open() (exactly one is populated):
  ClusteredRelation inner_clustered_;       // radix/phash: clustered copy
  std::vector<uint64_t> inner_bounds_;      //   + per-partition bounds
  std::vector<std::unique_ptr<InnerHashTable>> inner_tables_;  // phash only
  BunVec inner_sorted_;                     // sort-merge: sorted copy
  std::optional<InnerHashTable> inner_table_;  // simple hash: one table
};

/// Narrows and reorders the visible columns; unused candidate slots are
/// dropped.
class ProjectOp : public Operator {
 public:
  ProjectOp(std::unique_ptr<Operator> child, std::vector<std::string> columns);
  Status Open() override;
  StatusOr<bool> Next(Chunk* out) override;
  void Close() override;

 private:
  std::unique_ptr<Operator> child_;
  std::vector<std::string> columns_;
};

/// Pipeline breaker: hash-grouped aggregation over one or more group-key
/// columns, accumulated chunk by chunk (§3.2: the group table usually fits
/// the caches). Each per-shard partial table (GroupAggTable) carries (sum,
/// count, min, max) per value column, so any subset of
/// SUM/MIN/MAX/AVG/COUNT is answered from one pass and partials merge
/// exactly. With a parallel ExecContext each worker shard keeps its own
/// table across chunks and the partials merge in shard order when the input
/// is exhausted; at parallelism 1 the single table is fed in stream order,
/// reproducing a serial reference byte for byte. Emits one chunk of owned
/// columns [group cols..., one column per AggSpec]; encoded group keys are
/// decoded. Sums and counts past INT64_MAX surface as OutOfRange rather
/// than negative values.
class GroupByAggOp : public Operator {
 public:
  /// `expected_groups` (0 = unknown) pre-sizes every worker shard's
  /// GroupAggTable from the planner's grouped-cardinality estimate, making
  /// table growth rehash-free when the estimate covers the actual count.
  GroupByAggOp(std::unique_ptr<Operator> child,
               std::vector<std::string> group_cols, std::vector<AggSpec> aggs,
               const ExecContext* ctx = nullptr, size_t expected_groups = 0);
  Status Open() override;
  StatusOr<bool> Next(Chunk* out) override;
  void Close() override;

 private:
  std::unique_ptr<Operator> child_;
  std::vector<std::string> group_cols_;
  std::vector<AggSpec> aggs_;
  const ExecContext* ctx_;
  size_t expected_groups_;
  bool done_ = false;
};

/// Pipeline breaker: drains the child, stable-sorts row positions by the
/// key column, re-emits the permuted chunk (columns stay lazy!). Parallel
/// mode sorts contiguous shards on the pool and merges them left to right;
/// the merge prefers the left run on ties, which is exactly stable_sort's
/// tie-break, so output is byte-identical at any parallelism.
class OrderByOp : public Operator {
 public:
  OrderByOp(std::unique_ptr<Operator> child, std::string column,
            bool descending, const ExecContext* ctx = nullptr);
  Status Open() override;
  StatusOr<bool> Next(Chunk* out) override;
  void Close() override;

 private:
  std::unique_ptr<Operator> child_;
  std::string column_;
  bool descending_;
  const ExecContext* ctx_;
  bool done_ = false;
};

/// Streams through the child, skipping `offset` rows and truncating after
/// `limit` (Monet's slice). Once the limit is reached — including limit 0 —
/// it stops pulling from the child after the first (layout-bearing) chunk
/// instead of draining it.
class LimitOp : public Operator {
 public:
  LimitOp(std::unique_ptr<Operator> child, size_t limit, size_t offset);
  Status Open() override;
  StatusOr<bool> Next(Chunk* out) override;
  void Close() override;

 private:
  std::unique_ptr<Operator> child_;
  size_t limit_, offset_;
  size_t skipped_ = 0, emitted_ = 0;
  bool emitted_chunk_ = false;  // a layout-bearing chunk went downstream
};

}  // namespace ccdb

#endif  // CCDB_EXEC_OPERATOR_H_
