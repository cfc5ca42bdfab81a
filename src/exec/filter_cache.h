// FilterCache: per-table survivor lists of base-table filters, kept across
// queries — the serving layer's answer to the paper's memory-bottleneck
// thesis for repeated analytics. Selection over a column is bandwidth-bound,
// so a query whose filter was already evaluated over unchanged data should
// not re-read the column.
//
// A SelectOp that sits directly on a base table's ScanOp asks the cache for
// each chunk's survivors (the planner binds it when ExecOptions::shared_scans
// is set). Per table the cache keeps up to kMaxFiltersPerTable distinct
// normalized filters, each with one survivor list per scan chunk, filled in
// as chunks are evaluated. A lookup is served, for the same chunk, by:
//  * an equivalent cached filter (ExprSubsumes both ways): the list is
//    shared outright, no column is read;
//  * a strictly weaker cached filter (the new one implies it): its list is
//    narrowed by NarrowFilterPositions instead of re-scanning the chunk —
//    sound because Narrow({p: B(p)}, A) = {p: A(p)} whenever A ⇒ B;
//  * otherwise a full evaluation, which is stored for later queries.
// Results are byte-identical to evaluating every filter (same kernels).
//
// Validity: a table's lists describe one (chunk_rows, num_rows,
// data_version). A lookup under any other geometry drops them all and
// starts over. Tables are keyed on Table::liveness(), which names the
// table object across time — a table destroyed, or copy-assigned over in
// place, never matches its old entry, even at the same address. Nothing is
// evicted: once a table holds kMaxFiltersPerTable filters, further
// distinct filters are evaluated but not cached.
#ifndef CCDB_EXEC_FILTER_CACHE_H_
#define CCDB_EXEC_FILTER_CACHE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "exec/operator.h"
#include "util/thread_annotations.h"

namespace ccdb {

class FilterCache {
 public:
  /// Distinct filters cached per table.
  static constexpr size_t kMaxFiltersPerTable = 8;

  /// Cumulative filter outcomes (relaxed counters: diagnostics only).
  struct Stats {
    uint64_t filter_full_evals = 0;  // filters evaluated against a chunk
    uint64_t filter_narrowed = 0;    // computed by narrowing a cached list
    uint64_t filter_copied = 0;      // equivalent filter: list reused
  };

  using Positions = std::shared_ptr<const std::vector<uint32_t>>;

  FilterCache();
  ~FilterCache();
  FilterCache(const FilterCache&) = delete;
  FilterCache& operator=(const FilterCache&) = delete;

  /// Ascending survivor positions of `normalized` (NormalizeExpr +
  /// OrderConjunctsBySelectivity form, as SelectOp holds it) over `chunk`,
  /// which must be chunk number `index` of a ScanOp over `table` with
  /// `chunk_rows` (0 = SIZE_MAX). Thread-safe; `ctx` is the caller's
  /// evaluation context (parallel budget), as for EvalFilterPositions.
  StatusOr<Positions> Filter(const Table& table, size_t chunk_rows,
                             size_t index, const Chunk& chunk,
                             const Expr& normalized, const ExecContext* ctx);

  Stats stats() const;

 private:
  struct TableCache;

  /// The entry for `table`'s liveness token, created on first use. Entries
  /// of destroyed tables are dropped here; live ones are never erased, so
  /// the returned pointer stays valid while `table` is alive.
  TableCache* For(const Table& table) CCDB_EXCLUDES(mu_);

  mutable Mutex mu_;
  std::vector<std::unique_ptr<TableCache>> tables_ CCDB_GUARDED_BY(mu_);

  std::atomic<uint64_t> full_evals_{0};
  std::atomic<uint64_t> narrowed_{0};
  std::atomic<uint64_t> copied_{0};
};

}  // namespace ccdb

#endif  // CCDB_EXEC_FILTER_CACHE_H_
