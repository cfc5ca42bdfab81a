#include "exec/filter_cache.h"

#include <algorithm>
#include <utility>

namespace ccdb {

namespace {

/// Chunks a ScanOp emits: an empty table still emits one 0-row chunk.
size_t NumChunks(size_t rows, size_t chunk_rows) {
  if (rows == 0 || chunk_rows >= rows) return 1;
  return (rows + chunk_rows - 1) / chunk_rows;
}

}  // namespace

/// One table's cached filters. `key` is set before the entry is published
/// and never written again; everything else is guarded by `mu`.
struct FilterCache::TableCache {
  struct Cached {
    Expr filter;                    // normalized
    std::vector<Positions> chunks;  // per chunk index; null = not yet seen
  };

  std::weak_ptr<const void> key;

  Mutex mu;
  size_t chunk_rows CCDB_GUARDED_BY(mu) = 0;  // 0: no geometry yet
  size_t num_rows CCDB_GUARDED_BY(mu) = 0;
  uint64_t data_version CCDB_GUARDED_BY(mu) = 0;
  std::vector<Cached> filters CCDB_GUARDED_BY(mu);

  bool Describes(size_t rows_per_chunk, size_t rows, uint64_t version) const
      CCDB_REQUIRES(mu) {
    return chunk_rows == rows_per_chunk && num_rows == rows &&
           data_version == version;
  }
};

FilterCache::FilterCache() = default;
FilterCache::~FilterCache() = default;

FilterCache::TableCache* FilterCache::For(const Table& table) {
  // Match on the liveness token, not the address: tokens compare equal
  // exactly when both alias the same table object incarnation.
  std::weak_ptr<const void> key = table.liveness();
  MutexLock lock(&mu_);
  for (const auto& t : tables_) {
    if (!t->key.owner_before(key) && !key.owner_before(t->key)) {
      return t.get();
    }
  }
  std::erase_if(tables_, [](const auto& t) { return t->key.expired(); });
  tables_.push_back(std::make_unique<TableCache>());
  tables_.back()->key = std::move(key);
  return tables_.back().get();
}

StatusOr<FilterCache::Positions> FilterCache::Filter(
    const Table& table, size_t chunk_rows, size_t index, const Chunk& chunk,
    const Expr& normalized, const ExecContext* ctx) {
  if (chunk_rows == 0) chunk_rows = SIZE_MAX;
  TableCache* tc = For(table);
  const size_t rows = table.num_rows();
  const uint64_t version = table.data_version();
  const size_t chunks = NumChunks(rows, chunk_rows);

  {
    MutexLock lock(&tc->mu);
    if (!tc->Describes(chunk_rows, rows, version)) {
      tc->filters.clear();
      tc->chunk_rows = chunk_rows;
      tc->num_rows = rows;
      tc->data_version = version;
    }
    if (index < chunks) {
      for (const TableCache::Cached& e : tc->filters) {
        if (e.chunks[index] != nullptr && e.filter == normalized) {
          copied_.fetch_add(1, std::memory_order_relaxed);
          return e.chunks[index];
        }
      }
    }
  }

  CCDB_ASSIGN_OR_RETURN(std::vector<uint32_t> survivors,
                        EvalFilterPositions(chunk, normalized, ctx));
  full_evals_.fetch_add(1, std::memory_order_relaxed);
  Positions result =
      std::make_shared<const std::vector<uint32_t>>(std::move(survivors));
  // A filter with a NaN literal never equals itself, so no lookup could
  // find it again: storing it would only fill a slot for good.
  if (index >= chunks || !(normalized == normalized)) return result;

  MutexLock lock(&tc->mu);
  // Another query may have moved the geometry on while we evaluated.
  if (!tc->Describes(chunk_rows, rows, version)) return result;
  auto slot = std::find_if(
      tc->filters.begin(), tc->filters.end(),
      [&](const TableCache::Cached& e) { return e.filter == normalized; });
  if (slot == tc->filters.end()) {
    if (tc->filters.size() >= kMaxFiltersPerTable) return result;
    tc->filters.push_back({normalized, std::vector<Positions>(chunks)});
    slot = tc->filters.end() - 1;
  }
  if (slot->chunks[index] == nullptr) slot->chunks[index] = result;
  return result;
}

FilterCache::Stats FilterCache::stats() const {
  Stats s;
  s.filter_full_evals = full_evals_.load(std::memory_order_relaxed);
  s.filter_copied = copied_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace ccdb
