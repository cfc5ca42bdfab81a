// Planner: lowers a validated LogicalPlan to a tree of physical operators
// (exec/operator.h) under an estimate-decide-verify discipline:
//
//  * estimate — column statistics (model/stats.h) feed the cardinality
//    estimator (model/estimator.h) for every node: selectivities, join
//    output sizes, grouped cardinalities;
//  * decide — commutative inner-join chains are reordered greedily by
//    estimated intermediate size, every operator gets a §2/§3.4 cost
//    prediction at its *estimated* cardinality, and pipeline breakers are
//    pre-sized from the estimates (group tables, join match buffers);
//  * verify — each JoinOp still asks the cost model for its JoinPlan at
//    the *actual* drained inner cardinality at Open() time (§3.4.4 per
//    operator), and Execute() records measured wall time and row counts
//    next to every prediction (ExplainCosts()).
#ifndef CCDB_MODEL_PLANNER_H_
#define CCDB_MODEL_PLANNER_H_

#include <memory>
#include <string>
#include <vector>

#include "exec/operator.h"
#include "exec/plan.h"
#include "exec/result.h"
#include "mem/hierarchy.h"
#include "mem/machine.h"
#include "model/calibrator.h"

namespace ccdb {

struct PlannerOptions {
  /// Cost-model machine. Defaults to the Calibrator's measured host profile
  /// (sysconf geometry + probed latencies + measured TLB entry count and
  /// page-walk cost, cached per process; model/calibrator.h), so radix-bits
  /// choices use the real log2(|TLB|) instead of GenericX86's 64 entries.
  /// Falls back to GenericX86 when the host cannot be measured, and tests
  /// that assert exact model numbers pass an explicit static profile.
  MachineProfile profile = MeasuredHostProfile();
  /// Execution knobs (exec/exec_context.h): scan chunking and the
  /// parallelism the lowered operators run with.
  ExecOptions exec;
  /// Reorder commutative inner-join chains by estimated intermediate
  /// cardinality before lowering (visible in ExplainJoins()). Row order of
  /// the result may differ from the written order; row content never does.
  bool reorder_joins = true;
};

/// The cache-sized scan chunk used when ExecOptions::scan_chunk_rows is 0:
/// sized so a morsel's working set (candidate list + a few gathered
/// columns, ~16 bytes/row) fills about half of the L2, keeping chunk state
/// cache-resident while it pipelines through select and join — which is
/// what lets chunked mode beat full materialization. The L2 capacity comes
/// from the Calibrator's measured host geometry when the platform reports
/// one (MeasuredL2CacheBytes, model/calibrator.h), falling back to the
/// static machine profile. This is the *per-worker* morsel size; the
/// planner multiplies it by the resolved parallelism so each chunk carries
/// one such morsel per worker.
size_t DefaultScanChunkRows(const MachineProfile& profile);

/// Per-filter diagnostics the planner records while lowering a Select or
/// Having node: the normalized (NNF) expression and the
/// selectivity-ordered conjunct evaluation order (exec/expr.h,
/// ConjunctRank). Ordered left-to-right, bottom-up over the logical tree,
/// like PhysicalPlan::joins().
struct FilterNodeInfo {
  const char* node = "select";  // "select" | "having"
  std::string normalized;       // NNF rendering, conjuncts in eval order
  std::vector<std::string> conjuncts;  // one entry per fused pass, in order
  std::vector<int> ranks;              // ConjunctRank per conjunct
  double estimated_selectivity = 1.0;  // estimator's take on the whole expr
};

/// Predicted-vs-measured record for one physical operator. Predictions are
/// made at Lower() time from the *estimated* input cardinality using the
/// paper's models (§2 scan iterations for scans/selects/aggregates, §3.4
/// cluster+join for joins); actuals are recorded while Execute() runs.
/// `measured_inclusive_ns` includes the operator's whole subtree — the
/// exclusive time reported by ExplainCosts() subtracts the children.
struct OpCostInfo {
  std::string label;  // e.g. "Join(fk = id)" or "Select(v in [0, 99])"
  int depth = 0;      // root operator = 0
  int parent = -1;    // index into PhysicalPlan::costs(); -1 for the root

  // estimate + prediction (before execution):
  uint64_t estimated_rows = 0;  // output rows
  double predicted_cpu_ns = 0;
  double predicted_l1_misses = 0;
  double predicted_l2_misses = 0;
  double predicted_tlb_misses = 0;
  double predicted_ns = 0;  // cpu + miss events under the profile latencies

  // measured (after execution):
  uint64_t actual_rows = 0;
  double measured_inclusive_ns = 0;
};

/// An executable physical plan. Move-only; run with Execute(). The logical
/// plan's tables must outlive it.
class PhysicalPlan {
 public:
  PhysicalPlan(PhysicalPlan&&) = default;
  PhysicalPlan& operator=(PhysicalPlan&&) = default;

  /// Open/Next/Close loop over the operator tree, materializing the output.
  StatusOr<QueryResult> Execute();

  /// Per-join diagnostics: estimated vs actual inner cardinality, the
  /// JoinPlan the cost model chose, and accumulated kernel timings.
  /// Estimates are filled at Lower() time, actuals during Execute() (join
  /// plans are resolved at Open()); ordered left-to-right, bottom-up over
  /// the *lowered* tree — after reordering, the order joins actually run.
  const std::vector<JoinNodeInfo>& joins() const { return *joins_; }

  /// Human-readable summary of the join decisions (after Execute()).
  std::string ExplainJoins() const;

  /// Per-filter diagnostics: how each Select/Having expression was
  /// normalized and which conjunct order the lowering chose. Resolved at
  /// Lower() time (filters need no runtime cardinality).
  const std::vector<FilterNodeInfo>& filters() const { return filters_; }

  /// Human-readable summary of the filter lowering: one block per
  /// Select/Having node with the normalized tree and the
  /// selectivity-ordered evaluation order.
  std::string ExplainFilters() const;

  /// Per-operator predicted-vs-measured cost records. Indexes are stable
  /// but NOT ordered parents-first (join-chain lowering allocates the
  /// spine after its base subtree); traverse the tree strictly via
  /// OpCostInfo::parent, as ExplainCosts() does.
  const std::vector<OpCostInfo>& costs() const { return *costs_; }

  /// Measured *exclusive* wall nanoseconds per cost record (inclusive time
  /// minus the children's inclusive time, clamped at 0) — the number
  /// ExplainCosts() prints next to each prediction, for callers (benches)
  /// that want it machine-readable. Indexed like costs().
  std::vector<double> MeasuredExclusiveNs() const;

  /// Whole-plan cost report: one line per operator with estimated vs
  /// actual rows and predicted (cycles + miss events -> ms) vs measured
  /// (exclusive wall) time, each op's translation (page-walk) share, and a
  /// plan-level predicted-vs-measured translation footer (hardware dTLB
  /// misses when perf is available). Predictions come from the estimates
  /// alone; run Execute() first to populate the measured side.
  std::string ExplainCosts() const;

  /// The resolved execution context the operators run with.
  const ExecContext& context() const { return *ctx_; }

  /// Attaches (or detaches, with null) per-query scheduling state —
  /// deadline, cancellation, fair-share quantum — consulted at every morsel
  /// boundary of the next Execute(). `sched` must outlive that execution.
  /// This is how the serving layer reuses one cached PhysicalPlan across
  /// requests with different deadlines: rebind, execute, repeat.
  void BindSchedule(ScheduleContext* sched) { ctx_->sched = sched; }

 private:
  friend class Planner;
  PhysicalPlan(std::unique_ptr<Operator> root,
               std::vector<PlanColumn> output_schema,
               std::vector<size_t> output_map,
               std::unique_ptr<std::vector<JoinNodeInfo>> joins,
               std::vector<FilterNodeInfo> filters,
               std::unique_ptr<std::vector<OpCostInfo>> costs,
               std::unique_ptr<ExecContext> ctx, MachineProfile profile)
      : root_(std::move(root)),
        output_schema_(std::move(output_schema)),
        output_map_(std::move(output_map)),
        joins_(std::move(joins)),
        filters_(std::move(filters)),
        costs_(std::move(costs)),
        ctx_(std::move(ctx)),
        profile_(std::move(profile)) {}

  std::unique_ptr<Operator> root_;
  std::vector<PlanColumn> output_schema_;
  /// Chunk column index feeding output column i. Join reordering permutes
  /// the physical column order; this maps it back to the Build() schema.
  std::vector<size_t> output_map_;
  std::unique_ptr<std::vector<JoinNodeInfo>> joins_;  // stable addresses
  std::vector<FilterNodeInfo> filters_;
  std::unique_ptr<std::vector<OpCostInfo>> costs_;    // stable addresses
  std::unique_ptr<ExecContext> ctx_;                  // borrowed by operators
  MachineProfile profile_;
  // Driver-thread perf counters (L1/LLC/dTLB misses) across the last
  // successful Execute(); invalid when perf is unavailable, and
  // ExplainCosts() then says so instead of printing fiction.
  MemEvents hw_events_;
  bool hw_valid_ = false;
};

class Planner {
 public:
  explicit Planner(PlannerOptions options = {}) : options_(options) {}

  /// Lowers logical nodes to physical operators (1:1 except join-chain
  /// reordering). The returned plan borrows the logical plan's tables (not
  /// the LogicalPlan itself).
  StatusOr<PhysicalPlan> Lower(const LogicalPlan& plan) const;

 private:
  PlannerOptions options_;
};

/// One-shot convenience: lower + execute.
StatusOr<QueryResult> Execute(const LogicalPlan& plan,
                              const PlannerOptions& options = {});

}  // namespace ccdb

#endif  // CCDB_MODEL_PLANNER_H_
