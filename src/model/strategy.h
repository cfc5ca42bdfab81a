// Join strategy selection (§3.4.4): the four named strategies (the
// "diagonals" of Figs. 10-12) plus the empirical optima and the model-driven
// "best" choice the paper's final comparison (Fig. 13) sweeps over.
#ifndef CCDB_MODEL_STRATEGY_H_
#define CCDB_MODEL_STRATEGY_H_

#include <string>

#include "model/cost_model.h"

namespace ccdb {

enum class JoinStrategy {
  kSortMerge,   ///< sort both, merge (baseline)
  kSimpleHash,  ///< non-partitioned bucket-chained hash join (baseline)
  kPhashL2,     ///< B = log2(C*12 / ||L2||): inner cluster + table fits L2
                ///< (the [SKN94] setting)
  kPhashTLB,    ///< B = log2(C*12 / ||TLB||): cluster spans <= |TLB| pages
  kPhashL1,     ///< B = log2(C*12 / ||L1||): cluster fits L1 (needs
                ///< multi-pass radix-cluster)
  kPhash256,    ///< clusters of ~256 tuples
  kPhashMin,    ///< clusters of ~200 tuples: the paper's empirical optimum
  kRadix8,      ///< radix-join with ~8 tuples per cluster
  kRadixMin,    ///< radix-join with ~4 tuples per cluster (slightly better)
  kBest,        ///< model-driven argmin over algorithm and B
};

const char* JoinStrategyName(JoinStrategy s);

/// Resolved physical plan for one equi-join.
struct JoinPlan {
  JoinStrategy strategy = JoinStrategy::kBest;
  bool use_radix_join = false;  ///< radix-join vs partitioned hash-join
  int bits = 0;
  int passes = 1;
  double predicted_ms = 0;  ///< model cost (0 for sort-merge: no model)
};

/// Computes the radix bits B the named strategy prescribes for cardinality
/// `c` on `profile`'s geometry. Returns 0 bits for the baselines.
int StrategyBits(JoinStrategy s, uint64_t c, const MachineProfile& profile);

/// Resolves a full plan: bits via StrategyBits (or model argmin for kBest),
/// passes via CostModel::OptimalPasses, predicted cost via the model.
JoinPlan PlanJoin(JoinStrategy s, uint64_t c, const MachineProfile& profile);

/// Radix bits a probe chunk of `rows` tuples is clustered on under a
/// radix/phash `plan`, in one pass: the top bits of B that the plan's
/// first (largest) pass covers, capped at what the row count supports (no
/// more clusters than tuples). Each probe cluster then maps to a contiguous
/// run of 2^(B - bits) inner clusters, so one pass gives the probe the
/// locality the inner's B-bit clusters need.
int ProbeClusterBits(const JoinPlan& plan, uint64_t rows);

}  // namespace ccdb

#endif  // CCDB_MODEL_STRATEGY_H_
