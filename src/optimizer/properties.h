// Relational property derivation: unique keys, constant bindings, and
// column provenance. This is the engineering core the paper calls out in
// §4.3 — "UAJ optimization doesn't demand novel algorithms but does require
// strong engineering to accurately derive join cardinality".
//
// Derivation is *capability-gated* by DerivationConfig: switching individual
// derivation features off reproduces the behaviour of the weaker optimizers
// in the paper's Tables 1–4 (see optimizer.h SystemProfile).
#ifndef VDMQO_OPTIMIZER_PROPERTIES_H_
#define VDMQO_OPTIMIZER_PROPERTIES_H_

#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/infer/inference.h"
#include "plan/logical_plan.h"
#include "types/value.h"

namespace vdm {

/// Which derivation features are active. Each flag corresponds to a
/// capability the paper probes with one of its micro-queries.
struct DerivationConfig {
  /// Derive keys from base-table unique constraints (UAJ 1). All evaluated
  /// systems except "System X" do this.
  bool base_table_keys = true;
  /// Derive a key from GROUP BY columns (UAJ 2 / AJ 2a-2).
  bool groupby_keys = true;
  /// Reduce composite keys by filter-pinned constants (UAJ 3 / AJ 2a-3).
  bool const_pinning = true;
  /// Propagate keys through join operators (UAJ 1a / 3a).
  bool keys_through_joins = true;
  /// Propagate keys through ORDER BY / LIMIT (UAJ 1b).
  bool keys_through_order_limit = true;
  /// Derive keys through UNION ALL via disjoint branches or branch ids
  /// (Fig. 12). Only SAP HANA does this.
  bool keys_through_union_all = true;
  /// Honor declared (unenforced) join cardinalities (§7.3).
  bool trust_declared_cardinality = true;
};

/// The inference engine (analysis/infer) is gated by the same capability
/// flags; this keeps one profile definition authoritative for both.
InferOptions ToInferOptions(const DerivationConfig& config);

/// Where an output column comes from: a pass-through path to a base-table
/// scan (or to a table-like UNION ALL node). Drives ASJ rewiring.
struct ColumnOrigin {
  /// Node id of the originating ScanOp, or of a table-like UnionAllOp.
  uint64_t source_id = 0;
  /// Base (or logical) table name, lower-cased.
  std::string table;
  /// Base column name (unqualified).
  std::string column;
  /// True if the path from the source crosses the null-padded side of an
  /// outer join — then the value may be NULL even if the base column isn't.
  bool null_extended = false;
};

struct RelProps {
  /// Sets of output-column names guaranteed duplicate-free. Kept small and
  /// deduplicated; order of columns inside a key is sorted.
  std::vector<std::vector<std::string>> unique_keys;
  /// Output columns pinned to a literal by filters/projections.
  std::map<std::string, Value> constants;
  /// Provenance of pass-through output columns.
  std::map<std::string, ColumnOrigin> origins;
  /// Base-table columns pinned by predicates anywhere in the subtree,
  /// keyed "table.column" — even when the column is not projected. Used to
  /// certify UNION ALL branch disjointness (Fig. 12(a)).
  std::map<std::string, Value> base_constants;
  /// True if the relation is statically known to be empty (AJ 2b).
  bool empty_relation = false;

  bool HasKey(const std::vector<std::string>& available) const;
  void AddKey(std::vector<std::string> key);
  std::string ToString() const;
};

/// Join-cardinality analysis of a JoinOp (paper §4.2).
struct JoinAnalysis {
  /// Every left row matches at most one right row.
  bool right_at_most_one = false;
  /// Every left row matches exactly one right row (FK or declared).
  bool right_exactly_one = false;
  /// Purely augmenting: LEFT OUTER + at-most-one (AJ 2), or INNER +
  /// exactly-one (AJ 1). Such a join neither filters nor duplicates.
  bool purely_augmenting = false;
  /// Equi-join pairs (left output name, right output name).
  std::vector<std::pair<std::string, std::string>> equi_pairs;
  /// True if the condition consists solely of column=column equalities
  /// (plus literal TRUE conjuncts).
  bool pure_equi = true;
};

JoinAnalysis AnalyzeJoin(const JoinOp& join, const RelProps& left_props,
                         const RelProps& right_props,
                         const DerivationConfig& config);

/// Every relational property derived during one optimization: the RelProps
/// above and the lattice's InferredProps from one shared InferenceEngine,
/// each derived at most once per plan node. Optimizer::OptimizeChecked
/// creates one per call and passes it to every pass; callers outside an
/// optimization (view lint, catalog audit, tests) use a call-local one.
///
/// Entries are keyed by node identity and pin their node, for the reason
/// given at InferenceEngine: id() survives WithChildren, identity does not.
/// Returned references stay valid for the cache's lifetime.
class PropsCache {
 public:
  explicit PropsCache(const DerivationConfig& config);

  const RelProps& Props(const PlanRef& plan);
  const InferredProps& Inferred(const PlanRef& plan) {
    return engine_.Infer(plan);
  }
  /// AnalyzeJoin over the cached properties of the join's children.
  JoinAnalysis Analyze(const JoinOp& join);

  InferenceEngine& engine() { return engine_; }
  /// Number of distinct nodes with derived RelProps.
  size_t size() const { return props_.size(); }

 private:
  struct Entry {
    PlanRef node;  // pins the key's address
    RelProps props;
  };
  RelProps Compute(const PlanRef& plan);

  DerivationConfig config_;
  InferenceEngine engine_;
  std::unordered_map<const LogicalOp*, Entry> props_;
};

/// Derives the properties of one plan through a call-local PropsCache.
RelProps DeriveProps(const PlanRef& plan, const DerivationConfig& config);

}  // namespace vdm

#endif  // VDMQO_OPTIMIZER_PROPERTIES_H_
