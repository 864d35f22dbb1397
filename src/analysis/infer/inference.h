// Catalog-wide semantic static inference (DESIGN.md §12).
//
// A dataflow engine that derives, per plan node and without executing
// anything, a lattice of relational properties:
//  * unique column sets — from base-table keys, GROUP BY, DISTINCT, and
//    selective (constant-pinning) equality predicates,
//  * functional dependencies — propagated through projections, through
//    many-to-one augmentation joins (the paper's §7.3 cardinality
//    declarations), and through UNION ALL by branch intersection,
//  * NULL-ability — 3-valued-logic aware: schema NOT NULL, NULL-rejecting
//    predicates, and the null-extension introduced by outer joins,
//  * value provenance — which base-table scan instance each output column's
//    value comes from, including equality-derived provenance ("a.k = d.ref
//    and d.ref = b.k" links b's join column back to a's scan).
//
// It is the only property-derivation engine: every optimizer rule (UAJ
// pruning, limit pushdown, eager aggregation, DISTINCT elimination, ASJ and
// general self-join elimination), the join reorderer's cardinality
// estimator, view lint, the vdmlint catalog audit (analysis/catalog_audit.h)
// and the RewriteAuditor's key cross-check read it, so the rewrite rules and
// the static findings can never disagree about what is provable.
//
// Layering: depends only on plan/expr/catalog/types/common, so the
// optimizer can link against it (vdm_infer sits *below* vdm_optimizer).
#ifndef VDMQO_ANALYSIS_INFER_INFERENCE_H_
#define VDMQO_ANALYSIS_INFER_INFERENCE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "catalog/schema.h"
#include "plan/logical_plan.h"
#include "types/value.h"

namespace vdm {

/// Which derivation capabilities are active. Each flag corresponds to a
/// capability the paper probes with one of its micro-queries; switching
/// flags off reproduces the weaker optimizers of Tables 1–4 (optimizer.h
/// SystemProfile). The optimizer, the RewriteAuditor and the catalog audit
/// all carry this one struct.
struct InferOptions {
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
  /// Honor declared (unenforced) join cardinalities and unique keys (§7.3).
  bool trust_declared_cardinality = true;
};

/// Value provenance of an output column. Invariant: with null_extended
/// false, EVERY output row's value equals the value of `column` in the row
/// of scan `source_id` this output row was derived from; with it true, the
/// value is either that or NULL (the row crossed the null-padded side of an
/// outer join). `via_equality` marks provenance established through an
/// equality predicate rather than a direct pass-through — equally valid for
/// same-row reasoning, since the equality filtered the rows where the two
/// values differ (and 3VL equality rejects NULLs on both sides).
struct ValueSource {
  uint64_t source_id = 0;
  std::string table;   // lower-cased base (or logical) table name
  std::string column;  // lower-cased base column name
  bool null_extended = false;
  bool via_equality = false;
};

/// A functional dependency: rows agreeing on all `determinants` agree on
/// every column in `dependents` (NULLs compared as equal). Both sorted.
struct FunctionalDep {
  std::vector<std::string> determinants;
  std::vector<std::string> dependents;
};

struct InferredProps {
  /// Output-column sets proven duplicate-free (sorted, deduplicated).
  std::vector<std::vector<std::string>> unique_sets;
  /// Non-key functional dependencies (key → rest is implied by unique_sets
  /// and not materialized).
  std::vector<FunctionalDep> fds;
  /// Output columns pinned to a literal.
  std::map<std::string, Value> constants;
  /// Output columns proven non-NULL in every row.
  std::set<std::string> not_null;
  /// All known value sources per output column (direct + equality-derived).
  std::map<std::string, std::vector<ValueSource>> sources;
  /// Constants pinned on base columns of a specific scan instance:
  /// source_pins[scan_id][base_column] = v means every surviving source row
  /// of that scan has base_column = v. Extends self-join coverage through
  /// per-side constant equalities.
  std::map<uint64_t, std::map<std::string, Value>> source_pins;
  /// "table.column" pins anywhere in the subtree (union disjointness).
  std::map<std::string, Value> base_constants;
  bool empty_relation = false;
  bool at_most_one_row = false;

  /// True if `columns` contains a proven unique set (or ≤ 1 row total).
  bool UniqueOn(const std::set<std::string>& columns) const;
  bool IsNotNull(const std::string& column) const;
  /// True if rows agreeing on `determinants` provably agree on `dependent`:
  /// via a covered unique set, a pinned constant, or a recorded FD.
  bool FdHolds(const std::set<std::string>& determinants,
               const std::string& dependent) const;
  /// First source of `column` matching (table, base_column), not
  /// null-extended; nullptr if none.
  const ValueSource* FindSource(const std::string& column,
                                const std::string& table,
                                const std::string& base_column) const;
  const Value* PinOf(uint64_t source_id, const std::string& base_column) const;
  /// The origin of `column`: its first source that is neither
  /// equality-derived nor null-extended, i.e. a pass-through path from a
  /// scan (or a table-like UNION ALL) whose value every row carries.
  /// nullptr if none. Drives ASJ rewiring and predicate collection.
  const ValueSource* Origin(const std::string& column) const;

  void AddUniqueSet(std::vector<std::string> columns);
  void AddFd(std::vector<std::string> determinants,
             std::vector<std::string> dependents);
  void AddSource(const std::string& column, ValueSource source);
  /// Deterministic multi-line rendering (golden lattice tests).
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
  /// (plus literal TRUE conjuncts and, with const_pinning, right-side
  /// column=constant pins).
  bool pure_equi = true;
};

/// Memoizing bottom-up derivation. Results are cached by node *identity*
/// (the node's address, with the node pinned so the address cannot be
/// reused), never by id(): WithChildren keeps the id while replacing the
/// children, so an id-keyed entry could describe a different subtree. Plan
/// nodes are immutable, so one engine may span any number of plan versions:
/// Optimizer::OptimizeChecked creates one per call and hands it to every
/// pass, so each plan node is derived at most once per optimization;
/// callers outside an optimization (view lint, catalog audit, the
/// RewriteAuditor, tests) use a call-local one. Returned references stay
/// valid for the engine's lifetime.
class InferenceEngine {
 public:
  explicit InferenceEngine(InferOptions options = {});
  const InferredProps& Infer(const PlanRef& plan);
  /// The join analysis of `join` over the derived properties of its
  /// children. `join` itself is not derived or cached, so it may be a
  /// hypothetical join outside any plan (rule_prune probes a flipped one).
  JoinAnalysis AnalyzeJoin(const JoinOp& join);
  const InferOptions& options() const { return options_; }
  /// Number of distinct nodes derived so far.
  size_t size() const { return cache_.size(); }

 private:
  struct Entry {
    PlanRef node;  // pins the key's address
    InferredProps props;
  };
  InferredProps Compute(const PlanRef& plan);

  InferOptions options_;
  std::unordered_map<const LogicalOp*, Entry> cache_;
};

// ---------------------------------------------------------------------------
// Shared structural primitives (used by rule_asj, rule_selfjoin_general,
// and the catalog audit).

/// A Scan / Filter / pass-through-Project stack over one base table.
struct SimpleRelation {
  std::shared_ptr<const ScanOp> scan;
  /// Predicates with column refs rewritten to bare base-column names.
  std::vector<ExprRef> base_preds;
  /// Output column name -> base column name.
  std::map<std::string, std::string> out_to_base;
  /// Output columns that are literal projections (e.g. a branch id).
  std::map<std::string, Value> out_literals;
};

std::optional<SimpleRelation> ExtractSimpleRelation(const PlanRef& plan);

/// True if `covered_base_columns` (lower-cased base column names) contains
/// every column of some unique key of `schema` that the options allow
/// trusting (enforced always; declared only with trust_declared_cardinality).
/// This is THE key-coverage test for self-join elimination: equal values on
/// a full unique key identify the same physical base row.
bool TableKeyCovered(const TableSchema& schema,
                     const std::set<std::string>& covered_base_columns,
                     const InferOptions& options);

/// 3VL NULL-rejection: the output columns for which the predicate cannot
/// evaluate to TRUE when that column is NULL. A filter with such a conjunct
/// proves the column NOT NULL downstream; applied to a LEFT JOIN's
/// null-extended columns it restores their non-NULL-ness (DESIGN.md §12).
std::set<std::string> NullRejectedColumns(const ExprRef& predicate);

}  // namespace vdm

#endif  // VDMQO_ANALYSIS_INFER_INFERENCE_H_
