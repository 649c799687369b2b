// MappingTable: a finite set of mappings from X to Y (Definition 2).
//
// The table's schema is the concatenation X ++ Y; x_arity() marks the split
// (the "double line" in the paper's figures).  Variables are scoped to a
// single row, which realizes the paper's restriction that each variable
// appears in at most one mapping: rows are independent by construction.
//
// The rows live in a FreeTable over X ++ Y (free_table.h), exposed by
// const reference: readers that want the table without its X|Y split
// (the cover engine, a peer's local side of the cover join) use it in
// place rather than copying every row.

#ifndef HYPERION_CORE_MAPPING_TABLE_H_
#define HYPERION_CORE_MAPPING_TABLE_H_

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "core/free_table.h"
#include "core/mapping.h"
#include "core/schema.h"
#include "core/tuple.h"

namespace hyperion {

/// \brief A mapping table from attribute list X to attribute list Y.
class MappingTable {
 public:
  MappingTable() = default;

  /// \brief Creates an empty table; X and Y must be nonempty and disjoint.
  static Result<MappingTable> Create(Schema x_schema, Schema y_schema,
                                     std::string name = "");

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  /// \brief Combined schema (X attributes first, then Y attributes).
  const Schema& schema() const { return table_.schema(); }
  const Schema& x_schema() const { return x_schema_; }
  const Schema& y_schema() const { return y_schema_; }
  size_t x_arity() const { return x_schema_.arity(); }

  size_t size() const { return table_.size(); }
  bool empty() const { return table_.empty(); }
  const std::vector<Mapping>& rows() const { return table_.rows(); }

  /// \brief The rows as a free table over schema(), in insertion order.
  const FreeTable& free_table() const { return table_; }

  /// \brief Adds a row (validated, normalized, deduplicated).
  ///
  /// Validation: arity matches; constants and exclusion-set values lie in
  /// the attribute domains; the row is satisfiable.
  Status AddRow(Mapping row);

  /// \brief Adds the all-constant row (x, y).
  Status AddPair(const Tuple& x, const Tuple& y);

  /// \brief Whether an identical row (up to variable renaming) exists.
  bool ContainsRow(const Mapping& row) const;

  /// \brief Definition 7: whether `t` (over the combined schema) satisfies
  /// the constraint this table induces, i.e., t[Y] ∈ Y_m(t[X]).
  bool SatisfiesTuple(const Tuple& t) const;

  /// \brief Y_m(x) restricted to enumerable cases: the set of Y-tuples the
  /// ground X-tuple `x` may map to.  Fails when the set is infinite
  /// (a variable over an infinite domain reaches the Y side).
  Result<std::vector<Tuple>> YmGround(const Tuple& x,
                                      size_t limit = 100000) const;

  /// \brief Whether Y_m(x) is nonempty for the ground X-tuple `x`.
  bool XValueHasImage(const Tuple& x) const;

  /// \brief ext(m) (§6): every ground tuple permitted by some row.  Only
  /// for finite domains / test oracles.
  Result<std::vector<Tuple>> EnumerateExtension(size_t limit = 100000) const;

  /// \brief Whether ext(m) is nonempty (some row satisfiable).
  bool IsSatisfiable() const;

  /// \brief Filters a Cartesian product r × r' to the tuples this table
  /// permits, as in §4.1 / Figure 4.  `combined` must contain all of X ∪ Y.
  Result<Relation> FilterRelation(const Relation& combined) const;

  /// \brief Text serialization (see mapping_table.cc for the grammar).
  std::string Serialize() const;
  static Result<MappingTable> Parse(std::string_view text);

  std::string ToString() const;

  /// \brief Descriptive statistics for curators and tooling.
  struct Stats {
    size_t rows = 0;
    size_t ground_rows = 0;
    size_t variable_rows = 0;
    size_t distinct_ground_x = 0;  // distinct ground X-projections
    size_t max_fanout = 0;         // largest |rows| sharing one ground X
    double avg_fanout = 0;         // rows per distinct ground X
    size_t total_exclusion_values = 0;  // Σ |S| over all v−S cells
  };
  Stats Describe() const;

  /// \brief The shape of the recorded association (§2 stresses that
  /// mapping tables "are not necessarily functions" and can be
  /// many-to-many, e.g. through identifier aliases).
  enum class MappingShape {
    kOneToOne,    // both directions functional
    kOneToMany,   // an X value maps to several Y values
    kManyToOne,   // several X values map to one Y value
    kManyToMany,  // both
  };
  /// \brief Classifies the GROUND rows; variable rows relate unboundedly
  /// many values, so any table containing one classifies as many-to-many
  /// unless its variable rows are all identity-shaped (every Y cell's
  /// variable also appears in X, making the row functional both ways).
  MappingShape Classify() const;

  static const char* MappingShapeToString(MappingShape shape);

 private:
  // Binds the X cells of `row` against ground `x`; returns the residual
  // Y-part mapping (bound variables substituted) or nullopt on mismatch.
  std::optional<Mapping> BindX(const Mapping& row, const Tuple& x) const;

  void IndexRow(size_t row_idx);

  std::string name_;
  Schema x_schema_;
  Schema y_schema_;
  FreeTable table_;  // over X ++ Y; normalized, each stored once
  // Rows whose X part is all constants, keyed by that X tuple.
  std::unordered_map<Tuple, std::vector<size_t>, TupleHash> ground_x_index_;
  // Rows with at least one variable in the X part (checked linearly).
  std::vector<size_t> variable_x_rows_;
};

}  // namespace hyperion

#endif  // HYPERION_CORE_MAPPING_TABLE_H_
