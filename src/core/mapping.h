// Mapping: a free tuple over a schema (Definitions 1 and 5 of the paper).
//
// A mapping is a positional vector of Cells.  A variable may appear in
// several cells of the SAME mapping (that is how identity mappings like
// (v, v) are written); all such cells must then take the same value, drawn
// from the intersection of the attribute domains, outside the union of the
// cells' exclusion sets.

#ifndef HYPERION_CORE_MAPPING_H_
#define HYPERION_CORE_MAPPING_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/cell.h"
#include "core/schema.h"
#include "core/tuple.h"

namespace hyperion {

/// \brief A free tuple: one Cell per schema position.
class Mapping {
 public:
  Mapping() = default;
  explicit Mapping(std::vector<Cell> cells) : cells_(std::move(cells)) {}

  /// \brief Builds an all-constant mapping from a ground tuple.
  static Mapping FromTuple(const Tuple& t);

  size_t arity() const { return cells_.size(); }
  const Cell& cell(size_t i) const { return cells_[i]; }
  const std::vector<Cell>& cells() const { return cells_; }

  bool IsGround() const;

  /// \brief Positions of each variable, keyed by VarId.
  std::map<VarId, std::vector<size_t>> VariableClasses() const;

  /// \brief Union of the exclusion sets of every cell using `var`.
  std::set<Value> CombinedExclusions(VarId var) const;

  /// \brief Whether some valuation ρ (Definition 5) maps this free tuple to
  /// the ground tuple `t`.  Schema is needed for domain checks.
  bool MatchesGround(const Tuple& t, const Schema& schema) const;

  /// \brief Whether ext(mapping) is nonempty: every variable class has an
  /// admissible value in the intersection of its attribute domains.
  bool IsSatisfiable(const Schema& schema) const;

  /// \brief One concrete tuple from ext(mapping), if any.
  std::optional<Tuple> PickWitness(const Schema& schema) const;

  /// \brief The sub-mapping over the cells at `positions` (in that order).
  /// Variable ids are preserved (callers re-normalize when needed).
  Mapping Project(const std::vector<size_t>& positions) const;

  /// \brief Renumbers variables to 0..k-1 in order of first occurrence.
  /// Shared-variable structure and exclusions are preserved.
  Mapping Normalized() const;

  /// \brief Whether Normalized() would return this mapping unchanged.
  bool IsNormalized() const;

  /// \brief Renames every variable id by adding `offset`.
  Mapping WithVarOffset(VarId offset) const;

  /// \brief Enumerates ext(mapping) over the (finite) domains of `schema`.
  ///
  /// Fails with InvalidArgument when a variable ranges over an infinite
  /// domain, or when the extension would exceed `limit` tuples.  Intended
  /// for test oracles and small examples, not production paths.
  Result<std::vector<Tuple>> EnumerateExtension(const Schema& schema,
                                                size_t limit = 100000) const;

  std::string ToString() const;

  /// \brief Structural equality (same cells; variable ids compared as-is —
  /// normalize first to compare up to renaming).
  friend bool operator==(const Mapping& a, const Mapping& b) {
    return a.cells_ == b.cells_;
  }

  size_t Hash() const;

 private:
  std::vector<Cell> cells_;
};

struct MappingHash {
  size_t operator()(const Mapping& m) const { return m.Hash(); }
};

}  // namespace hyperion

#endif  // HYPERION_CORE_MAPPING_H_
