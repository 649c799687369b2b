// Cell: one entry of a mapping (free tuple), per Definition 1 of the paper.
//
// A cell is either
//   * a constant  c,
//   * a variable  v          ("any domain value"), or
//   * a restricted variable  v - S  ("any domain value outside S").
// A plain variable is represented as a restricted variable with empty S.
// Variable identifiers are scoped to the mapping that contains them.
//
// Exclusion sets are shared immutably (catch-all rows produced by CO→CC
// translation can exclude tens of thousands of values; copying cells —
// which joins and projections do constantly — must stay O(1)).  A row's
// cells are themselves shared: a Mapping keeps them in one immutable,
// reference-counted block (mapping.h), so copying a row copies no Cell.

#ifndef HYPERION_CORE_CELL_H_
#define HYPERION_CORE_CELL_H_

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/value.h"

namespace hyperion {

/// \brief Identifier of a variable, local to one Mapping.
using VarId = uint32_t;

/// \brief Shared immutable exclusion set; nullptr and empty both mean "no
/// exclusions".
using ExclusionSetPtr = std::shared_ptr<const std::set<Value>>;

/// \brief One entry of a free tuple: constant, variable, or `v - S`.
class Cell {
 public:
  /// \brief Constructs a constant cell.
  static Cell Constant(Value v) {
    Cell c;
    c.is_constant_ = true;
    c.value_ = std::move(v);
    return c;
  }

  /// \brief Constructs a variable cell `v` or `v - exclusions`.
  static Cell Variable(VarId var, std::set<Value> exclusions = {}) {
    Cell c;
    c.is_constant_ = false;
    c.var_ = var;
    if (!exclusions.empty()) {
      c.exclusions_ = std::make_shared<const std::set<Value>>(
          std::move(exclusions));
    }
    return c;
  }

  /// \brief Variable cell sharing an existing exclusion set (O(1)).
  static Cell Variable(VarId var, ExclusionSetPtr exclusions) {
    Cell c;
    c.is_constant_ = false;
    c.var_ = var;
    if (exclusions != nullptr && !exclusions->empty()) {
      c.exclusions_ = std::move(exclusions);
    }
    return c;
  }

  bool is_constant() const { return is_constant_; }
  bool is_variable() const { return !is_constant_; }

  /// \brief Constant payload; requires is_constant().
  const Value& value() const { return value_; }
  /// \brief Variable id; requires is_variable().
  VarId var() const { return var_; }
  /// \brief Exclusion set S of `v - S`; requires is_variable().
  const std::set<Value>& exclusions() const {
    static const std::set<Value> kEmpty;
    return exclusions_ ? *exclusions_ : kEmpty;
  }
  /// \brief Shared handle to the exclusion set (may be null when empty).
  const ExclusionSetPtr& exclusions_ptr() const { return exclusions_; }

  /// \brief Whether a ground value is permitted by this cell alone
  /// (constants: equality; variables: not excluded).  Cross-cell equality
  /// of shared variables is the Mapping's concern.
  bool AdmitsValue(const Value& v) const {
    if (is_constant_) return value_ == v;
    return exclusions_ == nullptr || exclusions_->count(v) == 0;
  }

  /// \brief Renders "c", "?v", or "?v-{a,b}".
  std::string ToString() const;

  friend bool operator==(const Cell& a, const Cell& b) {
    if (a.is_constant_ != b.is_constant_) return false;
    if (a.is_constant_) return a.value_ == b.value_;
    if (a.var_ != b.var_) return false;
    if (a.exclusions_ == b.exclusions_) return true;  // same or both null
    return a.exclusions() == b.exclusions();
  }

  size_t Hash() const;

 private:
  Cell() = default;

  // Widest first, so a Cell packs into 64 bytes.
  Value value_;                 // when constant
  ExclusionSetPtr exclusions_;  // when variable; null == empty
  VarId var_ = 0;               // when variable
  bool is_constant_ = true;
};

}  // namespace hyperion

#endif  // HYPERION_CORE_CELL_H_
