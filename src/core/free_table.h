// FreeTable: a set of free tuples over one schema — a mapping table
// without the X|Y split.  Intermediate results of cover computation live
// here, and every MappingTable keeps its own rows in one, so code that
// only reads a table's rows (the cover engine, a peer's local join side)
// uses MappingTable::free_table() in place instead of a copy.
//
// The relational algebra over free tables (natural join, which is the
// Cartesian product when no attribute is shared, and projection) is
// declared here and implemented, with its one join kernel JoinIndex, in
// compose.cc.

#ifndef HYPERION_CORE_FREE_TABLE_H_
#define HYPERION_CORE_FREE_TABLE_H_

#include <cstddef>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/mapping.h"
#include "core/row_index.h"
#include "core/schema.h"
#include "core/tuple.h"

namespace hyperion {

class MappingTable;

/// \brief Tuning knobs for free-table operations.
struct ComposeOptions {
  /// Projection of a variable class with a finite domain on a dropped
  /// position must enumerate ("materialize") the class; this bounds how
  /// many values a single class may expand to.
  size_t materialize_limit = 4096;
  /// Hard cap on the number of rows any single result may hold (fail with
  /// InvalidArgument instead of exhausting memory; combined covers are
  /// Cartesian products of per-partition covers and can explode).
  size_t max_result_rows = 2'000'000;
};

/// \brief A set of free tuples over one schema.
class FreeTable {
 public:
  FreeTable() = default;
  explicit FreeTable(Schema schema) : schema_(std::move(schema)) {}

  const Schema& schema() const { return schema_; }
  size_t size() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }
  const std::vector<Mapping>& rows() const { return rows_; }

  /// \brief Adds `row` (normalized, deduplicated).  Unsatisfiable rows are
  /// silently dropped — they denote the empty set.  Returns whether the
  /// row was actually inserted (false for duplicates and empty rows).
  bool AddRow(Mapping row) {
    const std::optional<Slot> slot = Insert(std::move(row));
    return slot && slot->inserted;
  }

  /// \brief Where AddRow(row) leaves `row`: at `pos`, a new row's
  /// position or that of the equal row already held, `inserted` telling
  /// which; nullopt when the row is unsatisfiable and dropped.
  struct Slot {
    size_t pos;
    bool inserted;
  };
  std::optional<Slot> Insert(Mapping row);

  /// \brief Position of the row equal to `row`, which must be
  /// normalized; nullopt when there is none.
  std::optional<size_t> Find(const Mapping& row) const {
    return row_index_.Find(rows_, row, row.Hash());
  }

  /// \brief Moves the rows out of an expiring table, in order.
  std::vector<Mapping> TakeRows() && { return std::move(rows_); }

  /// \brief Whether an identical row (up to variable renaming) exists.
  bool ContainsRow(const Mapping& row) const {
    return row_index_.ContainsUpToRenaming(rows_, row);
  }

  /// \brief Whether a valuation makes some row match the ground tuple.
  bool MatchesGround(const Tuple& t) const;

  /// \brief A copy of `table`'s rows, for callers that need their own
  /// table; readers use table.free_table() in place.
  static FreeTable FromMappingTable(const MappingTable& table);

  /// \brief Splits the schema into the `x_names` attributes and the rest
  /// to produce a mapping table.  Fails when a name is missing or when
  /// either side would be empty.  Rows are reordered to X ++ Y, Y in
  /// schema order — or in `y_names` order when given, which must then
  /// name exactly the columns X leaves.
  Result<MappingTable> ToMappingTable(
      const std::vector<std::string>& x_names, std::string name = "",
      const std::vector<std::string>& y_names = {}) const;

  /// \brief Natural join on attributes shared by name.  The output schema
  /// is this schema followed by `other`'s non-shared attributes.  The two
  /// schemas must agree on shared attributes' domains by name.  Output
  /// rows follow this table's row order (see JoinIndex).  When no
  /// attribute is shared it is the Cartesian product: each row of this
  /// table followed by each of `other`'s, with `other`'s variables
  /// shifted past this row's.
  Result<FreeTable> NaturalJoin(const FreeTable& other,
                                const ComposeOptions& opts = {}) const;

  /// \brief Projection onto `names` (in that order).  Exact: variable
  /// classes spanning kept and dropped positions keep their accumulated
  /// exclusions, and classes restricted by finite domains on dropped
  /// positions are materialized.
  Result<FreeTable> ProjectOnto(const std::vector<std::string>& names,
                                const ComposeOptions& opts = {}) const;

  /// \brief Whether ext(table) is nonempty.  Rows are satisfiable by
  /// construction, so this is just non-emptiness.
  bool IsSatisfiable() const { return !rows_.empty(); }

  /// \brief Brute-force extension for finite domains (test oracle).
  Result<std::vector<Tuple>> EnumerateExtension(size_t limit = 100000) const;

  std::string ToString() const;

 private:
  Schema schema_;
  std::vector<Mapping> rows_;  // normalized, each stored once
  RowIndex row_index_;         // dedup of rows_ by position
};

}  // namespace hyperion

#endif  // HYPERION_CORE_FREE_TABLE_H_
