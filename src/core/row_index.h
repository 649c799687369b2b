// RowIndex: the duplicate check of a table whose rows live in one vector.
//
// FreeTable and MappingTable keep their rows in a std::vector<Mapping> and
// must reject a row equal (after normalization) to one they already hold.
// The index stores no second copy of a row: it is an open-addressing hash
// set of (hash tag, row position) slots that compares a candidate against
// the table's own vector.  Positions, not pointers, so a copied or moved
// table's index stays valid without rebuilding.  JoinIndex::JoinProject
// indexes the rows of a streamed batch, read in place, the same way.

#ifndef HYPERION_CORE_ROW_INDEX_H_
#define HYPERION_CORE_ROW_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/mapping.h"

namespace hyperion {

/// \brief Hash set of row positions into a caller-owned row vector.
class RowIndex {
 public:
  /// \brief The position of the indexed row of `rows` equal to `row`,
  /// where `hash` is row.Hash(); nullopt when there is none.
  std::optional<size_t> Find(std::span<const Mapping> rows, const Mapping& row,
                             size_t hash) const;

  /// \brief Whether `rows` holds a row equal to `row` up to variable
  /// renaming (`row` need not be normalized; indexed rows are).
  bool ContainsUpToRenaming(std::span<const Mapping> rows,
                            const Mapping& row) const;

  /// \brief Records that rows[pos] has hash `hash`.  The caller has
  /// checked with Find() that no equal row is indexed.
  void Insert(size_t hash, size_t pos);

 private:
  // A slot packs the high 32 bits of the mixed hash (the tag) above
  // pos + 1; 0 marks an empty slot.  The tag also picks the home slot,
  // so growth rehashes without touching the rows.
  static uint32_t Tag(size_t hash);
  void Grow();

  std::vector<uint64_t> slots_;  // size is 0 or a power of two
  size_t size_ = 0;
};

}  // namespace hyperion

#endif  // HYPERION_CORE_ROW_INDEX_H_
