// Mapping: a free tuple over a schema (Definitions 1 and 5 of the paper).
//
// A mapping is a positional sequence of Cells.  A variable may appear in
// several cells of the SAME mapping (that is how identity mappings like
// (v, v) are written); all such cells must then take the same value, drawn
// from the intersection of the attribute domains, outside the union of the
// cells' exclusion sets.
//
// The cells live in one immutable, reference-counted block, written once
// when the row is built (Mapping::Builder) and never changed after.  A
// copy of a Mapping shares that block: copying a row — which every hop of
// the cover protocol, every retransmit buffer and every cache hit does —
// costs one reference-count increment, not an allocation per row and a
// copy of every cell.  Mapping has no mutator, so the sharing is not
// observable: equality, hashing and serialization see only the cells.

#ifndef HYPERION_CORE_MAPPING_H_
#define HYPERION_CORE_MAPPING_H_

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <map>
#include <new>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/cell.h"
#include "core/schema.h"
#include "core/tuple.h"

namespace hyperion {

/// \brief A free tuple: one Cell per schema position.
class Mapping {
 private:
  // One row's reference count and arity, followed in the same allocation
  // by its cells.
  struct Block {
    std::atomic<uint32_t> refs;
    uint32_t arity;
    Cell* cells() { return reinterpret_cast<Cell*>(this + 1); }
  };
  static_assert(sizeof(Block) % alignof(Cell) == 0);

 public:
  /// \brief Writes a new row's cells, in order, straight into the block
  /// the row will share; Build() seals it.  The arity is fixed up front.
  class Builder {
   public:
    explicit Builder(size_t arity);
    ~Builder();
    Builder(const Builder&) = delete;
    Builder& operator=(const Builder&) = delete;

    void Append(const Cell& c) {
      assert(size_ < block_->arity);
      new (block_->cells() + size_) Cell(c);
      ++size_;
    }
    void Append(Cell&& c) {
      assert(size_ < block_->arity);
      new (block_->cells() + size_) Cell(std::move(c));
      ++size_;
    }

    /// \brief The finished row; requires every cell to be appended.
    Mapping Build() && {
      assert(block_ == nullptr || size_ == block_->arity);
      return Mapping(std::exchange(block_, nullptr));
    }

   private:
    Block* block_ = nullptr;  // null for arity 0
    uint32_t size_ = 0;
  };

  Mapping() = default;
  explicit Mapping(std::vector<Cell> cells);

  Mapping(const Mapping& other) noexcept : block_(other.block_) { Ref(); }
  Mapping(Mapping&& other) noexcept
      : block_(std::exchange(other.block_, nullptr)) {}
  Mapping& operator=(const Mapping& other) noexcept {
    other.Ref();
    Unref();
    block_ = other.block_;
    return *this;
  }
  Mapping& operator=(Mapping&& other) noexcept {
    if (this != &other) {
      Unref();
      block_ = std::exchange(other.block_, nullptr);
    }
    return *this;
  }
  ~Mapping() { Unref(); }

  /// \brief Builds an all-constant mapping from a ground tuple.
  static Mapping FromTuple(const Tuple& t);

  size_t arity() const { return block_ == nullptr ? 0 : block_->arity; }
  const Cell& cell(size_t i) const { return block_->cells()[i]; }
  std::span<const Cell> cells() const {
    if (block_ == nullptr) return {};
    return {block_->cells(), block_->arity};
  }

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
  /// Variable ids are preserved (callers re-normalize when needed).  Over
  /// the identity positions 0..arity-1 it shares this row's cells.
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
    // One block holds one row, so rows sharing it are equal.
    return a.block_ == b.block_ || std::ranges::equal(a.cells(), b.cells());
  }

  size_t Hash() const;

 private:
  explicit Mapping(Block* block) : block_(block) {}

  void Ref() const {
    if (block_ != nullptr) block_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  // The last reference frees the block; acq_rel orders every other
  // holder's reads of the cells before that.
  void Unref() {
    if (block_ != nullptr &&
        block_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      Free(block_);
    }
  }
  static Block* Allocate(size_t arity);
  static void Free(Block* block);

  Block* block_ = nullptr;  // null for arity 0; its cells never change
};

struct MappingHash {
  size_t operator()(const Mapping& m) const { return m.Hash(); }
};

}  // namespace hyperion

#endif  // HYPERION_CORE_MAPPING_H_
