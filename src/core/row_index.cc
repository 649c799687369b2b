#include "core/row_index.h"

#include <cassert>

namespace hyperion {

uint32_t RowIndex::Tag(size_t hash) {
  // Fibonacci mixing: the high half of the product depends on every
  // input bit, so tags (and the home slots taken from them) spread even
  // when Mapping::Hash() varies only in its low bits.
  return static_cast<uint32_t>(
      (static_cast<uint64_t>(hash) * uint64_t{0x9e3779b97f4a7c15}) >> 32);
}

std::optional<size_t> RowIndex::Find(std::span<const Mapping> rows,
                                     const Mapping& row, size_t hash) const {
  if (slots_.empty()) return std::nullopt;
  const uint32_t tag = Tag(hash);
  const size_t mask = slots_.size() - 1;
  for (size_t i = tag & mask;; i = (i + 1) & mask) {
    const uint64_t slot = slots_[i];
    if (slot == 0) return std::nullopt;
    const size_t pos = static_cast<uint32_t>(slot) - 1;
    if (static_cast<uint32_t>(slot >> 32) == tag && rows[pos] == row) {
      return pos;
    }
  }
}

bool RowIndex::ContainsUpToRenaming(std::span<const Mapping> rows,
                                    const Mapping& row) const {
  if (row.IsNormalized()) return Find(rows, row, row.Hash()).has_value();
  const Mapping normalized = row.Normalized();
  return Find(rows, normalized, normalized.Hash()).has_value();
}

void RowIndex::Insert(size_t hash, size_t pos) {
  assert(pos < UINT32_MAX);
  // Keep the load factor at or below 1/2 so probe runs stay short.
  if (2 * (size_ + 1) > slots_.size()) Grow();
  const uint32_t tag = Tag(hash);
  const size_t mask = slots_.size() - 1;
  size_t i = tag & mask;
  while (slots_[i] != 0) i = (i + 1) & mask;
  slots_[i] = (uint64_t{tag} << 32) | (pos + 1);
  ++size_;
}

void RowIndex::Grow() {
  std::vector<uint64_t> old = std::move(slots_);
  slots_.assign(old.empty() ? 16 : 2 * old.size(), 0);
  const size_t mask = slots_.size() - 1;
  for (uint64_t slot : old) {
    if (slot == 0) continue;
    size_t i = static_cast<uint32_t>(slot >> 32) & mask;
    while (slots_[i] != 0) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

}  // namespace hyperion
