// A small Bloom filter over Values, used by the cover protocol's optional
// semi-join prefiltering: the information-gathering phase ships a compact
// summary of the values a peer's tables can produce, so the next peer
// drops rows that could never join — before computing or streaming
// anything.  False positives only keep extra rows (sound); false
// negatives cannot occur.

#ifndef HYPERION_CORE_VALUE_FILTER_H_
#define HYPERION_CORE_VALUE_FILTER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/hash_util.h"
#include "core/value.h"

namespace hyperion {

/// \brief Fixed-size two-hash Bloom filter (~8 bits/entry at the
/// requested capacity → ~3 % false-positive rate).
class BloomFilter {
 public:
  BloomFilter() : bits_(64, false) {}

  /// \brief Sizes the filter for about `expected_entries` insertions.
  explicit BloomFilter(size_t expected_entries)
      : bits_(std::max<size_t>(64, expected_entries * 8), false) {}

  void Add(const Value& v) {
    auto [h1, h2] = Hashes(v);
    bits_[h1 % bits_.size()] = true;
    bits_[h2 % bits_.size()] = true;
  }

  bool MayContain(const Value& v) const {
    auto [h1, h2] = Hashes(v);
    return bits_[h1 % bits_.size()] && bits_[h2 % bits_.size()];
  }

  /// \brief Raw bit vector, for wire serialization (p2p/wire.h).
  const std::vector<bool>& bit_vector() const { return bits_; }

  /// \brief Reconstructs a filter from serialized bits.  An empty vector
  /// yields the default (all-clear) filter so hash probing stays valid.
  static BloomFilter FromBits(std::vector<bool> bits) {
    BloomFilter f;
    if (!bits.empty()) f.bits_ = std::move(bits);
    return f;
  }

 private:
  std::pair<size_t, size_t> Hashes(const Value& v) const {
    size_t h1 = v.Hash();
    size_t h2 = h1;
    HashCombine(&h2, size_t{0x51ed2701});
    return {h1, h2};
  }

  std::vector<bool> bits_;
};

/// \brief A per-attribute value summary: either "anything" (a variable
/// cell can produce any value) or a Bloom filter of the producible
/// constants.
struct ValueFilter {
  bool pass_all = false;
  BloomFilter bloom;

  bool MayContain(const Value& v) const {
    return pass_all || bloom.MayContain(v);
  }
};

}  // namespace hyperion

#endif  // HYPERION_CORE_VALUE_FILTER_H_
