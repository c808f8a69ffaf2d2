// Compressed sparse rows (CSR): write-once lists of uint32_t values keyed by
// a dense range of ids, all values in one array and one offset per key. Every
// such key -> list map in the library (posting lists, recoding caches, hash
// shard plans) uses this one layout and its one counting-sort builder
// (DESIGN.md §1.6).

#ifndef SECRETA_COMMON_CSR_H_
#define SECRETA_COMMON_CSR_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace secreta {

/// \brief Immutable key -> values lists over keys [0, num_keys()).
///
/// Key k's values are listed in the order Build emitted them. 4 bytes per
/// value plus 8 per key; thread-safe for concurrent const use.
class Csr {
 public:
  /// Counting sort. `for_each_pair(emit)` calls emit(key, value) for every
  /// pair, each key < num_keys. It runs twice, once to count and once to
  /// place, and must emit the same pairs in the same order both times.
  template <typename ForEachPair>
  static Csr Build(size_t num_keys, ForEachPair&& for_each_pair) {
    Csr csr;
    csr.offsets_.assign(num_keys + 1, 0);
    for_each_pair([&](size_t key, uint32_t) { ++csr.offsets_[key + 1]; });
    for (size_t k = 0; k < num_keys; ++k) {
      csr.offsets_[k + 1] += csr.offsets_[k];
    }
    csr.values_.resize(csr.offsets_[num_keys]);
    std::vector<size_t> cursor(csr.offsets_.begin(), csr.offsets_.end() - 1);
    for_each_pair([&](size_t key, uint32_t value) {
      csr.values_[cursor[key]++] = value;
    });
    return csr;
  }

  size_t num_keys() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }

  /// Key `key`'s values (key < num_keys()).
  std::span<const uint32_t> operator[](size_t key) const {
    return {values_.data() + offsets_[key], offsets_[key + 1] - offsets_[key]};
  }

 private:
  std::vector<size_t> offsets_;  // num_keys + 1
  std::vector<uint32_t> values_;
};

}  // namespace secreta

#endif  // SECRETA_COMMON_CSR_H_
