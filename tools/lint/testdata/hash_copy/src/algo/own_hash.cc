// Seeded hash-copy violation for `lint.hash_copy_detects`: a private FNV-1a
// functor outside src/common/.

#include <cstdint>
#include <vector>

struct VecHash {
  uint64_t operator()(const std::vector<int32_t>& v) const {
    uint64_t h = 0xcbf29ce484222325ULL;
    for (int32_t x : v) {
      h ^= static_cast<uint32_t>(x);
      h *= 0x100000001b3ULL;  // hash-copy: the prime outside src/common/
    }
    return h;
  }
};
