// The one place the FNV prime may be spelled: not a hash-copy violation.

#ifndef FIXTURE_COMMON_FNV_H_
#define FIXTURE_COMMON_FNV_H_

#include <cstdint>

inline constexpr uint64_t kPrime = 0x100000001b3ULL;

#endif  // FIXTURE_COMMON_FNV_H_
