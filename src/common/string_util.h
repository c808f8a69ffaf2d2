// String helpers shared across the library (parsing, joining, formatting).

#ifndef SECRETA_COMMON_STRING_UTIL_H_
#define SECRETA_COMMON_STRING_UTIL_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace secreta {

/// Splits `input` on `delim`. Empty fields are preserved ("a,,b" -> 3 fields).
std::vector<std::string> Split(std::string_view input, char delim);

/// Splits on any whitespace run; empty fields are dropped.
std::vector<std::string> SplitWhitespace(std::string_view input);

/// Joins `parts` with `delim`.
std::string Join(const std::vector<std::string>& parts, std::string_view delim);

/// Removes leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view input);

/// Parses a signed integer; rejects trailing garbage.
Result<int64_t> ParseInt(std::string_view input);

/// Parses a floating-point number; rejects trailing garbage.
Result<double> ParseDouble(std::string_view input);

/// True if `value` looks like a number (parsable as double).
bool LooksNumeric(std::string_view value);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Lowercases ASCII characters.
std::string ToLower(std::string_view input);

/// True if `text` starts with `prefix`.
inline bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.substr(0, prefix.size()) == prefix;
}

/// The 64-bit FNV-1a offset basis: the hash of no bytes.
inline constexpr uint64_t kFnv1a64Basis = 0xcbf29ce484222325ULL;
/// The 64-bit FNV prime.
inline constexpr uint64_t kFnv1a64Prime = 0x100000001b3ULL;

/// 64-bit FNV-1a hash. Stable across runs, platforms and standard-library
/// implementations (unlike std::hash), so it is safe to use for
/// content-addressed cache keys and persisted fingerprints. `hash` continues
/// the hash of earlier bytes: Fnv1a64(b, Fnv1a64(a)) == Fnv1a64(a + b), so a
/// stream hashes chunk by chunk without being concatenated.
uint64_t Fnv1a64(std::string_view input, uint64_t hash = kFnv1a64Basis);

/// Combines two 64-bit hashes order-dependently (boost::hash_combine-style).
uint64_t HashCombine(uint64_t seed, uint64_t value);

/// FNV-1a over an int vector or span, one 32-bit word per element: the hash
/// of every unordered_map keyed by node tuples, itemsets or gen covers, and
/// of the equivalence-class table's QI vectors. It is the same on every run
/// and platform, so those maps iterate in the same order and whatever is
/// built by walking them keeps its bytes.
struct IntVectorHash {
  size_t operator()(const std::vector<int32_t>& v) const { return Of(v); }
  /// The same hash of any contiguous ints. Not an operator() overload, so a
  /// braced list still converts to the vector.
  static size_t Of(std::span<const int32_t> v) {
    uint64_t h = kFnv1a64Basis;
    for (int32_t x : v) {
      h ^= static_cast<uint32_t>(x);
      h *= kFnv1a64Prime;
    }
    return static_cast<size_t>(h);
  }
};

}  // namespace secreta

#endif  // SECRETA_COMMON_STRING_UTIL_H_
