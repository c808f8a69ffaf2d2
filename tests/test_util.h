// Shared helpers for the SECRETA test suites.

#ifndef SECRETA_TESTS_TEST_UTIL_H_
#define SECRETA_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/csr.h"
#include "core/equivalence.h"
#include "core/guarantees.h"
#include "data/dataset.h"
#include "datagen/synthetic.h"

#define ASSERT_OK(expr)                                     \
  do {                                                      \
    const ::secreta::Status _st = (expr);                   \
    ASSERT_TRUE(_st.ok()) << _st.ToString();                \
  } while (false)

#define EXPECT_OK(expr)                                     \
  do {                                                      \
    const ::secreta::Status _st = (expr);                   \
    EXPECT_TRUE(_st.ok()) << _st.ToString();                \
  } while (false)

// Unwraps a Result<T> or fails the test.
#define ASSERT_OK_AND_ASSIGN(lhs, expr)                        \
  ASSERT_OK_AND_ASSIGN_IMPL(                                   \
      SECRETA_CONCAT(_assert_result_, __LINE__), lhs, expr)

#define ASSERT_OK_AND_ASSIGN_IMPL(tmp, lhs, expr)              \
  auto tmp = (expr);                                           \
  ASSERT_TRUE(tmp.ok()) << tmp.status().ToString();            \
  lhs = std::move(tmp).value();

namespace secreta::testing {

/// A small deterministic RT dataset for fast tests.
inline Dataset SmallRtDataset(size_t n = 200, uint64_t seed = 5) {
  SyntheticOptions options;
  options.num_records = n;
  options.num_items = 30;
  options.num_origins = 8;
  options.num_occupations = 5;
  options.age_min = 20;
  options.age_max = 59;
  options.min_items_per_record = 1;
  options.max_items_per_record = 5;
  options.seed = seed;
  auto ds = GenerateRtDataset(options);
  return std::move(ds).ValueOrDie();
}

/// k^m violations counted the plainest way: a std::map from every itemset
/// of at most `m` keys of some record in `records` (each sorted, distinct)
/// to its support. The map's lexicographic order is the count tree's DFS
/// order ([10] Sec. 5), so the first `max_violations` itemsets of support
/// below `k` whose first key is at least `from`, sorted by support as the
/// production walk sorts them, are exactly the vector that walk returns.
inline std::vector<KmViolation> EnumeratedKmViolations(
    const std::vector<std::vector<int32_t>>& records, int m, int k,
    size_t max_violations, int32_t from = 0) {
  std::map<std::vector<int32_t>, size_t> support;
  std::vector<int32_t> itemset;
  auto count = [&](auto&& self, const std::vector<int32_t>& rec,
                   size_t start) -> void {
    for (size_t i = start; i < rec.size(); ++i) {
      itemset.push_back(rec[i]);
      ++support[itemset];
      if (itemset.size() < static_cast<size_t>(m)) self(self, rec, i + 1);
      itemset.pop_back();
    }
  };
  if (m >= 1) {
    for (const auto& rec : records) count(count, rec, 0);
  }
  std::vector<KmViolation> out;
  for (const auto& [set, n] : support) {
    if (out.size() >= max_violations) break;
    if (set[0] >= from && n < static_cast<size_t>(k)) out.push_back({set, n});
  }
  std::sort(out.begin(), out.end(),
            [](const KmViolation& a, const KmViolation& b) {
              return a.support < b.support;
            });
  return out;
}

/// Fails unless `got` holds `want`'s itemsets and supports in its order.
inline void ExpectSameViolations(const std::vector<KmViolation>& got,
                                 const std::vector<KmViolation>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i].itemset, want[i].itemset) << "violation " << i;
    ASSERT_EQ(got[i].support, want[i].support) << "violation " << i;
  }
}

/// The bytes of the file at `path`.
inline std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// Equivalence classes with the given record lists, numbered in list order.
inline EquivalenceClasses ClassesOf(
    const std::vector<std::vector<uint32_t>>& groups) {
  EquivalenceClasses classes;
  for (size_t c = 0; c < groups.size(); ++c) {
    for (uint32_t r : groups[c]) {
      if (r >= classes.group_of.size()) classes.group_of.resize(r + 1);
      classes.group_of[r] = static_cast<uint32_t>(c);
    }
  }
  classes.groups = Csr::Build(groups.size(), [&](auto&& emit) {
    for (size_t c = 0; c < groups.size(); ++c) {
      for (uint32_t r : groups[c]) emit(c, r);
    }
  });
  return classes;
}

/// Replaces the file at `path` with `bytes`.
inline void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

}  // namespace secreta::testing

#endif  // SECRETA_TESTS_TEST_UTIL_H_
