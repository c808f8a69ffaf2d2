// Unit tests for string helpers.

#include "common/string_util.h"

#include <gtest/gtest.h>

namespace secreta {
namespace {

TEST(SplitTest, PreservesEmptyFields) {
  auto parts = Split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
}

TEST(SplitTest, SingleField) {
  auto parts = Split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(SplitTest, EmptyInputYieldsOneEmptyField) {
  auto parts = Split("", ',');
  ASSERT_EQ(parts.size(), 1u);
}

TEST(SplitWhitespaceTest, DropsRuns) {
  auto parts = SplitWhitespace("  a \t b\n c  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(SplitWhitespaceTest, EmptyAndBlank) {
  EXPECT_TRUE(SplitWhitespace("").empty());
  EXPECT_TRUE(SplitWhitespace("   ").empty());
}

TEST(JoinTest, RoundTripsSplit) {
  std::vector<std::string> parts{"x", "y", "z"};
  EXPECT_EQ(Join(parts, ","), "x,y,z");
  EXPECT_EQ(Split(Join(parts, ";"), ';'), parts);
}

TEST(TrimTest, Behaviour) {
  EXPECT_EQ(Trim("  abc  "), "abc");
  EXPECT_EQ(Trim("abc"), "abc");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim(""), "");
}

TEST(ParseIntTest, ValidAndInvalid) {
  EXPECT_EQ(ParseInt("42").value(), 42);
  EXPECT_EQ(ParseInt(" -7 ").value(), -7);
  EXPECT_FALSE(ParseInt("4.5").ok());
  EXPECT_FALSE(ParseInt("abc").ok());
  EXPECT_FALSE(ParseInt("").ok());
  EXPECT_FALSE(ParseInt("12x").ok());
}

TEST(ParseDoubleTest, ValidAndInvalid) {
  EXPECT_DOUBLE_EQ(ParseDouble("3.25").value(), 3.25);
  EXPECT_DOUBLE_EQ(ParseDouble("-1e3").value(), -1000.0);
  EXPECT_FALSE(ParseDouble("1.2.3").ok());
  EXPECT_FALSE(ParseDouble("").ok());
}

TEST(LooksNumericTest, Behaviour) {
  EXPECT_TRUE(LooksNumeric("12"));
  EXPECT_TRUE(LooksNumeric("-3.5"));
  EXPECT_FALSE(LooksNumeric("M"));
  EXPECT_FALSE(LooksNumeric("12 13"));
}

TEST(StrFormatTest, FormatsLikePrintf) {
  EXPECT_EQ(StrFormat("%d-%s", 5, "x"), "5-x");
  EXPECT_EQ(StrFormat("%.2f", 1.239), "1.24");
}

TEST(StartsWithTest, Behaviour) {
  EXPECT_TRUE(StartsWith("abcdef", "abc"));
  EXPECT_FALSE(StartsWith("ab", "abc"));
}

TEST(Fnv1a64Test, KnownVectorsAndContinuation) {
  // Published FNV-1a 64 test vectors.
  EXPECT_EQ(Fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(Fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(Fnv1a64("foobar"), 0x85944171f73967e8ULL);
  // Continuing a hash chunk by chunk equals hashing the concatenation.
  EXPECT_EQ(Fnv1a64("bar", Fnv1a64("foo")), Fnv1a64("foobar"));
  EXPECT_EQ(Fnv1a64("", Fnv1a64("foo")), Fnv1a64("foo"));
  EXPECT_EQ(Fnv1a64("foo", kFnv1a64Basis), Fnv1a64("foo"));
}

// Pinned: unordered_maps keyed by int vectors iterate in this hash's order,
// and algorithm outputs are built by walking them.
TEST(IntVectorHashTest, PinnedValues) {
  IntVectorHash hash;
  EXPECT_EQ(hash({}), 0xcbf29ce484222325ULL);
  EXPECT_EQ(hash({0}), 0xaf63bd4c8601b7dfULL);
  EXPECT_EQ(hash({1, 2, 3}), 0xd0aa6218672cf5abULL);
  EXPECT_EQ(hash({-1, 7}), 0x14f89294b11a46bULL);
  EXPECT_EQ(hash({INT32_MAX, INT32_MIN}), 0x150fee44b11aceaULL);
}

}  // namespace
}  // namespace secreta
