// Tests for the out-of-core sharded dataset engine: the SBC1 binary format
// (writer → mmap reader round trip against the CSV oracle, pinned v1 bytes,
// corruption rejection), ShardPlan determinism, ColumnProvider backend
// interchangeability, ShardCheckpoint persistence, and the sharded
// anonymization runner's byte-identity guarantees.

#include <gtest/gtest.h>
#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "core/context.h"
#include "csv/csv.h"
#include "data/column_provider.h"
#include "data/format.h"
#include "data/shard.h"
#include "engine/anonymization_module.h"
#include "engine/sharded_runner.h"
#include "hierarchy/hierarchy_builder.h"
#include "obs/trace.h"
#include "robust/checkpoint.h"
#include "robust/shard_checkpoint.h"
#include "tests/test_util.h"

namespace secreta {
namespace {

using secreta::testing::ReadFileBytes;
using secreta::testing::SmallRtDataset;
using secreta::testing::WriteFileBytes;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string CanonicalCsv(const Dataset& dataset) {
  return csv::WriteCsv(dataset.ToCsv());
}

// ---------------------------------------------------------------------------
// ShardPlan

TEST(ShardPlanTest, RangePlanIsContiguousAndCovering) {
  ShardPlan plan = ShardPlan::Make(ShardKind::kRange, 10, 3);
  ASSERT_EQ(plan.num_shards(), 3u);
  std::vector<uint32_t> all;
  for (size_t s = 0; s < plan.num_shards(); ++s) {
    std::vector<uint32_t> rows = plan.Rows(s);
    EXPECT_EQ(rows.size(), plan.ShardSize(s));
    for (uint32_t r : rows) {
      EXPECT_EQ(plan.ShardOf(r), s);
      if (!all.empty()) {
        EXPECT_EQ(r, all.back() + 1);  // contiguous
      }
      all.push_back(r);
    }
  }
  ASSERT_EQ(all.size(), 10u);
  EXPECT_EQ(all.front(), 0u);
  EXPECT_EQ(all.back(), 9u);
}

// Every row in exactly one shard, each shard's rows ascending and agreeing
// with ShardOf and ShardSize.
void ExpectCoversEveryRowOnce(const ShardPlan& plan) {
  std::set<uint32_t> seen;
  size_t total = 0;
  for (size_t s = 0; s < plan.num_shards(); ++s) {
    std::vector<uint32_t> rows = plan.Rows(s);
    EXPECT_EQ(rows.size(), plan.ShardSize(s));
    total += rows.size();
    uint32_t prev = 0;
    bool first = true;
    for (uint32_t r : rows) {
      EXPECT_TRUE(first || r > prev) << "rows must ascend";
      first = false;
      prev = r;
      EXPECT_LT(r, plan.num_records());
      EXPECT_EQ(plan.ShardOf(r), s);
      EXPECT_TRUE(seen.insert(r).second) << "row " << r << " assigned twice";
    }
  }
  EXPECT_EQ(total, plan.num_records());
}

TEST(ShardPlanTest, HashPlanCoversEveryRowExactlyOnce) {
  struct Case {
    size_t records;
    size_t shards;
    uint64_t salt;
    size_t want_shards;
  };
  const Case cases[] = {
      {1000, 7, 99, 7},
      {0, 5, 1, 1},    // no records: one empty shard
      {3, 10, 7, 3},   // more shards than records: clamped
      {1, 1, 0, 1},
      {257, 16, 42, 16},
      {64, 64, 5, 64},  // as many shards as records
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(StrFormat("records=%zu shards=%zu salt=%llu", c.records,
                           c.shards, static_cast<unsigned long long>(c.salt)));
    ShardPlan plan = ShardPlan::Make(ShardKind::kHash, c.records, c.shards,
                                     c.salt);
    ASSERT_EQ(plan.num_shards(), c.want_shards);
    ExpectCoversEveryRowOnce(plan);
    // A copy lists the same rows, and outlives the plan it was copied from.
    ShardPlan copy;
    {
      ShardPlan original = plan;
      copy = original;
    }
    ASSERT_EQ(copy.num_shards(), plan.num_shards());
    ExpectCoversEveryRowOnce(copy);
    for (size_t s = 0; s < plan.num_shards(); ++s) {
      EXPECT_EQ(copy.Rows(s), plan.Rows(s));
    }
  }
  // A different salt reshuffles membership.
  ShardPlan plan = ShardPlan::Make(ShardKind::kHash, 1000, 7, /*salt=*/99);
  ShardPlan other = ShardPlan::Make(ShardKind::kHash, 1000, 7, /*salt=*/100);
  bool any_moved = false;
  for (size_t r = 0; r < 1000; ++r) {
    any_moved = any_moved || plan.ShardOf(r) != other.ShardOf(r);
  }
  EXPECT_TRUE(any_moved);
}

TEST(ShardPlanTest, ClampsShardCount) {
  EXPECT_EQ(ShardPlan::Make(ShardKind::kRange, 3, 100).num_shards(), 3u);
  EXPECT_EQ(ShardPlan::Make(ShardKind::kRange, 0, 5).num_shards(), 1u);
  EXPECT_EQ(ShardPlan::Make(ShardKind::kRange, 5, 0).num_shards(), 1u);
}

TEST(ShardPlanTest, ShardSeedKeepsRunSeedForShardZero) {
  EXPECT_EQ(ShardSeed(42, 0), 42u);
  EXPECT_NE(ShardSeed(42, 1), 42u);
  EXPECT_NE(ShardSeed(42, 1), ShardSeed(42, 2));
  EXPECT_EQ(ShardSeed(42, 1), ShardSeed(42, 1));  // deterministic
}

TEST(ShardPlanTest, FingerprintDistinguishesPlans) {
  uint64_t base = ShardPlan::Make(ShardKind::kRange, 100, 4, 0).Fingerprint();
  EXPECT_EQ(base, ShardPlan::Make(ShardKind::kRange, 100, 4, 0).Fingerprint());
  EXPECT_NE(base, ShardPlan::Make(ShardKind::kHash, 100, 4, 0).Fingerprint());
  EXPECT_NE(base, ShardPlan::Make(ShardKind::kRange, 100, 5, 0).Fingerprint());
  EXPECT_NE(base, ShardPlan::Make(ShardKind::kRange, 101, 4, 0).Fingerprint());
  EXPECT_NE(base, ShardPlan::Make(ShardKind::kRange, 100, 4, 1).Fingerprint());
}

TEST(ShardPlanTest, ParseShardKindInvertsName) {
  ASSERT_OK_AND_ASSIGN(ShardKind kind, ParseShardKind("hash"));
  EXPECT_EQ(kind, ShardKind::kHash);
  ASSERT_OK_AND_ASSIGN(kind, ParseShardKind("range"));
  EXPECT_EQ(kind, ShardKind::kRange);
  EXPECT_FALSE(ParseShardKind("round-robin").ok());
}

// ---------------------------------------------------------------------------
// SBC1 writer → reader

class FormatTest : public ::testing::Test {
 protected:
  void WriteAndOpen(const Dataset& dataset, const BinaryWriteOptions& options,
                    const std::string& name) {
    path_ = TempPath(name);
    ASSERT_OK(WriteBinaryDataset(dataset, path_, options));
    auto reader = BinaryDatasetReader::Open(path_);
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    reader_ = std::make_unique<BinaryDatasetReader>(std::move(reader).value());
  }

  std::string path_;
  std::unique_ptr<BinaryDatasetReader> reader_;
};

TEST_F(FormatTest, RoundTripMatchesCsvOracle) {
  Dataset original = SmallRtDataset(300, 11);
  BinaryWriteOptions options;
  options.num_shards = 4;
  WriteAndOpen(original, options, "roundtrip.sbc");

  EXPECT_TRUE(LooksLikeBinaryDataset(path_));
  EXPECT_EQ(reader_->num_records(), original.num_records());
  EXPECT_EQ(reader_->num_shards(), 4u);
  EXPECT_EQ(reader_->content_fingerprint(),
            DatasetContentFingerprint(original));

  ASSERT_OK_AND_ASSIGN(Dataset decoded, reader_->ReadAll());
  EXPECT_EQ(CanonicalCsv(decoded), CanonicalCsv(original));
  ASSERT_OK(reader_->VerifyFile());
}

TEST_F(FormatTest, ShardSectionsMatchPlanSlices) {
  Dataset original = SmallRtDataset(250, 3);
  BinaryWriteOptions options;
  options.num_shards = 3;
  WriteAndOpen(original, options, "slices.sbc");

  csv::CsvTable full = original.ToCsv();
  ShardPlan plan = reader_->plan();
  for (size_t s = 0; s < plan.num_shards(); ++s) {
    const std::vector<uint32_t> rows = plan.Rows(s);
    ASSERT_OK_AND_ASSIGN(Dataset shard, reader_->ReadShard(s));
    ASSERT_EQ(shard.num_records(), rows.size());
    // Global dictionaries: the shard sees the whole dataset's id space.
    for (size_t col = 0; col < shard.num_relational(); ++col) {
      EXPECT_EQ(shard.dictionary(col).size(), original.dictionary(col).size());
    }
    EXPECT_EQ(shard.item_dictionary().size(),
              original.item_dictionary().size());
    csv::CsvTable table = shard.ToCsv();
    ASSERT_EQ(table.size(), rows.size() + 1);
    for (size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(table[i + 1], full[rows[i] + 1]) << "shard " << s << " row " << i;
    }
  }
}

TEST_F(FormatTest, HashPartitionedFileRoundTrips) {
  Dataset original = SmallRtDataset(200, 17);
  BinaryWriteOptions options;
  options.num_shards = 5;
  options.shard_kind = ShardKind::kHash;
  options.salt = 1234;
  WriteAndOpen(original, options, "hashed.sbc");

  ShardPlan plan = reader_->plan();
  EXPECT_EQ(plan.kind(), ShardKind::kHash);
  EXPECT_EQ(plan.salt(), 1234u);
  ASSERT_OK_AND_ASSIGN(Dataset decoded, reader_->ReadAll());
  EXPECT_EQ(CanonicalCsv(decoded), CanonicalCsv(original));
}

TEST_F(FormatTest, ItemSupportsMatchFullScan) {
  Dataset original = SmallRtDataset(180, 23);
  WriteAndOpen(original, BinaryWriteOptions{}, "supports.sbc");
  std::vector<uint64_t> expected(original.item_dictionary().size(), 0);
  for (size_t r = 0; r < original.num_records(); ++r) {
    for (ItemId item : original.items(r).raw()) {
      ++expected[static_cast<size_t>(item)];
    }
  }
  EXPECT_EQ(reader_->item_supports(), expected);
}

// ---------------------------------------------------------------------------
// Pinned SBC1 v1 bytes (docs/FORMATS.md). Files written before a change to
// the writer must still open after it, so these literals only change
// together with the format version.

// The 3-record dataset behind both images, written in 2 range shards.
Dataset GoldenDataset() {
  auto table = csv::ParseCsv("Age,Sex,Items\n30,F,a b\n41,M,b\n30,F,c a\n");
  return std::move(Dataset::FromCsvInferred(table.value())).ValueOrDie();
}

std::string FromHex(const char* hex) {
  std::string bytes;
  for (size_t i = 0; hex[i] != '\0' && hex[i + 1] != '\0'; i += 2) {
    bytes.push_back(
        static_cast<char>(std::stoi(std::string(hex + i, 2), nullptr, 16)));
  }
  return bytes;
}

// As earlier writers wrote it: flags 0x0003, and every shard section ends in
// a block of posting lists that readers skip.
const char kGoldenV1LegacyPostingsHex[] =
    "5342433101000300030000000000000003000000020000000000000000000000"
    "0000000000000000030000000300000041676501000000030000005365780000"
    "0000050000004974656d73020000000200000002000000333002000000343100"
    "00000000003e400000000000804440020000000100000046010000004d030000"
    "0001000000610100000062010000006302000000000000000200000000000000"
    "0100000000000000534852440000000001000000000000000000000000000000"
    "0000000000000000000000000200000000000000000000000100000002000000"
    "1200000001000000000000000100000001000000000004000000000000000200"
    "0000120000000100000000000000010000000100000000000400000000000000"
    "0300000012000000010000000000000001000000010000000000120000000100"
    "0000000000000100000001000000000004000000000000005348524401000000"
    "0200000000000000010000000200000001000000000000000100000000000000"
    "0000000000000000010000000000000003000000000000000100000000000000"
    "0200000002000000120000000100000000000000010000000100000001001200"
    "0000010000000000000001000000010000000000020000001200000001000000"
    "0000000001000000010000000100120000000100000000000000010000000100"
    "0000000003000000120000000100000000000000010000000100000001001200"
    "0000010000000000000001000000010000000000120000000100000000000000"
    "010000000100000001005342434602000000a800000000000000b00000000000"
    "0000658b3d4c9961acd15801000000000000f200000000000000b11ba786cb2c"
    "ffc75b4307c349402345328417de2f6588354a02000000000000480000003143"
    "4253";

// As the writer writes it now: flags 0x0001, sections end at the CSR.
const char kGoldenV1Hex[] =
    "5342433101000100030000000000000003000000020000000000000000000000"
    "0000000000000000030000000300000041676501000000030000005365780000"
    "0000050000004974656d73020000000200000002000000333002000000343100"
    "00000000003e400000000000804440020000000100000046010000004d030000"
    "0001000000610100000062010000006302000000000000000200000000000000"
    "0100000000000000534852440000000001000000000000000000000000000000"
    "0000000000000000000000000200000000000000000000000100000053485244"
    "0100000002000000000000000100000002000000010000000000000001000000"
    "0000000000000000000000000100000000000000030000000000000001000000"
    "00000000020000005342434602000000a8000000000000003400000000000000"
    "62ca1abcbca11deddc000000000000004c00000000000000c15dec7d17bbdeef"
    "5b4307c3494023453f09fd96ed745a7628010000000000004800000031434253";

TEST_F(FormatTest, ReadsGoldenV1BytesWithLegacyPostings) {
  const std::string path = TempPath("golden_legacy.sbc");
  WriteFileBytes(path, FromHex(kGoldenV1LegacyPostingsHex));
  ASSERT_OK_AND_ASSIGN(BinaryDatasetReader reader,
                       BinaryDatasetReader::Open(path));
  ASSERT_OK(reader.VerifyFile());
  ASSERT_OK_AND_ASSIGN(Dataset decoded, reader.ReadAll());
  EXPECT_EQ(CanonicalCsv(decoded), CanonicalCsv(GoldenDataset()));
}

TEST_F(FormatTest, WritesAndReadsGoldenV1Bytes) {
  BinaryWriteOptions options;
  options.num_shards = 2;
  WriteAndOpen(GoldenDataset(), options, "golden.sbc");
  EXPECT_EQ(ReadFileBytes(path_), FromHex(kGoldenV1Hex));
  ASSERT_OK(reader_->VerifyFile());
  ASSERT_OK_AND_ASSIGN(Dataset decoded, reader_->ReadAll());
  EXPECT_EQ(CanonicalCsv(decoded), CanonicalCsv(GoldenDataset()));
}

TEST(FormatCorruptionTest, RejectsNonSbcFiles) {
  std::string path = TempPath("not_binary.csv");
  WriteFileBytes(path, "Age,Gender\n35,M\n");
  EXPECT_FALSE(LooksLikeBinaryDataset(path));
  EXPECT_FALSE(BinaryDatasetReader::Open(path).ok());
}

TEST(FormatCorruptionTest, RejectsTruncationVersionSkewAndBitFlips) {
  Dataset original = SmallRtDataset(150, 41);
  std::string path = TempPath("corrupt.sbc");
  BinaryWriteOptions options;
  options.num_shards = 2;
  ASSERT_OK(WriteBinaryDataset(original, path, options));
  const std::string good = ReadFileBytes(path);

  // Truncation (missing trailer).
  WriteFileBytes(path, good.substr(0, good.size() - 8));
  EXPECT_FALSE(BinaryDatasetReader::Open(path).ok());

  // Unsupported version.
  std::string bad = good;
  bad[4] = 0x7f;  // version u16 lives right after the magic
  WriteFileBytes(path, bad);
  EXPECT_FALSE(BinaryDatasetReader::Open(path).ok());

  // A bit flip inside the second shard section: Open still succeeds (header,
  // dictionaries and footer are intact) but reading that shard fails its
  // footer fingerprint, and a full verification fails.
  bad = good;
  size_t first = bad.find("SHRD");
  ASSERT_NE(first, std::string::npos);
  size_t second = bad.find("SHRD", first + 4);
  ASSERT_NE(second, std::string::npos);
  bad[second + 12] = static_cast<char>(bad[second + 12] ^ 0x01);
  WriteFileBytes(path, bad);
  auto reader = BinaryDatasetReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_TRUE(reader->ReadShard(0).ok());
  EXPECT_FALSE(reader->ReadShard(1).ok());
  EXPECT_FALSE(reader->VerifyFile().ok());
}

namespace {

// Little-endian field accessors for corruption surgery on SBC1 images (all
// integers in the format are LE; see docs/FORMATS.md).
uint64_t GetU64LE(const std::string& bytes, size_t off) {
  uint64_t v = 0;
  for (size_t i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(bytes[off + i]))
         << (8 * i);
  }
  return v;
}

void PutU64LE(std::string* bytes, size_t off, uint64_t v) {
  for (size_t i = 0; i < 8; ++i) {
    (*bytes)[off + i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  }
}

// Offset of the footer, read from the trailer (last 16 bytes: u64 footer
// offset, u32 footer length, u32 end magic).
uint64_t FooterOffset(const std::string& bytes) {
  return GetU64LE(bytes, bytes.size() - kSbcTrailerBytes);
}

}  // namespace

TEST(FormatCorruptionTest, RejectsTruncatedFooter) {
  Dataset original = SmallRtDataset(150, 41);
  std::string path = TempPath("truncfooter.sbc");
  BinaryWriteOptions options;
  options.num_shards = 2;
  ASSERT_OK(WriteBinaryDataset(original, path, options));
  const std::string good = ReadFileBytes(path);

  // Drop the tail of the footer but keep the trailer: the trailer's
  // (offset, length) no longer matches the file size, which must be caught
  // before any footer byte is trusted.
  const std::string trailer = good.substr(good.size() - kSbcTrailerBytes);
  std::string bad = good.substr(0, good.size() - kSbcTrailerBytes - 24);
  bad += trailer;
  WriteFileBytes(path, bad);
  EXPECT_FALSE(BinaryDatasetReader::Open(path).ok());

  // Footer truncated to zero (trailer directly after the shard sections).
  std::string no_footer = good.substr(0, FooterOffset(good)) + trailer;
  WriteFileBytes(path, no_footer);
  EXPECT_FALSE(BinaryDatasetReader::Open(path).ok());
}

TEST(FormatCorruptionTest, DetectsBitFlippedDictionaryPage) {
  Dataset original = SmallRtDataset(150, 41);
  std::string path = TempPath("dictflip.sbc");
  BinaryWriteOptions options;
  options.num_shards = 2;
  ASSERT_OK(WriteBinaryDataset(original, path, options));
  std::string bad = ReadFileBytes(path);

  // Flip the top bit of the first byte of a known dictionary string. The
  // dictionary pages sit between the schema block and the first shard
  // section; locating the value's bytes directly keeps the test independent
  // of the preamble's exact field layout. XOR 0x80 cannot collide with any
  // existing ASCII entry, so parsing still succeeds — the corruption is
  // only catchable by fingerprints.
  const std::string needle = original.dictionary(0).value(0);
  ASSERT_FALSE(needle.empty());
  const size_t pos = bad.find(needle);
  ASSERT_NE(pos, std::string::npos);
  ASSERT_LT(pos, FooterOffset(bad));  // inside the preamble, not a cell
  bad[pos] = static_cast<char>(bad[pos] ^ 0x80);
  WriteFileBytes(path, bad);

  ASSERT_OK_AND_ASSIGN(BinaryDatasetReader reader,
                       BinaryDatasetReader::Open(path));
  // Shard sections hash clean (the flip is outside them)…
  EXPECT_TRUE(reader.ReadShard(0).ok());
  // …so only the whole-file physical fingerprint convicts the page.
  EXPECT_FALSE(reader.VerifyFile().ok());
}

TEST(FormatCorruptionTest, RejectsOversizedSectionLength) {
  Dataset original = SmallRtDataset(150, 41);
  std::string path = TempPath("oversized.sbc");
  BinaryWriteOptions options;
  options.num_shards = 2;
  ASSERT_OK(WriteBinaryDataset(original, path, options));
  std::string bad = ReadFileBytes(path);

  // Footer layout: u32 magic, u32 shard count, then per shard
  // {u64 offset, u64 length, u64 fingerprint}. Blow up shard 0's length so
  // offset + length overruns the footer — Open must reject it at footer
  // parse time rather than letting ReadShard map past the section table.
  const size_t shard0_len_off = static_cast<size_t>(FooterOffset(bad)) + 16;
  ASSERT_NE(GetU64LE(bad, shard0_len_off), 0u);
  PutU64LE(&bad, shard0_len_off, ~uint64_t{0} / 2);
  WriteFileBytes(path, bad);
  auto reader = BinaryDatasetReader::Open(path);
  EXPECT_FALSE(reader.ok());
}

// Writes a 2-shard file of a small RT dataset to `name`; returns its bytes.
std::string TwoShardImage(const std::string& name) {
  std::string path = TempPath(name);
  BinaryWriteOptions options;
  options.num_shards = 2;
  EXPECT_OK(WriteBinaryDataset(SmallRtDataset(150, 41), path, options));
  return ReadFileBytes(path);
}

// The status code Open gives `bytes` written to `name`.
StatusCode OpenCode(const std::string& name, const std::string& bytes) {
  std::string path = TempPath(name);
  WriteFileBytes(path, bytes);
  return BinaryDatasetReader::Open(path).status().code();
}

// The hostile files below are also in tests/fuzz/corpus/sbc1/, as mutations
// of tiny.sbc1. Without the check each one targets, the reader reads outside
// the file or sizes an allocation by a hostile count.

TEST(FormatCorruptionTest, RejectsFooterRangeThatWrapsPastFileSize) {
  std::string bad = TwoShardImage("trailer_wrap.sbc");
  // footer_offset + footer_length + 16 equals the file size only modulo
  // 2^64, with footer_offset far past the end of the file.
  const uint64_t length = 0xFFFFFFFF;
  const size_t trailer = bad.size() - kSbcTrailerBytes;
  PutU64LE(&bad, trailer, uint64_t{trailer} - length);
  bad.replace(trailer + 8, 4, 4, '\xff');
  EXPECT_EQ(OpenCode("trailer_wrap.sbc", bad), StatusCode::kInvalidArgument);
}

TEST(FormatCorruptionTest, RejectsSectionRangeThatWraps) {
  std::string bad = TwoShardImage("footer_wrap.sbc");
  // Shard 0's offset + length wraps to 1, which is below the footer offset.
  const size_t shard0 = static_cast<size_t>(FooterOffset(bad)) + 8;
  PutU64LE(&bad, shard0 + 8, uint64_t{0} - GetU64LE(bad, shard0) + 1);
  EXPECT_EQ(OpenCode("footer_wrap.sbc", bad), StatusCode::kInvalidArgument);
}

TEST(FormatCorruptionTest, RejectsRecordCountTheFileCannotHold) {
  std::string bad = TwoShardImage("huge_count.sbc");
  PutU64LE(&bad, 8, uint64_t{1} << 50);  // header num_records
  EXPECT_EQ(OpenCode("huge_count.sbc", bad), StatusCode::kInvalidArgument);
}

TEST(FormatCorruptionTest, RejectsItemCountPastItsSection) {
  std::string bad = TwoShardImage("csr_count.sbc");
  // Section 0: magic, index, row count, row ids, cells, then the CSR's
  // row_count + 1 offsets. Raise the last offset by 2^62: four bytes per
  // item wraps back to the true byte count. The section fingerprint is
  // recomputed, so only the bound check can refuse the section.
  const size_t footer = static_cast<size_t>(FooterOffset(bad));
  const size_t section = static_cast<size_t>(GetU64LE(bad, footer + 8));
  const size_t length = static_cast<size_t>(GetU64LE(bad, footer + 16));
  const size_t rows = static_cast<size_t>(GetU64LE(bad, section + 8));
  const size_t cols = SmallRtDataset(1, 41).num_relational();
  const size_t last = section + 16 + 4 * rows * (1 + cols) + 8 * rows;
  PutU64LE(&bad, last, GetU64LE(bad, last) + (uint64_t{1} << 62));
  PutU64LE(&bad, footer + 24, Fnv1a64(bad.substr(section, length)));
  std::string path = TempPath("csr_count.sbc");
  WriteFileBytes(path, bad);
  ASSERT_OK_AND_ASSIGN(BinaryDatasetReader reader,
                       BinaryDatasetReader::Open(path));
  EXPECT_EQ(reader.ReadShard(0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(reader.ReadAll().status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// ColumnProvider backends

TEST(ColumnProviderTest, BackendsAreInterchangeable) {
  Dataset original = SmallRtDataset(240, 31);
  std::string csv_path = TempPath("provider.csv");
  ASSERT_OK(csv::WriteFile(csv_path, CanonicalCsv(original)));
  std::string bin_path = TempPath("provider.sbc");
  BinaryWriteOptions write_options;
  write_options.num_shards = 3;
  ASSERT_OK(WriteBinaryDataset(original, bin_path, write_options));

  std::unique_ptr<ColumnProvider> memory = MakeMemoryProvider(original);
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<ColumnProvider> csv_provider,
                       OpenColumnProvider(csv_path));
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<ColumnProvider> binary,
                       OpenColumnProvider(bin_path));
  EXPECT_EQ(memory->source(), DataSource::kMemory);
  EXPECT_EQ(csv_provider->source(), DataSource::kCsv);
  EXPECT_EQ(binary->source(), DataSource::kBinary);

  // Same logical dataset ⇒ same fingerprint, supports and dictionaries.
  EXPECT_EQ(memory->content_fingerprint(), binary->content_fingerprint());
  EXPECT_EQ(memory->content_fingerprint(), csv_provider->content_fingerprint());
  EXPECT_EQ(memory->item_supports(), binary->item_supports());
  ASSERT_EQ(memory->dictionaries().size(), binary->dictionaries().size());

  // Binary files carry their native plan; memory providers slice any plan.
  ASSERT_TRUE(binary->native_plan().has_value());
  ShardPlan plan = *binary->native_plan();
  EXPECT_EQ(plan.num_shards(), 3u);
  EXPECT_FALSE(memory->native_plan().has_value());

  for (size_t s = 0; s < plan.num_shards(); ++s) {
    ASSERT_OK_AND_ASSIGN(Dataset from_memory, memory->MaterializeShard(plan, s));
    ASSERT_OK_AND_ASSIGN(Dataset from_binary, binary->MaterializeShard(plan, s));
    ASSERT_OK_AND_ASSIGN(Dataset from_csv,
                         csv_provider->MaterializeShard(plan, s));
    EXPECT_EQ(CanonicalCsv(from_memory), CanonicalCsv(from_binary));
    EXPECT_EQ(CanonicalCsv(from_memory), CanonicalCsv(from_csv));
  }
}

TEST(ColumnProviderTest, BinaryProviderServesOnlyItsNativePlan) {
  Dataset original = SmallRtDataset(100, 3);
  std::string path = TempPath("native_only.sbc");
  BinaryWriteOptions options;
  options.num_shards = 2;
  ASSERT_OK(WriteBinaryDataset(original, path, options));
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<ColumnProvider> provider,
                       OpenBinaryProvider(path));
  ShardPlan foreign = ShardPlan::Make(ShardKind::kRange, 100, 4);
  auto result = provider->MaterializeShard(foreign, 0);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(DatasetPartsTest, FromPartsValidatesShapeAndIds) {
  Dataset original = SmallRtDataset(50, 13);
  std::unique_ptr<ColumnProvider> provider = MakeMemoryProvider(original);
  ShardPlan plan = ShardPlan::Make(ShardKind::kRange, 50, 1);
  ASSERT_OK_AND_ASSIGN(Dataset copy, provider->MaterializeShard(plan, 0));
  EXPECT_EQ(CanonicalCsv(copy), CanonicalCsv(original));

  // Malformed parts must be rejected, not crash.
  Dataset::Parts parts;
  parts.schema = original.schema();
  parts.num_records = 2;
  EXPECT_FALSE(Dataset::FromParts(std::move(parts)).ok());  // no dictionaries
}

TEST(DatasetMemoryBytesTest, GrowsWithRecords) {
  size_t small = SmallRtDataset(100, 7).MemoryBytes();
  size_t large = SmallRtDataset(400, 7).MemoryBytes();
  EXPECT_GT(small, 0u);
  EXPECT_GT(large, small);
}

// ---------------------------------------------------------------------------
// ShardCheckpoint

// One shard block's payload as a test writes and reads it.
struct Block {
  ShardMeta meta;
  std::vector<uint32_t> rows;
  std::vector<std::string> lines;  ///< parallel to `rows`
};

Block MakeBlock(size_t shard, std::vector<uint32_t> rows,
                std::vector<std::string> lines, double gcp = 0,
                double seconds = 0) {
  Block block;
  block.meta.shard = shard;
  block.meta.num_rows = rows.size();
  block.meta.gcp = gcp;
  block.meta.seconds = seconds;
  block.rows = std::move(rows);
  block.lines = std::move(lines);
  return block;
}

Status AppendBlock(ShardCheckpoint* ckpt, const Block& block) {
  return ckpt->Append(block.meta,
                      [&](size_t i, uint32_t* row, std::string_view* csv) {
                        *row = block.rows[i];
                        *csv = block.lines[i];
                        return Status::OK();
                      });
}

// Streams `shard`'s payload back through a PayloadReader.
Result<Block> ReadBlock(const ShardCheckpoint& ckpt, size_t shard) {
  SECRETA_ASSIGN_OR_RETURN(ShardCheckpoint::PayloadReader reader,
                           ckpt.OpenPayload(shard));
  Block block;
  uint32_t row = 0;
  std::string_view csv;
  for (;;) {
    SECRETA_ASSIGN_OR_RETURN(const bool more, reader.Next(&row, &csv));
    if (!more) break;
    block.rows.push_back(row);
    block.lines.emplace_back(csv);
  }
  return block;
}

TEST(ShardCheckpointTest, AppendReopenReadPayloadRoundTrip) {
  std::string path = TempPath("shard_ckpt_roundtrip.txt");
  std::remove(path.c_str());
  const Block record =
      MakeBlock(1, {4, 5, 6}, {"a,b", "c,d", "e,\"f,g\""}, 0.25, 1.5);
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<ShardCheckpoint> ckpt,
                         ShardCheckpoint::Open(path, 7, 8, 9));
    EXPECT_EQ(ckpt->loaded(), 0u);
    ASSERT_OK(AppendBlock(ckpt.get(), record));
    ShardMeta meta;
    EXPECT_TRUE(ckpt->FindMeta(1, &meta));
    EXPECT_FALSE(ckpt->FindMeta(0, &meta));
  }
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<ShardCheckpoint> ckpt,
                       ShardCheckpoint::Open(path, 7, 8, 9));
  EXPECT_EQ(ckpt->loaded(), 1u);
  ShardMeta meta;
  ASSERT_TRUE(ckpt->FindMeta(1, &meta));
  EXPECT_EQ(meta.num_rows, 3u);
  EXPECT_DOUBLE_EQ(meta.gcp, 0.25);
  EXPECT_DOUBLE_EQ(meta.seconds, 1.5);
  ASSERT_OK_AND_ASSIGN(Block loaded, ReadBlock(*ckpt, 1));
  EXPECT_EQ(loaded.rows, record.rows);
  EXPECT_EQ(loaded.lines, record.lines);
  EXPECT_FALSE(ckpt->OpenPayload(0).ok());
}

TEST(ShardCheckpointTest, RejectsForeignRunDatasetOrPlan) {
  std::string path = TempPath("shard_ckpt_foreign.txt");
  std::remove(path.c_str());
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<ShardCheckpoint> ckpt,
                         ShardCheckpoint::Open(path, 1, 2, 3));
    ASSERT_OK(AppendBlock(ckpt.get(), MakeBlock(0, {0}, {"a,b"})));
  }
  const std::string bytes = ReadFileBytes(path);
  EXPECT_FALSE(ShardCheckpoint::Open(path, 9, 2, 3).ok());  // other run
  EXPECT_FALSE(ShardCheckpoint::Open(path, 1, 9, 3).ok());  // other dataset
  EXPECT_FALSE(ShardCheckpoint::Open(path, 1, 2, 9).ok());  // other partition
  // A refused Open neither writes to nor cuts the file.
  EXPECT_EQ(ReadFileBytes(path), bytes);
  EXPECT_TRUE(ShardCheckpoint::Open(path, 1, 2, 3).ok());
}

// The v1 shard-checkpoint bytes (docs/FORMATS.md). Files written before a
// change to the writer must still resume after it, so this literal only
// changes together with the header version.
TEST(ShardCheckpointTest, WritesAndReadsGoldenV1Bytes) {
  const std::string golden =
      "secreta-shard-checkpoint\tv1\t0000000000000007\t0000000000000008\t"
      "0000000000000009\n"
      "shard 2 2 0x1.5555555555555p-2 0x1p-1\n"
      "4\t30-39,\"a,b\"\n"
      "9\t40-49,c\n"
      "done 2 78654d858f8b095b\n";
  std::string path = TempPath("shard_ckpt_golden.txt");
  std::remove(path.c_str());
  const Block record =
      MakeBlock(2, {4, 9}, {"30-39,\"a,b\"", "40-49,c"}, 1.0 / 3.0, 0.5);
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<ShardCheckpoint> ckpt,
                         ShardCheckpoint::Open(path, 7, 8, 9));
    ASSERT_OK(AppendBlock(ckpt.get(), record));
  }
  EXPECT_EQ(ReadFileBytes(path), golden);

  WriteFileBytes(path, golden);
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<ShardCheckpoint> ckpt,
                       ShardCheckpoint::Open(path, 7, 8, 9));
  EXPECT_EQ(ckpt->loaded(), 1u);
  ShardMeta meta;
  ASSERT_TRUE(ckpt->FindMeta(2, &meta));
  EXPECT_EQ(meta.num_rows, 2u);
  EXPECT_EQ(meta.gcp, 1.0 / 3.0);
  EXPECT_EQ(meta.seconds, 0.5);
  ASSERT_OK_AND_ASSIGN(Block loaded, ReadBlock(*ckpt, 2));
  EXPECT_EQ(loaded.rows, record.rows);
  EXPECT_EQ(loaded.lines, record.lines);
}

TEST(ShardCheckpointTest, DropsBlocksWithoutValidDoneLine) {
  std::string path = TempPath("shard_ckpt_truncated.txt");
  std::remove(path.c_str());
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<ShardCheckpoint> ckpt,
                         ShardCheckpoint::Open(path, 5, 6, 7));
    for (size_t s = 0; s < 2; ++s) {
      ASSERT_OK(AppendBlock(
          ckpt.get(), MakeBlock(s,
                                {static_cast<uint32_t>(2 * s),
                                 static_cast<uint32_t>(2 * s + 1)},
                                {"x,y", "z,w"})));
    }
  }
  const std::string bytes = ReadFileBytes(path);
  size_t first_done = bytes.find("\ndone 0 ");
  ASSERT_NE(first_done, std::string::npos);
  size_t cut = bytes.find('\n', first_done + 1);  // end of "done 0" line
  ASSERT_NE(cut, std::string::npos);
  const std::string first = bytes.substr(0, cut + 1);
  // Kill mid-append: cut the file inside the second block, or just before
  // the newline of its "done" line. Both blocks are torn and cut off.
  for (size_t size : {cut + 1 + 10, bytes.size() - 1}) {
    WriteFileBytes(path, bytes.substr(0, size));
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<ShardCheckpoint> ckpt,
                         ShardCheckpoint::Open(path, 5, 6, 7));
    EXPECT_EQ(ckpt->loaded(), 1u);
    ShardMeta meta;
    EXPECT_TRUE(ckpt->FindMeta(0, &meta));
    EXPECT_FALSE(ckpt->FindMeta(1, &meta));
    ASSERT_OK_AND_ASSIGN(Block record, ReadBlock(*ckpt, 0));
    EXPECT_EQ(record.lines.size(), 2u);
    EXPECT_EQ(ReadFileBytes(path), first);
  }
}

TEST(ShardCheckpointTest, AppendAfterTornBlockSurvivesReopen) {
  std::string path = TempPath("shard_ckpt_torn_append.txt");
  std::remove(path.c_str());
  auto record_for = [](size_t shard) {
    return MakeBlock(shard,
                     {static_cast<uint32_t>(2 * shard),
                      static_cast<uint32_t>(2 * shard + 1)},
                     {"x,y", "z,\"w,v\""});
  };
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<ShardCheckpoint> ckpt,
                         ShardCheckpoint::Open(path, 5, 6, 7));
    ASSERT_OK(AppendBlock(ckpt.get(), record_for(0)));
  }
  // Killed mid-append: a head line and half its payload.
  WriteFileBytes(path,
                 ReadFileBytes(path) + "shard 1 2 0x0p+0 0x0p+0\n2\tx,y\n");
  {
    // The resume after the first crash.
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<ShardCheckpoint> ckpt,
                         ShardCheckpoint::Open(path, 5, 6, 7));
    EXPECT_EQ(ckpt->loaded(), 1u);
    ASSERT_OK(AppendBlock(ckpt.get(), record_for(1)));
    ASSERT_OK(AppendBlock(ckpt.get(), record_for(2)));
  }
  // The resume after a second crash still reads everything written.
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<ShardCheckpoint> ckpt,
                       ShardCheckpoint::Open(path, 5, 6, 7));
  EXPECT_EQ(ckpt->loaded(), 3u);
  for (size_t shard = 0; shard < 3; ++shard) {
    ShardMeta meta;
    EXPECT_TRUE(ckpt->FindMeta(shard, &meta)) << shard;
    ASSERT_OK_AND_ASSIGN(Block record, ReadBlock(*ckpt, shard));
    EXPECT_EQ(record.rows, record_for(shard).rows);
    EXPECT_EQ(record.lines, record_for(shard).lines);
  }
}

// Append writes a block as its lines arrive, so a line it refuses part-way
// leaves a torn block: later appends are refused, and reopening cuts it.
TEST(ShardCheckpointTest, FailedAppendLeavesATornBlock) {
  std::string path = TempPath("shard_ckpt_failed_append.txt");
  std::remove(path.c_str());
  std::string first;
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<ShardCheckpoint> ckpt,
                         ShardCheckpoint::Open(path, 5, 6, 7));
    ASSERT_OK(AppendBlock(ckpt.get(), MakeBlock(0, {0, 1}, {"x,y", "z,w"})));
    first = ReadFileBytes(path);
    const Status refused =
        AppendBlock(ckpt.get(), MakeBlock(1, {2, 3}, {"x,y", "z\nw"}));
    EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(AppendBlock(ckpt.get(), MakeBlock(2, {4}, {"x,y"})).code(),
              StatusCode::kFailedPrecondition);
  }
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<ShardCheckpoint> ckpt,
                       ShardCheckpoint::Open(path, 5, 6, 7));
  EXPECT_EQ(ckpt->loaded(), 1u);
  EXPECT_EQ(ReadFileBytes(path), first);
}

TEST(ShardCheckpointTest, LineLongerThanTheBufferRoundTrips) {
  std::string path = TempPath("shard_ckpt_long_line.txt");
  std::remove(path.c_str());
  // A line twice the buffer between two short ones, so the reader meets it
  // part-way through a buffer and carries it across refills.
  std::string long_line(2 * ShardCheckpoint::kBufferBytes + 3, 'a');
  long_line[0] = '"';
  long_line[ShardCheckpoint::kBufferBytes] = ',';
  long_line.back() = '"';
  const Block record = MakeBlock(0, {1, 2, 3}, {"x,y", long_line, "z,w"});
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<ShardCheckpoint> ckpt,
                         ShardCheckpoint::Open(path, 1, 2, 3));
    ASSERT_OK(AppendBlock(ckpt.get(), record));
  }
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<ShardCheckpoint> ckpt,
                       ShardCheckpoint::Open(path, 1, 2, 3));
  EXPECT_EQ(ckpt->loaded(), 1u);
  ASSERT_OK_AND_ASSIGN(Block loaded, ReadBlock(*ckpt, 0));
  EXPECT_EQ(loaded.rows, record.rows);
  EXPECT_EQ(loaded.lines, record.lines);
}

// Open takes a row id as plain decimal digits that fit 32 bits, followed by
// a tab: anything else makes the block torn, and it is cut off.
TEST(ShardCheckpointTest, MalformedRowIdMakesATornBlock) {
  const std::string header =
      "secreta-shard-checkpoint\tv1\t0000000000000007\t0000000000000008\t"
      "0000000000000009\n";
  const std::string good = "\n4\t30-39,c\n";
  std::string path = TempPath("shard_ckpt_bad_row.txt");
  for (const char* bad : {"\n+4\t30-39,c\n", "\n-4\t30-39,c\n",
                          "\n 4\t30-39,c\n", "\n4294967296\t30-39,c\n",
                          "\n4 30-39,c\n"}) {
    SCOPED_TRACE(bad);
    std::remove(path.c_str());
    {
      ASSERT_OK_AND_ASSIGN(std::unique_ptr<ShardCheckpoint> ckpt,
                           ShardCheckpoint::Open(path, 7, 8, 9));
      ASSERT_OK(AppendBlock(ckpt.get(), MakeBlock(2, {4}, {"30-39,c"})));
    }
    std::string bytes = ReadFileBytes(path);
    const size_t at = bytes.find(good);
    ASSERT_NE(at, std::string::npos);
    bytes.replace(at, good.size(), bad);
    WriteFileBytes(path, bytes);
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<ShardCheckpoint> ckpt,
                         ShardCheckpoint::Open(path, 7, 8, 9));
    EXPECT_EQ(ckpt->loaded(), 0u);
    EXPECT_EQ(ReadFileBytes(path), header);
  }
}

TEST(ShardCheckpointTest, ReaderRefusesAPayloadChangedAfterOpen) {
  std::string path = TempPath("shard_ckpt_changed.txt");
  std::remove(path.c_str());
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<ShardCheckpoint> ckpt,
                         ShardCheckpoint::Open(path, 1, 2, 3));
    ASSERT_OK(AppendBlock(ckpt.get(), MakeBlock(0, {0, 1}, {"a,b", "c,d"})));
  }
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<ShardCheckpoint> ckpt,
                       ShardCheckpoint::Open(path, 1, 2, 3));
  std::string bytes = ReadFileBytes(path);
  bytes[bytes.find("c,d")] = 'e';
  WriteFileBytes(path, bytes);
  Result<Block> changed = ReadBlock(*ckpt, 0);
  ASSERT_FALSE(changed.ok());
  EXPECT_NE(changed.status().message().find(
                "shard 0 payload changed since load"),
            std::string::npos)
      << changed.status().message();
}

// Lowers this process's soft limit on open descriptors to `headroom` above
// the lowest free one for the guard's lifetime, so a test can show that a
// path opens few descriptors however many shards it reads.
class DescriptorLimit {
 public:
  explicit DescriptorLimit(int headroom) {
    EXPECT_EQ(::getrlimit(RLIMIT_NOFILE, &saved_), 0);
    const int lowest_free = ::open("/dev/null", O_RDONLY);
    EXPECT_GE(lowest_free, 0);
    ::close(lowest_free);
    rlimit lowered = saved_;
    lowered.rlim_cur = static_cast<rlim_t>(lowest_free + headroom);
    EXPECT_EQ(::setrlimit(RLIMIT_NOFILE, &lowered), 0);
  }
  ~DescriptorLimit() { ::setrlimit(RLIMIT_NOFILE, &saved_); }
  DescriptorLimit(const DescriptorLimit&) = delete;
  DescriptorLimit& operator=(const DescriptorLimit&) = delete;

 private:
  rlimit saved_{};
};

// Readers opened together, as a hash-plan merge opens one per shard, share
// one descriptor and a fixed buffer budget. Read round-robin, each reader
// refills from its own offset; lines longer than a reader's share of the
// buffer are put together across refills.
TEST(ShardCheckpointTest, ReadersOpenedTogetherShareOneDescriptor) {
  constexpr size_t kShards = 300;
  constexpr size_t kRows = 3;
  std::string path = TempPath("shard_ckpt_many_readers.txt");
  std::remove(path.c_str());
  std::vector<Block> blocks;
  for (size_t s = 0; s < kShards; ++s) {
    std::vector<uint32_t> rows;
    std::vector<std::string> lines;
    for (size_t i = 0; i < kRows; ++i) {
      rows.push_back(static_cast<uint32_t>(i * kShards + s));
      // Up to ~5 KB: past the ~3.4 KB each of 300 readers gets.
      const size_t size = (s * 7 + i * 1601) % 5000 + 1;
      lines.push_back(StrFormat("%zu-%zu,", s, i) +
                      std::string(size, static_cast<char>('a' + (s + i) % 26)));
    }
    blocks.push_back(MakeBlock(s, std::move(rows), std::move(lines)));
  }
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<ShardCheckpoint> ckpt,
                         ShardCheckpoint::Open(path, 1, 2, 3));
    for (const Block& block : blocks) ASSERT_OK(AppendBlock(ckpt.get(), block));
  }
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<ShardCheckpoint> ckpt,
                       ShardCheckpoint::Open(path, 1, 2, 3));
  ASSERT_EQ(ckpt->loaded(), kShards);
  std::vector<size_t> shards(kShards);
  for (size_t s = 0; s < kShards; ++s) shards[s] = s;
  DescriptorLimit limit(8);
  ASSERT_OK_AND_ASSIGN(std::vector<ShardCheckpoint::PayloadReader> readers,
                       ckpt->OpenPayloads(shards));
  ASSERT_EQ(readers.size(), kShards);
  uint32_t row = 0;
  std::string_view csv;
  for (size_t i = 0; i < kRows; ++i) {
    for (size_t s = 0; s < kShards; ++s) {
      ASSERT_OK_AND_ASSIGN(const bool more, readers[s].Next(&row, &csv));
      ASSERT_TRUE(more);
      EXPECT_EQ(row, blocks[s].rows[i]);
      EXPECT_EQ(csv, blocks[s].lines[i]) << "shard " << s << " line " << i;
    }
  }
  for (size_t s = 0; s < kShards; ++s) {
    ASSERT_OK_AND_ASSIGN(const bool more, readers[s].Next(&row, &csv));
    EXPECT_FALSE(more);
  }
  EXPECT_FALSE(ckpt->OpenPayloads({0, kShards}).ok());  // NotFound
}

// ---------------------------------------------------------------------------
// Sharded anonymization runner

AlgorithmConfig RtConfig() {
  AlgorithmConfig config;
  config.mode = AnonMode::kRt;
  config.relational_algorithm = "Cluster";
  config.transaction_algorithm = "COAT";
  config.merger = MergerKind::kRTmerger;
  config.params.k = 4;
  config.params.m = 2;
  return config;
}

// The unsharded reference: same hierarchies the runner derives (global
// dictionaries → identical trees), one engine run over the whole dataset.
uint64_t UnshardedReleaseFingerprint(const Dataset& dataset,
                                     const AlgorithmConfig& config) {
  auto hierarchies = BuildAllColumnHierarchies(dataset);
  EXPECT_TRUE(hierarchies.ok()) << hierarchies.status().ToString();
  auto item_hierarchy = BuildItemHierarchy(dataset);
  EXPECT_TRUE(item_hierarchy.ok()) << item_hierarchy.status().ToString();
  auto relational = RelationalContext::Create(dataset, hierarchies.value());
  EXPECT_TRUE(relational.ok()) << relational.status().ToString();
  auto transaction =
      TransactionContext::Create(dataset, &item_hierarchy.value());
  EXPECT_TRUE(transaction.ok()) << transaction.status().ToString();
  EngineInputs inputs;
  inputs.dataset = &dataset;
  inputs.relational = &relational.value();
  inputs.transaction = &transaction.value();
  auto run = RunAnonymization(inputs, config);
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  auto anonymized = MaterializeRun(inputs, run.value());
  EXPECT_TRUE(anonymized.ok()) << anonymized.status().ToString();
  return Fnv1a64(CanonicalCsv(anonymized.value()));
}

TEST(ShardedRunnerTest, OneShardReproducesUnshardedRunByteForByte) {
  Dataset dataset = SmallRtDataset(200, 19);
  AlgorithmConfig config = RtConfig();
  uint64_t reference = UnshardedReleaseFingerprint(dataset, config);

  std::unique_ptr<ColumnProvider> provider = MakeMemoryProvider(dataset);
  ShardedRunOptions options;
  options.num_shards = 1;
  ASSERT_OK_AND_ASSIGN(ShardedRunResult result,
                       RunShardedAnonymization(*provider, config, options));
  EXPECT_EQ(result.release_fingerprint, reference);
  ASSERT_TRUE(result.audit.has_value());
  EXPECT_TRUE(result.audit->k_anonymous);
  EXPECT_TRUE(result.audit->km_anonymous);
}

TEST(ShardedRunnerTest, BackendsProduceByteIdenticalReleases) {
  Dataset dataset = SmallRtDataset(240, 37);
  AlgorithmConfig config = RtConfig();
  std::string bin_path = TempPath("sharded_backend.sbc");
  BinaryWriteOptions write_options;
  write_options.num_shards = 3;
  ASSERT_OK(WriteBinaryDataset(dataset, bin_path, write_options));

  std::unique_ptr<ColumnProvider> memory = MakeMemoryProvider(dataset);
  ShardedRunOptions options;
  options.num_shards = 3;
  ASSERT_OK_AND_ASSIGN(ShardedRunResult from_memory,
                       RunShardedAnonymization(*memory, config, options));

  ASSERT_OK_AND_ASSIGN(std::unique_ptr<ColumnProvider> binary,
                       OpenBinaryProvider(bin_path));
  ShardedRunOptions native;  // num_shards = 0 adopts the file's plan
  std::string release_path = TempPath("sharded_backend_release.csv");
  native.output_path = release_path;
  ASSERT_OK_AND_ASSIGN(ShardedRunResult from_binary,
                       RunShardedAnonymization(*binary, config, native));

  EXPECT_EQ(from_binary.plan.num_shards(), 3u);
  EXPECT_EQ(from_memory.release_fingerprint, from_binary.release_fingerprint);
  // The written release file is exactly the fingerprinted byte stream.
  EXPECT_EQ(Fnv1a64(ReadFileBytes(release_path)),
            from_binary.release_fingerprint);
  // Independent per-shard anonymization still composes into the guarantee.
  ASSERT_TRUE(from_binary.audit.has_value());
  EXPECT_TRUE(from_binary.audit->k_anonymous);
  EXPECT_TRUE(from_binary.audit->km_anonymous);
}

TEST(ShardedRunnerTest, CheckpointResumeIsByteIdentical) {
  Dataset dataset = SmallRtDataset(180, 43);
  AlgorithmConfig config = RtConfig();
  std::unique_ptr<ColumnProvider> provider = MakeMemoryProvider(dataset);
  std::string ckpt_path = TempPath("sharded_resume_ckpt.txt");
  std::remove(ckpt_path.c_str());

  ShardedRunOptions options;
  options.num_shards = 3;
  options.checkpoint_path = ckpt_path;
  ASSERT_OK_AND_ASSIGN(ShardedRunResult first,
                       RunShardedAnonymization(*provider, config, options));
  EXPECT_EQ(first.resumed_shards, 0u);

  // Simulate a crash after shard 0: drop everything past its "done" line.
  std::string bytes = ReadFileBytes(ckpt_path);
  size_t done = bytes.find("\ndone 0 ");
  ASSERT_NE(done, std::string::npos);
  size_t cut = bytes.find('\n', done + 1);
  WriteFileBytes(ckpt_path, bytes.substr(0, cut + 1));

  ASSERT_OK_AND_ASSIGN(ShardedRunResult second,
                       RunShardedAnonymization(*provider, config, options));
  EXPECT_EQ(second.resumed_shards, 1u);
  EXPECT_EQ(second.release_fingerprint, first.release_fingerprint);

  // Third run resumes everything — and never re-runs the engine.
  ASSERT_OK_AND_ASSIGN(ShardedRunResult third,
                       RunShardedAnonymization(*provider, config, options));
  EXPECT_EQ(third.resumed_shards, 3u);
  EXPECT_EQ(third.release_fingerprint, first.release_fingerprint);
}

// Cuts a shard checkpoint after its first block, as a crash after shard 0.
void CutAfterFirstBlock(const std::string& ckpt_path) {
  std::string bytes = ReadFileBytes(ckpt_path);
  size_t done = bytes.find("\ndone ");
  ASSERT_NE(done, std::string::npos);
  size_t cut = bytes.find('\n', done + 1);
  WriteFileBytes(ckpt_path, bytes.substr(0, cut + 1));
}

// The FNV-1a literal was produced by the in-memory gather-and-sort merge
// that the k-way merge replaced; every path must keep its bytes.
TEST(ShardedRunnerTest, HashPlanRestoresGlobalRowOrder) {
  constexpr uint64_t kPinned = 0xd824610ea734b6d3ULL;
  Dataset dataset = SmallRtDataset(150, 53);
  AlgorithmConfig config = RtConfig();
  std::unique_ptr<ColumnProvider> provider = MakeMemoryProvider(dataset);
  ShardedRunOptions options;
  options.num_shards = 3;
  options.shard_kind = ShardKind::kHash;
  options.salt = 7;
  ASSERT_OK_AND_ASSIGN(ShardedRunResult first,
                       RunShardedAnonymization(*provider, config, options));
  EXPECT_EQ(first.release_fingerprint, kPinned)
      << "0x" << std::hex << first.release_fingerprint;
  ASSERT_TRUE(first.merged.has_value());
  EXPECT_EQ(first.merged->num_records(), dataset.num_records());
  ASSERT_TRUE(first.audit.has_value());
  EXPECT_TRUE(first.audit->k_anonymous);
  EXPECT_TRUE(first.audit->km_anonymous);

  // Through a checkpoint: fresh, resumed after block 0, fully resumed.
  std::string ckpt_path = TempPath("sharded_hash_ckpt.txt");
  std::remove(ckpt_path.c_str());
  options.checkpoint_path = ckpt_path;
  ASSERT_OK_AND_ASSIGN(ShardedRunResult fresh,
                       RunShardedAnonymization(*provider, config, options));
  EXPECT_EQ(fresh.resumed_shards, 0u);
  EXPECT_EQ(fresh.release_fingerprint, kPinned);
  CutAfterFirstBlock(ckpt_path);
  ASSERT_OK_AND_ASSIGN(ShardedRunResult partial,
                       RunShardedAnonymization(*provider, config, options));
  EXPECT_EQ(partial.resumed_shards, 1u);
  EXPECT_EQ(partial.release_fingerprint, kPinned);
  ASSERT_OK_AND_ASSIGN(ShardedRunResult full,
                       RunShardedAnonymization(*provider, config, options));
  EXPECT_EQ(full.resumed_shards, 3u);
  EXPECT_EQ(full.release_fingerprint, kPinned);
}

TEST(ShardedRunnerTest, SingleModeRunsWork) {
  Dataset dataset = SmallRtDataset(160, 59);
  std::unique_ptr<ColumnProvider> provider = MakeMemoryProvider(dataset);

  AlgorithmConfig relational;
  relational.mode = AnonMode::kRelational;
  relational.relational_algorithm = "Cluster";
  relational.params.k = 4;
  ShardedRunOptions options;
  options.num_shards = 2;
  ASSERT_OK_AND_ASSIGN(ShardedRunResult rel_result,
                       RunShardedAnonymization(*provider, relational, options));
  ASSERT_TRUE(rel_result.audit.has_value());
  EXPECT_TRUE(rel_result.audit->k_anonymous);
  EXPECT_GE(rel_result.audit->min_class_size, 4u);
  EXPECT_GT(rel_result.weighted_gcp, 0.0);
  // A relational run promises only k: its pass-through transactions are not
  // judged for k^m, even with m set.
  relational.params.m = 2;
  ASSERT_OK_AND_ASSIGN(rel_result,
                       RunShardedAnonymization(*provider, relational, options));
  ASSERT_TRUE(rel_result.audit.has_value());
  EXPECT_TRUE(rel_result.audit->k_anonymous);
  EXPECT_TRUE(rel_result.audit->km_anonymous);
  EXPECT_TRUE(rel_result.audit->k_checked);
  EXPECT_FALSE(rel_result.audit->km_checked);
  EXPECT_EQ(rel_result.audit->worst_itemset_support, 0u);
  EXPECT_EQ(rel_result.audit->details, "ok");

  AlgorithmConfig transaction;
  transaction.mode = AnonMode::kTransaction;
  transaction.transaction_algorithm = "COAT";
  transaction.params.k = 4;
  transaction.params.m = 2;
  ASSERT_OK_AND_ASSIGN(
      ShardedRunResult txn_result,
      RunShardedAnonymization(*provider, transaction, options));
  ASSERT_TRUE(txn_result.audit.has_value());
  EXPECT_TRUE(txn_result.audit->km_anonymous);
  // A transaction run promises only k^m: its pass-through relational labels
  // are not grouped into classes.
  EXPECT_TRUE(txn_result.audit->k_anonymous);
  EXPECT_FALSE(txn_result.audit->k_checked);
  EXPECT_TRUE(txn_result.audit->km_checked);
  EXPECT_EQ(txn_result.audit->min_class_size, 0u);
  EXPECT_EQ(txn_result.audit->details, "ok");
}

TEST(ShardedRunnerTest, NoMaterializeSkipsMergedDataset) {
  Dataset dataset = SmallRtDataset(120, 61);
  std::unique_ptr<ColumnProvider> provider = MakeMemoryProvider(dataset);
  ShardedRunOptions options;
  options.num_shards = 2;
  options.materialize_result = false;
  options.audit = false;
  ASSERT_OK_AND_ASSIGN(ShardedRunResult result,
                       RunShardedAnonymization(*provider, RtConfig(), options));
  EXPECT_FALSE(result.merged.has_value());
  EXPECT_FALSE(result.audit.has_value());
  EXPECT_NE(result.release_fingerprint, 0u);
  // Audit without a materialized release is a caller error.
  options.audit = true;
  EXPECT_FALSE(
      RunShardedAnonymization(*provider, RtConfig(), options).ok());
}

TEST(ShardedRunnerTest, ShardBelowKIsRefusedBeforeAnyShardRuns) {
  Dataset dataset = SmallRtDataset(20, 67);
  std::unique_ptr<ColumnProvider> provider = MakeMemoryProvider(dataset);
  std::string ckpt_path = TempPath("sharded_below_k_ckpt.txt");
  ShardedRunOptions options;
  options.num_shards = 8;  // 2-3 rows per shard
  options.checkpoint_path = ckpt_path;

  AlgorithmConfig relational;
  relational.mode = AnonMode::kRelational;
  relational.params.k = 5;
  AlgorithmConfig rt = RtConfig();
  rt.params.k = 5;
  for (const char* algorithm : {"Incognito", "Cluster", "TopDown", "BottomUp"}) {
    for (AlgorithmConfig config : {relational, rt}) {
      config.relational_algorithm = algorithm;
      SCOPED_TRACE(config.Label());
      std::remove(ckpt_path.c_str());
      auto result = RunShardedAnonymization(*provider, config, options);
      ASSERT_FALSE(result.ok());
      EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
      const std::string& message = result.status().message();
      EXPECT_NE(message.find("shard 0 of 8 has 2 rows, fewer than k=5"),
                std::string::npos)
          << message;
      EXPECT_NE(message.find("use fewer shards"), std::string::npos)
          << message;
      // Refused before the checkpoint was opened: no shard block written.
      std::FILE* file = std::fopen(ckpt_path.c_str(), "rb");
      EXPECT_EQ(file, nullptr);
      if (file != nullptr) std::fclose(file);
    }
  }

  // Transaction-only runs keep running on small shards.
  AlgorithmConfig transaction;
  transaction.mode = AnonMode::kTransaction;
  transaction.transaction_algorithm = "COAT";
  transaction.params.k = 5;
  transaction.params.m = 2;
  std::remove(ckpt_path.c_str());
  ASSERT_OK_AND_ASSIGN(
      ShardedRunResult txn_result,
      RunShardedAnonymization(*provider, transaction, options));
  EXPECT_EQ(txn_result.shards.size(), 8u);
}

TEST(ShardedRunnerTest, ShardEngineErrorNamesTheShard) {
  Dataset dataset = SmallRtDataset(60, 71);
  std::unique_ptr<ColumnProvider> provider = MakeMemoryProvider(dataset);
  AlgorithmConfig config;
  config.mode = AnonMode::kRelational;
  config.relational_algorithm = "NoSuchAlgorithm";
  config.params.k = 2;
  ShardedRunOptions options;
  options.num_shards = 3;
  auto result = RunShardedAnonymization(*provider, config, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().message().rfind("shard 0: ", 0), 0u)
      << result.status().message();
}

// FNV-1a of 3-shard releases, pinned when releases were still written
// through CsvRow + WriteCsvLine: the id-based anonymized dataset and
// Dataset::AppendCsvLine must not move a byte.
TEST(ShardedRunnerTest, ReleaseBytesArePinned) {
  Dataset dataset = SmallRtDataset(240, 89);
  std::unique_ptr<ColumnProvider> provider = MakeMemoryProvider(dataset);
  ShardedRunOptions options;
  options.num_shards = 3;

  AlgorithmConfig incognito;
  incognito.mode = AnonMode::kRelational;
  incognito.relational_algorithm = "Incognito";
  incognito.params.k = 4;
  AlgorithmConfig coat;
  coat.mode = AnonMode::kTransaction;
  coat.transaction_algorithm = "COAT";
  coat.params.k = 4;
  coat.params.m = 2;
  AlgorithmConfig rt;
  rt.mode = AnonMode::kRt;
  rt.relational_algorithm = "Cluster";
  rt.transaction_algorithm = "Apriori";
  rt.merger = MergerKind::kRTmerger;
  rt.params.k = 4;
  rt.params.m = 2;

  struct Pinned {
    AlgorithmConfig config;
    uint64_t fingerprint;
  };
  for (const Pinned& pinned : {Pinned{incognito, 0xa85e12e0849aeaceULL},
                               Pinned{coat, 0x4693167ade55be7dULL},
                               Pinned{rt, 0x187b54c48775053dULL}}) {
    ASSERT_OK_AND_ASSIGN(
        ShardedRunResult result,
        RunShardedAnonymization(*provider, pinned.config, options));
    EXPECT_EQ(result.release_fingerprint, pinned.fingerprint)
        << pinned.config.Label() << ": 0x" << std::hex
        << result.release_fingerprint;
  }
}

TEST(ShardedRunnerTest, TracedRunRecordsShardSpans) {
  Dataset dataset = SmallRtDataset(150, 97);
  std::unique_ptr<ColumnProvider> provider = MakeMemoryProvider(dataset);
  std::string ckpt_path = TempPath("sharded_spans_ckpt.txt");
  std::remove(ckpt_path.c_str());
  ShardedRunOptions options;
  options.num_shards = 3;
  options.checkpoint_path = ckpt_path;
  auto count_spans = [](const std::vector<ResolvedTraceEvent>& events) {
    std::map<std::string, size_t> counts;
    for (const ResolvedTraceEvent& event : events) {
      if (event.name.rfind("shard.", 0) == 0) ++counts[event.name];
    }
    return counts;
  };

  Tracer& tracer = Tracer::Get();
  tracer.Reset();
  tracer.Enable();
  auto first = RunShardedAnonymization(*provider, RtConfig(), options);
  tracer.Disable();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  // A range plan writes each computed shard's lines to the checkpoint and
  // the release in the loop: no merge pass.
  EXPECT_EQ(count_spans(tracer.CollectEvents()),
            (std::map<std::string, size_t>{{"shard.anonymize", 3},
                                           {"shard.load", 3},
                                           {"shard.materialize", 3},
                                           {"shard.write", 3}}));

  // The resume streams every shard from the checkpoint into the release.
  tracer.Reset();
  tracer.Enable();
  auto resumed = RunShardedAnonymization(*provider, RtConfig(), options);
  tracer.Disable();
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed->resumed_shards, 3u);
  EXPECT_EQ(count_spans(tracer.CollectEvents()),
            (std::map<std::string, size_t>{{"shard.replay", 3}}));

  // A hash plan merges after the loop.
  std::remove(ckpt_path.c_str());
  options.shard_kind = ShardKind::kHash;
  tracer.Reset();
  tracer.Enable();
  auto hashed = RunShardedAnonymization(*provider, RtConfig(), options);
  tracer.Disable();
  ASSERT_TRUE(hashed.ok()) << hashed.status().ToString();
  EXPECT_EQ(count_spans(tracer.CollectEvents()),
            (std::map<std::string, size_t>{{"shard.anonymize", 3},
                                           {"shard.load", 3},
                                           {"shard.materialize", 3},
                                           {"shard.merge", 1},
                                           {"shard.write", 3}}));
  tracer.Reset();
}

// Serves `inner`'s shards, calling `on_shard` before each one is decoded.
class HookedProvider : public ColumnProvider {
 public:
  HookedProvider(const ColumnProvider& inner,
                 std::function<void(size_t)> on_shard)
      : inner_(inner), on_shard_(std::move(on_shard)) {}

  DataSource source() const override { return inner_.source(); }
  const Schema& schema() const override { return inner_.schema(); }
  size_t num_records() const override { return inner_.num_records(); }
  const std::vector<Dictionary>& dictionaries() const override {
    return inner_.dictionaries();
  }
  const Dictionary& item_dictionary() const override {
    return inner_.item_dictionary();
  }
  const std::vector<uint64_t>& item_supports() const override {
    return inner_.item_supports();
  }
  uint64_t content_fingerprint() const override {
    return inner_.content_fingerprint();
  }
  Result<Dataset> Materialize() const override { return inner_.Materialize(); }
  Result<Dataset> MaterializeShard(const ShardPlan& plan,
                                   size_t shard) const override {
    on_shard_(shard);
    return inner_.MaterializeShard(plan, shard);
  }

 private:
  const ColumnProvider& inner_;
  std::function<void(size_t)> on_shard_;
};

bool FileExists(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file != nullptr) std::fclose(file);
  return file != nullptr;
}

TEST(ShardedRunnerTest, FailedRunLeavesNoRelease) {
  Dataset dataset = SmallRtDataset(180, 101);
  std::unique_ptr<ColumnProvider> memory = MakeMemoryProvider(dataset);
  std::string ckpt_path = TempPath("sharded_failed_ckpt.txt");
  std::string release_path = TempPath("sharded_failed_release.csv");
  std::remove(ckpt_path.c_str());
  std::remove(release_path.c_str());
  ShardedRunOptions options;
  options.num_shards = 3;
  options.checkpoint_path = ckpt_path;
  options.output_path = release_path;

  CancellationToken cancelled;
  cancelled.Cancel();
  options.cancel = &cancelled;
  auto result = RunShardedAnonymization(*memory, RtConfig(), options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  EXPECT_FALSE(FileExists(release_path));
  EXPECT_FALSE(FileExists(release_path + ".tmp"));
  options.cancel = nullptr;

  // A checkpoint holding shards 1 and 2 only; shard 1's payload changes on
  // disk after Open verified it, while shard 0 is being computed.
  ASSERT_OK(RunShardedAnonymization(*memory, RtConfig(), options).status());
  std::remove(release_path.c_str());
  const std::string bytes = ReadFileBytes(ckpt_path);
  const size_t block0 = bytes.find("shard 0 ");
  const size_t block1 = bytes.find("shard 1 ");
  ASSERT_NE(block0, std::string::npos);
  ASSERT_NE(block1, std::string::npos);
  WriteFileBytes(ckpt_path, bytes.substr(0, block0) + bytes.substr(block1));
  HookedProvider flipping(*memory, [&](size_t) {
    std::string now = ReadFileBytes(ckpt_path);
    const size_t line = now.find('	', now.find("shard 1 "));
    now[line + 1] = now[line + 1] == 'x' ? 'y' : 'x';
    WriteFileBytes(ckpt_path, now);
  });
  result = RunShardedAnonymization(flipping, RtConfig(), options);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find(
                "shard 1 payload changed since load"),
            std::string::npos)
      << result.status().message();
  EXPECT_FALSE(FileExists(release_path));
  EXPECT_FALSE(FileExists(release_path + ".tmp"));
}

TEST(ShardedRunnerTest, UnwritableOutputIsRefusedBeforeAnyShardRuns) {
  Dataset dataset = SmallRtDataset(120, 103);
  std::unique_ptr<ColumnProvider> memory = MakeMemoryProvider(dataset);
  size_t decoded = 0;
  HookedProvider counting(*memory, [&](size_t) { ++decoded; });
  std::string ckpt_path = TempPath("sharded_unwritable_ckpt.txt");
  std::remove(ckpt_path.c_str());
  ShardedRunOptions options;
  options.num_shards = 2;
  options.checkpoint_path = ckpt_path;
  options.output_path = TempPath("no_such_dir/release.csv");
  auto result = RunShardedAnonymization(counting, RtConfig(), options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
  EXPECT_EQ(decoded, 0u);
  EXPECT_FALSE(FileExists(ckpt_path));
}

TEST(ShardedRunnerTest, ReplayRefusesRowIdsTheBlockDoesNotShareWithThePlan) {
  Dataset dataset = SmallRtDataset(120, 107);
  std::unique_ptr<ColumnProvider> provider = MakeMemoryProvider(dataset);
  AlgorithmConfig config = RtConfig();
  std::string ckpt_path = TempPath("sharded_rows_ckpt.txt");
  for (ShardKind kind : {ShardKind::kRange, ShardKind::kHash}) {
    SCOPED_TRACE(ShardKindName(kind));
    const ShardPlan plan = ShardPlan::Make(kind, dataset.num_records(), 2);
    // Shard 1's block has the plan's row count, but its first two row ids
    // swapped: the right rows in the wrong order.
    std::remove(ckpt_path.c_str());
    {
      ASSERT_OK_AND_ASSIGN(
          std::unique_ptr<ShardCheckpoint> ckpt,
          ShardCheckpoint::Open(
              ckpt_path,
              CheckpointLog::PointKey(config, provider->content_fingerprint(),
                                      0, 0),
              provider->content_fingerprint(), plan.Fingerprint()));
      for (size_t s = 0; s < 2; ++s) {
        std::vector<uint32_t> rows = plan.Rows(s);
        if (s == 1) std::swap(rows[0], rows[1]);
        ASSERT_OK(AppendBlock(
            ckpt.get(),
            MakeBlock(s, rows, std::vector<std::string>(rows.size(), "a"))));
      }
    }
    ShardedRunOptions options;
    options.num_shards = 2;
    options.shard_kind = kind;
    options.checkpoint_path = ckpt_path;
    options.materialize_result = false;
    options.audit = false;
    auto result = RunShardedAnonymization(*provider, config, options);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(result.status().message().find("shard 1 holds row"),
              std::string::npos)
        << result.status().message();
  }
}

AlgorithmConfig CoatConfig() {
  AlgorithmConfig config;
  config.mode = AnonMode::kTransaction;
  config.transaction_algorithm = "COAT";
  config.params.k = 2;
  config.params.m = 1;
  return config;
}

// The k-way merge of a hash plan with a checkpoint reads every shard side by
// side. Its readers share one descriptor, so a plan with more shards than
// the process may open descriptors still runs and resumes.
TEST(ShardedRunnerTest, HashMergeOverManyShardsNeedsOneDescriptor) {
  constexpr size_t kShards = 64;
  Dataset dataset = SmallRtDataset(256, 109);
  std::unique_ptr<ColumnProvider> provider = MakeMemoryProvider(dataset);
  const AlgorithmConfig config = CoatConfig();
  ShardedRunOptions options;
  options.num_shards = kShards;
  options.shard_kind = ShardKind::kHash;
  options.salt = 3;
  ASSERT_OK_AND_ASSIGN(ShardedRunResult in_memory,
                       RunShardedAnonymization(*provider, config, options));
  ASSERT_EQ(in_memory.plan.num_shards(), kShards);

  std::string ckpt_path = TempPath("sharded_many_shards_ckpt.txt");
  std::remove(ckpt_path.c_str());
  options.checkpoint_path = ckpt_path;
  DescriptorLimit limit(16);
  ASSERT_OK_AND_ASSIGN(ShardedRunResult fresh,
                       RunShardedAnonymization(*provider, config, options));
  EXPECT_EQ(fresh.resumed_shards, 0u);
  EXPECT_EQ(fresh.release_fingerprint, in_memory.release_fingerprint);
  ASSERT_OK_AND_ASSIGN(ShardedRunResult resumed,
                       RunShardedAnonymization(*provider, config, options));
  EXPECT_EQ(resumed.resumed_shards, kShards);
  EXPECT_EQ(resumed.release_fingerprint, in_memory.release_fingerprint);
}

// A quoted field may hold a newline. A hash plan without a checkpoint holds
// each computed shard's lines until the merge; a value with a newline must
// come out whole, on its own row.
TEST(ShardedRunnerTest, HashPlanWithoutCheckpointKeepsMultiLineValues) {
  Dataset source = SmallRtDataset(150, 113);
  csv::CsvTable table = source.ToCsv();
  const size_t column = *source.schema().FindAttribute("Occupation");
  for (size_t r = 1; r < table.size(); r += 4) {
    table[r][column] += "\nsecond line, \"quoted\"";
  }
  ASSERT_OK_AND_ASSIGN(Dataset dataset,
                       Dataset::FromCsv(table, source.schema()));
  std::unique_ptr<ColumnProvider> provider = MakeMemoryProvider(dataset);
  std::string release_path = TempPath("sharded_multiline_release.csv");
  ShardedRunOptions options;
  options.num_shards = 3;
  options.shard_kind = ShardKind::kHash;
  options.salt = 5;
  options.output_path = release_path;
  ASSERT_OK_AND_ASSIGN(
      ShardedRunResult result,
      RunShardedAnonymization(*provider, CoatConfig(), options));
  ASSERT_TRUE(result.merged.has_value());
  ASSERT_EQ(result.merged->num_records(), dataset.num_records());
  ASSERT_OK_AND_ASSIGN(csv::CsvTable release,
                       csv::ParseCsv(ReadFileBytes(release_path)));
  ASSERT_EQ(release.size(), table.size());
  // Transaction runs pass relational labels through: every row keeps its own.
  for (size_t r = 1; r < table.size(); ++r) {
    EXPECT_EQ(release[r][column], table[r][column]) << "row " << r - 1;
    EXPECT_EQ(result.merged->CsvRow(r - 1)[column], table[r][column]);
  }
  options.materialize_result = false;
  options.audit = false;
  ASSERT_OK_AND_ASSIGN(
      ShardedRunResult unmaterialized,
      RunShardedAnonymization(*provider, CoatConfig(), options));
  EXPECT_EQ(unmaterialized.release_fingerprint, result.release_fingerprint);
}

}  // namespace
}  // namespace secreta
