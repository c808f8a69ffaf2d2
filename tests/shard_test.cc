// Tests for the out-of-core sharded dataset engine: the SBC1 binary format
// (writer → mmap reader round trip against the CSV oracle, pinned v1 bytes,
// corruption rejection), ShardPlan determinism, ColumnProvider backend
// interchangeability, ShardCheckpoint persistence, and the sharded
// anonymization runner's byte-identity guarantees.

#include <gtest/gtest.h>

#include <cstdio>
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

TEST(ShardPlanTest, HashPlanCoversEveryRowExactlyOnce) {
  ShardPlan plan = ShardPlan::Make(ShardKind::kHash, 1000, 7, /*salt=*/99);
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
      EXPECT_EQ(plan.ShardOf(r), s);
      EXPECT_TRUE(seen.insert(r).second) << "row " << r << " assigned twice";
    }
  }
  EXPECT_EQ(total, 1000u);
  // A different salt reshuffles membership.
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

TEST(ShardCheckpointTest, AppendReopenReadPayloadRoundTrip) {
  std::string path = TempPath("shard_ckpt_roundtrip.txt");
  std::remove(path.c_str());
  ShardRecord record;
  record.shard = 1;
  record.rows = {4, 5, 6};
  record.lines = {"a,b", "c,d", "e,\"f,g\""};
  record.gcp = 0.25;
  record.seconds = 1.5;
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<ShardCheckpoint> ckpt,
                         ShardCheckpoint::Open(path, 7, 8, 9));
    EXPECT_EQ(ckpt->loaded(), 0u);
    ASSERT_OK(ckpt->Append(record));
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
  ASSERT_OK_AND_ASSIGN(ShardRecord loaded, ckpt->ReadPayload(1));
  EXPECT_EQ(loaded.rows, record.rows);
  EXPECT_EQ(loaded.lines, record.lines);
  EXPECT_FALSE(ckpt->ReadPayload(0).ok());
}

TEST(ShardCheckpointTest, RejectsForeignRunDatasetOrPlan) {
  std::string path = TempPath("shard_ckpt_foreign.txt");
  std::remove(path.c_str());
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<ShardCheckpoint> ckpt,
                         ShardCheckpoint::Open(path, 1, 2, 3));
    ShardRecord record;
    record.rows = {0};
    record.lines = {"a,b"};
    ASSERT_OK(ckpt->Append(record));
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
  ShardRecord record;
  record.shard = 2;
  record.rows = {4, 9};
  record.lines = {"30-39,\"a,b\"", "40-49,c"};
  record.gcp = 1.0 / 3.0;
  record.seconds = 0.5;
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<ShardCheckpoint> ckpt,
                         ShardCheckpoint::Open(path, 7, 8, 9));
    ASSERT_OK(ckpt->Append(record));
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
  ASSERT_OK_AND_ASSIGN(ShardRecord loaded, ckpt->ReadPayload(2));
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
      ShardRecord record;
      record.shard = s;
      record.rows = {static_cast<uint32_t>(2 * s),
                     static_cast<uint32_t>(2 * s + 1)};
      record.lines = {"x,y", "z,w"};
      ASSERT_OK(ckpt->Append(record));
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
    ASSERT_OK_AND_ASSIGN(ShardRecord record, ckpt->ReadPayload(0));
    EXPECT_EQ(record.lines.size(), 2u);
    EXPECT_EQ(ReadFileBytes(path), first);
  }
}

TEST(ShardCheckpointTest, AppendAfterTornBlockSurvivesReopen) {
  std::string path = TempPath("shard_ckpt_torn_append.txt");
  std::remove(path.c_str());
  auto record_for = [](size_t shard) {
    ShardRecord record;
    record.shard = shard;
    record.rows = {static_cast<uint32_t>(2 * shard),
                   static_cast<uint32_t>(2 * shard + 1)};
    record.lines = {"x,y", "z,\"w,v\""};
    return record;
  };
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<ShardCheckpoint> ckpt,
                         ShardCheckpoint::Open(path, 5, 6, 7));
    ASSERT_OK(ckpt->Append(record_for(0)));
  }
  // Killed mid-append: a head line and half its payload.
  WriteFileBytes(path,
                 ReadFileBytes(path) + "shard 1 2 0x0p+0 0x0p+0\n2\tx,y\n");
  {
    // The resume after the first crash.
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<ShardCheckpoint> ckpt,
                         ShardCheckpoint::Open(path, 5, 6, 7));
    EXPECT_EQ(ckpt->loaded(), 1u);
    ASSERT_OK(ckpt->Append(record_for(1)));
    ASSERT_OK(ckpt->Append(record_for(2)));
  }
  // The resume after a second crash still reads everything written.
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<ShardCheckpoint> ckpt,
                       ShardCheckpoint::Open(path, 5, 6, 7));
  EXPECT_EQ(ckpt->loaded(), 3u);
  for (size_t shard = 0; shard < 3; ++shard) {
    ShardMeta meta;
    EXPECT_TRUE(ckpt->FindMeta(shard, &meta)) << shard;
    ASSERT_OK_AND_ASSIGN(ShardRecord record, ckpt->ReadPayload(shard));
    EXPECT_EQ(record.rows, record_for(shard).rows);
    EXPECT_EQ(record.lines, record_for(shard).lines);
  }
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

TEST(ShardedRunnerTest, HashPlanRestoresGlobalRowOrder) {
  Dataset dataset = SmallRtDataset(150, 53);
  AlgorithmConfig config = RtConfig();
  std::unique_ptr<ColumnProvider> provider = MakeMemoryProvider(dataset);
  ShardedRunOptions options;
  options.num_shards = 3;
  options.shard_kind = ShardKind::kHash;
  options.salt = 7;
  ASSERT_OK_AND_ASSIGN(ShardedRunResult first,
                       RunShardedAnonymization(*provider, config, options));
  ASSERT_TRUE(first.merged.has_value());
  EXPECT_EQ(first.merged->num_records(), dataset.num_records());
  // Deterministic: a second identical run emits identical bytes.
  ASSERT_OK_AND_ASSIGN(ShardedRunResult second,
                       RunShardedAnonymization(*provider, config, options));
  EXPECT_EQ(first.release_fingerprint, second.release_fingerprint);
  ASSERT_TRUE(first.audit.has_value());
  EXPECT_TRUE(first.audit->k_anonymous);
  EXPECT_TRUE(first.audit->km_anonymous);
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
  EXPECT_GT(rel_result.weighted_gcp, 0.0);

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

}  // namespace
}  // namespace secreta
