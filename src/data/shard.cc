#include "data/shard.h"

#include <algorithm>

#include "common/string_util.h"

namespace secreta {

namespace {

// Fixed-increment SplitMix64 finalizer (Steele, Lea, Flood). The full
// avalanche keeps hash shards balanced even for sequential row ids.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Range boundary: first row of shard `s` in an N-record S-shard plan.
size_t RangeStart(size_t s, size_t num_records, size_t num_shards) {
  return s * num_records / num_shards;
}

}  // namespace

const char* ShardKindName(ShardKind kind) {
  switch (kind) {
    case ShardKind::kRange:
      return "range";
    case ShardKind::kHash:
      return "hash";
  }
  return "unknown";
}

Result<ShardKind> ParseShardKind(std::string_view name) {
  if (name == "range") return ShardKind::kRange;
  if (name == "hash") return ShardKind::kHash;
  return Status::InvalidArgument("unknown shard kind: " + std::string(name) +
                                 " (expected range|hash)");
}

ShardPlan ShardPlan::Make(ShardKind kind, size_t num_records,
                          size_t num_shards, uint64_t salt) {
  ShardPlan plan;
  plan.kind_ = kind;
  plan.num_records_ = num_records;
  plan.num_shards_ =
      std::max<size_t>(1, std::min(num_shards, std::max<size_t>(1, num_records)));
  plan.salt_ = salt;
  if (kind == ShardKind::kHash) {
    plan.hash_rows_ = std::make_shared<const Csr>(
        Csr::Build(plan.num_shards_, [&](auto emit) {
          for (size_t r = 0; r < num_records; ++r) {
            emit(plan.ShardOf(r), static_cast<uint32_t>(r));
          }
        }));
  }
  return plan;
}

size_t ShardPlan::ShardOf(size_t row) const {
  if (kind_ == ShardKind::kHash) {
    return static_cast<size_t>(Mix64(static_cast<uint64_t>(row) ^ salt_) %
                               num_shards_);
  }
  // Invert RangeStart: the shard whose block contains `row`.
  size_t s = row * num_shards_ / num_records_;
  while (s + 1 < num_shards_ && RangeStart(s + 1, num_records_, num_shards_) <= row) {
    ++s;
  }
  while (s > 0 && RangeStart(s, num_records_, num_shards_) > row) {
    --s;
  }
  return s;
}

std::vector<uint32_t> ShardPlan::Rows(size_t shard) const {
  if (kind_ == ShardKind::kHash) {
    const std::span<const uint32_t> rows = (*hash_rows_)[shard];
    return {rows.begin(), rows.end()};
  }
  std::vector<uint32_t> rows;
  size_t begin = RangeStart(shard, num_records_, num_shards_);
  size_t end = RangeStart(shard + 1, num_records_, num_shards_);
  rows.reserve(end - begin);
  for (size_t r = begin; r < end; ++r) rows.push_back(static_cast<uint32_t>(r));
  return rows;
}

size_t ShardPlan::ShardSize(size_t shard) const {
  if (kind_ == ShardKind::kHash) return (*hash_rows_)[shard].size();
  return RangeStart(shard + 1, num_records_, num_shards_) -
         RangeStart(shard, num_records_, num_shards_);
}

uint64_t ShardPlan::Fingerprint() const {
  uint64_t fp = Fnv1a64("secreta.shard_plan");
  fp = HashCombine(fp, static_cast<uint64_t>(kind_));
  fp = HashCombine(fp, static_cast<uint64_t>(num_records_));
  fp = HashCombine(fp, static_cast<uint64_t>(num_shards_));
  fp = HashCombine(fp, salt_);
  return fp;
}

uint64_t ShardSeed(uint64_t run_seed, size_t shard) {
  if (shard == 0) return run_seed;
  return Mix64(HashCombine(run_seed, static_cast<uint64_t>(shard)));
}

}  // namespace secreta
