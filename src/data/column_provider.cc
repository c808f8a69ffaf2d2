#include "data/column_provider.h"

#include <utility>

#include "common/string_util.h"

namespace secreta {

namespace {

/// Shared decoded-dataset backend for memory, CSV and synthetic sources.
class MemoryColumnProvider : public ColumnProvider {
 public:
  MemoryColumnProvider(Dataset dataset, DataSource source)
      : dataset_(std::move(dataset)), source_(source) {
    for (size_t c = 0; c < dataset_.num_relational(); ++c) {
      dictionaries_.push_back(dataset_.dictionary(c));
    }
    item_supports_.assign(dataset_.item_dictionary().size(), 0);
    for (size_t r = 0; r < dataset_.num_records(); ++r) {
      for (ItemId item : dataset_.items(r).raw()) {
        ++item_supports_[static_cast<size_t>(item)];
      }
    }
    fingerprint_ = DatasetContentFingerprint(dataset_);
  }

  DataSource source() const override { return source_; }
  const Schema& schema() const override { return dataset_.schema(); }
  size_t num_records() const override { return dataset_.num_records(); }
  const std::vector<Dictionary>& dictionaries() const override {
    return dictionaries_;
  }
  const Dictionary& item_dictionary() const override {
    return dataset_.item_dictionary();
  }
  const std::vector<uint64_t>& item_supports() const override {
    return item_supports_;
  }
  uint64_t content_fingerprint() const override { return fingerprint_; }

  Result<Dataset> Materialize() const override { return dataset_; }

  Result<Dataset> MaterializeShard(const ShardPlan& plan,
                                   size_t shard) const override {
    if (plan.num_records() != dataset_.num_records()) {
      return Status::InvalidArgument(
          StrFormat("shard plan covers %zu records, dataset has %zu",
                    plan.num_records(), dataset_.num_records()));
    }
    if (shard >= plan.num_shards()) {
      return Status::OutOfRange(
          StrFormat("shard %zu of %zu", shard, plan.num_shards()));
    }
    const std::vector<uint32_t> rows = plan.Rows(shard);
    const size_t num_cols = dataset_.num_relational();
    Dataset::Parts parts;
    parts.schema = dataset_.schema();
    parts.dictionaries = dictionaries_;
    parts.numeric.resize(num_cols);
    for (size_t c = 0; c < num_cols; ++c) {
      if (dataset_.is_numeric(c)) {
        auto& table = parts.numeric[c];
        table.reserve(dictionaries_[c].size());
        for (size_t id = 0; id < dictionaries_[c].size(); ++id) {
          table.push_back(
              dataset_.numeric_value(c, static_cast<ValueId>(id)).raw());
        }
      }
    }
    parts.num_records = rows.size();
    parts.cells.reserve(rows.size() * num_cols);
    for (uint32_t r : rows) {
      for (size_t c = 0; c < num_cols; ++c) {
        parts.cells.push_back(dataset_.value(r, c).raw());
      }
    }
    if (dataset_.has_transaction()) {
      parts.item_dictionary = dataset_.item_dictionary();
      parts.transactions.reserve(rows.size());
      for (uint32_t r : rows) parts.transactions.push_back(dataset_.items(r).raw());
    }
    return Dataset::FromParts(std::move(parts));
  }

 private:
  Dataset dataset_;
  DataSource source_;
  std::vector<Dictionary> dictionaries_;
  std::vector<uint64_t> item_supports_;
  uint64_t fingerprint_ = 0;
};

/// SBC1-backed provider; shard materialization maps one section window.
class BinaryColumnProvider : public ColumnProvider {
 public:
  explicit BinaryColumnProvider(BinaryDatasetReader reader)
      : reader_(std::move(reader)) {}

  DataSource source() const override { return DataSource::kBinary; }
  const Schema& schema() const override { return reader_.schema(); }
  size_t num_records() const override { return reader_.num_records(); }
  const std::vector<Dictionary>& dictionaries() const override {
    return reader_.dictionaries();
  }
  const Dictionary& item_dictionary() const override {
    return reader_.item_dictionary();
  }
  const std::vector<uint64_t>& item_supports() const override {
    return reader_.item_supports();
  }
  uint64_t content_fingerprint() const override {
    return reader_.content_fingerprint();
  }

  Result<Dataset> Materialize() const override { return reader_.ReadAll(); }

  Result<Dataset> MaterializeShard(const ShardPlan& plan,
                                   size_t shard) const override {
    const ShardPlan& native = reader_.plan();
    if (plan.kind() != native.kind() ||
        plan.num_records() != native.num_records() ||
        plan.num_shards() != native.num_shards() ||
        plan.salt() != native.salt()) {
      return Status::FailedPrecondition(StrFormat(
          "binary dataset was converted with %zu %s shards; re-run "
          "`convert` to change the partition",
          native.num_shards(), ShardKindName(native.kind())));
    }
    return reader_.ReadShard(shard);
  }

  std::optional<ShardPlan> native_plan() const override {
    return reader_.plan();
  }

 private:
  BinaryDatasetReader reader_;
};

}  // namespace

const char* DataSourceName(DataSource source) {
  switch (source) {
    case DataSource::kMemory:
      return "memory";
    case DataSource::kCsv:
      return "csv";
    case DataSource::kBinary:
      return "binary";
    case DataSource::kSynthetic:
      return "synthetic";
  }
  return "unknown";
}

std::unique_ptr<ColumnProvider> MakeMemoryProvider(Dataset dataset,
                                                   DataSource source) {
  return std::make_unique<MemoryColumnProvider>(std::move(dataset), source);
}

Result<std::unique_ptr<ColumnProvider>> OpenCsvProvider(
    const std::string& path) {
  SECRETA_ASSIGN_OR_RETURN(Dataset dataset, Dataset::LoadFile(path));
  return std::unique_ptr<ColumnProvider>(new MemoryColumnProvider(
      std::move(dataset), DataSource::kCsv));
}

Result<std::unique_ptr<ColumnProvider>> OpenBinaryProvider(
    const std::string& path) {
  SECRETA_ASSIGN_OR_RETURN(BinaryDatasetReader reader,
                           BinaryDatasetReader::Open(path));
  return std::unique_ptr<ColumnProvider>(
      new BinaryColumnProvider(std::move(reader)));
}

Result<std::unique_ptr<ColumnProvider>> OpenColumnProvider(
    const std::string& path) {
  if (LooksLikeBinaryDataset(path)) return OpenBinaryProvider(path);
  return OpenCsvProvider(path);
}

}  // namespace secreta
