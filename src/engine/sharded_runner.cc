#include "engine/sharded_runner.h"

#include <cstdio>
#include <fstream>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "common/stopwatch.h"
#include "common/string_util.h"
#include "core/context.h"
#include "csv/csv.h"
#include "metrics/information_loss.h"
#include "obs/trace.h"
#include "robust/checkpoint.h"
#include "robust/memory_budget.h"
#include "robust/shard_checkpoint.h"

namespace secreta {

namespace {

bool ModeUsesRelational(AnonMode mode) {
  return mode == AnonMode::kRelational || mode == AnonMode::kRt;
}

bool ModeUsesTransaction(AnonMode mode) {
  return mode == AnonMode::kTransaction || mode == AnonMode::kRt;
}

// The release header is derived from the provider schema, not from a shard
// output, so a fully resumed run (zero shards computed) still merges.
std::string ReleaseHeaderLine(const Schema& schema) {
  std::vector<std::string> names;
  names.reserve(schema.num_attributes());
  for (const auto& spec : schema.attributes()) names.push_back(spec.name);
  return csv::WriteCsvLine(names);
}

// Generalized labels are not parseable numbers, so the merged release is
// re-parsed with every relational attribute downgraded to categorical
// (roles and the transaction attribute are preserved).
Result<Schema> ReleaseSchema(const Schema& source) {
  Schema schema;
  for (const auto& spec : source.attributes()) {
    AttributeSpec out = spec;
    if (out.type == AttributeType::kNumeric) {
      out.type = AttributeType::kCategorical;
    }
    SECRETA_RETURN_IF_ERROR(schema.AddAttribute(out));
  }
  return schema;
}

// Whole-dataset hierarchies, built lazily from the first shard that needs
// computing: shard datasets carry the global dictionaries, so the trees are
// identical no matter which shard seeds them (or how many shards there are).
struct SharedHierarchies {
  std::vector<Hierarchy> columns;
  std::optional<Hierarchy> items;
  bool built = false;
};

// Anonymizes one shard into its anonymized Dataset, whose ids the caller
// writes release lines from. Staged so the peak never holds more than one
// stage's transients: the contexts, run state and recodings are freed once
// the anonymized dataset is built, before this returns.
Result<Dataset> AnonymizeShard(const ColumnProvider& provider,
                               const ShardPlan& plan, size_t s,
                               const AlgorithmConfig& config,
                               const ShardedRunOptions& options,
                               SharedHierarchies* hierarchies, double* gcp) {
  Dataset shard_dataset;
  {
    SECRETA_TRACE_SPAN("shard.load");
    SECRETA_ASSIGN_OR_RETURN(shard_dataset, provider.MaterializeShard(plan, s));
  }
  // Soft accounting: the budget tracks the dominant per-shard residency so
  // concurrent engine charges shed against what is really in use. A
  // rejection is not fatal — the shard is required work, not optional.
  ScopedCharge shard_charge(options.memory, shard_dataset.MemoryBytes());

  std::optional<RelationalContext> relational;
  std::optional<TransactionContext> transaction;
  EngineInputs inputs;
  inputs.dataset = &shard_dataset;
  inputs.cancel = options.cancel;
  inputs.memory = options.memory;
  RunResult run;
  {
    SECRETA_TRACE_SPAN("shard.anonymize");
    if (!hierarchies->built) {
      if (ModeUsesRelational(config.mode)) {
        SECRETA_ASSIGN_OR_RETURN(
            hierarchies->columns,
            BuildAllColumnHierarchies(shard_dataset, options.hierarchy));
      }
      if (ModeUsesTransaction(config.mode) &&
          !provider.item_dictionary().empty()) {
        SECRETA_ASSIGN_OR_RETURN(
            Hierarchy built,
            BuildItemHierarchyFromSupports(provider.item_dictionary(),
                                           provider.item_supports(),
                                           options.hierarchy));
        hierarchies->items = std::move(built);
      }
      hierarchies->built = true;
    }
    if (ModeUsesRelational(config.mode)) {
      SECRETA_ASSIGN_OR_RETURN(
          RelationalContext ctx,
          RelationalContext::Create(shard_dataset, hierarchies->columns));
      relational = std::move(ctx);
      inputs.relational = &*relational;
    }
    if (ModeUsesTransaction(config.mode)) {
      SECRETA_ASSIGN_OR_RETURN(
          TransactionContext ctx,
          TransactionContext::Create(shard_dataset,
                                     hierarchies->items.has_value()
                                         ? &*hierarchies->items
                                         : nullptr));
      transaction = std::move(ctx);
      inputs.transaction = &*transaction;
    }
    AlgorithmConfig shard_config = config;
    shard_config.params.seed = ShardSeed(config.params.seed, s);
    SECRETA_ASSIGN_OR_RETURN(run, RunAnonymization(inputs, shard_config));
    if (run.relational.has_value() && relational.has_value()) {
      *gcp = RecodingGcp(*relational, *run.relational);
    }
  }

  SECRETA_TRACE_SPAN("shard.materialize");
  SECRETA_ASSIGN_OR_RETURN(Dataset anonymized, MaterializeRun(inputs, run));
  run = RunResult();
  relational.reset();
  transaction.reset();
  if (anonymized.num_records() != plan.ShardSize(s)) {
    return Status::Internal(StrFormat("anonymized %zu records, expected %zu",
                                      anonymized.num_records(),
                                      plan.ShardSize(s)));
  }
  return anonymized;
}

// The release CSV as it is written: the header, then one line per record in
// global row order, each folded into the fingerprint and written to
// `<output>.tmp` through a 64 KiB stream buffer (rather than the default
// 8 KiB one, which measurably slowed writing), which Commit renames into
// place. Destroyed uncommitted, the writer removes the tmp file, so a failed
// or cancelled run leaves no release behind.
class ReleaseWriter {
 public:
  static constexpr size_t kBufferBytes = 64 << 10;

  ReleaseWriter() = default;
  ~ReleaseWriter() {
    if (!tmp_path_.empty() && !committed_) {
      out_.close();
      std::remove(tmp_path_.c_str());
    }
  }
  ReleaseWriter(const ReleaseWriter&) = delete;
  ReleaseWriter& operator=(const ReleaseWriter&) = delete;

  /// Opens `<output_path>.tmp` for the release. Without it the release is
  /// only fingerprinted.
  Status Open(const std::string& output_path) {
    const std::string tmp_path = output_path + ".tmp";
    buffer_.reset(new char[kBufferBytes]);
    out_.rdbuf()->pubsetbuf(buffer_.get(), kBufferBytes);
    out_.open(tmp_path, std::ios::binary | std::ios::trunc);
    if (!out_) {
      return Status::IOError("cannot open release output: " + tmp_path);
    }
    path_ = output_path;
    tmp_path_ = tmp_path;
    return Status::OK();
  }

  void Add(std::string_view line) {
    fingerprint_ = Fnv1a64("\n", Fnv1a64(line, fingerprint_));
    if (out_.is_open()) {
      out_.write(line.data(), static_cast<std::streamsize>(line.size()));
      out_.put('\n');
    }
  }

  /// Moves the release into place.
  Status Commit() {
    if (tmp_path_.empty()) return Status::OK();
    out_.close();
    if (!out_) return Status::IOError("release write failed: " + tmp_path_);
    if (std::rename(tmp_path_.c_str(), path_.c_str()) != 0) {
      return Status::IOError("cannot move release into place: " + path_);
    }
    committed_ = true;
    return Status::OK();
  }

  uint64_t fingerprint() const { return fingerprint_; }

 private:
  uint64_t fingerprint_ = kFnv1a64Basis;
  std::string path_;
  std::string tmp_path_;
  std::unique_ptr<char[]> buffer_;  ///< out_'s; declared first, outlives it
  std::ofstream out_;
  bool committed_ = false;
};

// A computed hash-plan shard's release lines, held for the merge when there
// is no checkpoint to read them back from: the lines back to back, and where
// each ends (a quoted field may hold a newline, so the bytes alone do not
// say).
struct HeldLines {
  std::string bytes;
  std::vector<size_t> ends;
  size_t taken = 0;  ///< lines the merge has consumed
};

Status RowMismatch(const ShardCheckpoint& checkpoint, size_t shard,
                   uint32_t row, size_t expected) {
  return Status::FailedPrecondition(StrFormat(
      "shard checkpoint %s: shard %zu holds row %u where the plan expects "
      "row %zu",
      checkpoint.path().c_str(), shard, row, expected));
}

}  // namespace

Result<ShardedRunResult> RunShardedAnonymization(
    const ColumnProvider& provider, const AlgorithmConfig& config,
    const ShardedRunOptions& options) {
  Stopwatch total_watch;
  SECRETA_RETURN_IF_ERROR(config.params.Validate());
  if (options.audit && !options.materialize_result) {
    return Status::InvalidArgument(
        "auditing the merged release requires materialize_result");
  }

  const size_t num_records = provider.num_records();
  ShardPlan plan;
  if (options.num_shards == 0) {
    std::optional<ShardPlan> native = provider.native_plan();
    plan = native.has_value()
               ? *native
               : ShardPlan::Make(options.shard_kind, num_records, 1,
                                 options.salt);
  } else {
    plan = ShardPlan::Make(options.shard_kind, num_records,
                           options.num_shards, options.salt);
  }

  ShardedRunResult result;
  result.plan = plan;
  result.num_records = num_records;

  const uint64_t dataset_fp = provider.content_fingerprint();
  // The run key identifies (config, dataset); per-shard identity lives in
  // the plan fingerprint plus the shard block index.
  const uint64_t run_key = CheckpointLog::PointKey(config, dataset_fp,
                                                   /*workload_fp=*/0,
                                                   /*config_index=*/0);

  // A relational algorithm cannot make a shard of fewer than k records
  // k-anonymous. Refuse such a plan before any shard runs or any checkpoint
  // block is written; a checkpointed shard of this run key passed the same
  // check, so checking every shard is exact.
  if (ModeUsesRelational(config.mode)) {
    for (size_t s = 0; s < plan.num_shards(); ++s) {
      if (plan.ShardSize(s) < static_cast<size_t>(config.params.k)) {
        return Status::InvalidArgument(StrFormat(
            "shard %zu of %zu has %zu rows, fewer than k=%d: no relational "
            "algorithm can make it k-anonymous; use fewer shards",
            s, plan.num_shards(), plan.ShardSize(s), config.params.k));
      }
    }
  }

  // The release is opened before anything else is written, so an
  // unwritable output path costs no shard and no checkpoint block.
  ReleaseWriter release;
  if (!options.output_path.empty()) {
    SECRETA_RETURN_IF_ERROR(release.Open(options.output_path));
  }
  std::unique_ptr<ShardCheckpoint> checkpoint;
  if (!options.checkpoint_path.empty()) {
    SECRETA_ASSIGN_OR_RETURN(
        checkpoint, ShardCheckpoint::Open(options.checkpoint_path, run_key,
                                          dataset_fp, plan.Fingerprint()));
  }

  csv::CsvTable merged_table;
  if (options.materialize_result) merged_table.reserve(num_records + 1);
  // Every release line, header first, in global row order.
  auto emit = [&](std::string_view line) -> Status {
    release.Add(line);
    if (options.materialize_result) {
      SECRETA_ASSIGN_OR_RETURN(std::vector<std::string> fields,
                               csv::ParseCsvLine(line));
      merged_table.push_back(std::move(fields));
    }
    return Status::OK();
  };
  SECRETA_RETURN_IF_ERROR(emit(ReleaseHeaderLine(provider.schema())));

  // Range shards are contiguous ascending blocks: concatenation in shard
  // order IS global row order, so each shard's lines go to the release as
  // the loop reaches it. Hash shards interleave rows and are merged after
  // the loop, from the checkpoint or, without one, from `held`.
  const bool range_plan = plan.kind() == ShardKind::kRange;
  std::vector<HeldLines> held;
  if (!range_plan && checkpoint == nullptr) held.resize(plan.num_shards());

  SharedHierarchies hierarchies;
  std::string line;  // every computed release line, in turn

  for (size_t s = 0; s < plan.num_shards(); ++s) {
    SECRETA_RETURN_IF_ERROR(CheckCancelled(options.cancel, "sharded-run"));
    ShardRunStats stats;
    stats.shard = s;
    stats.rows = plan.ShardSize(s);

    ShardMeta meta;
    if (checkpoint != nullptr && checkpoint->FindMeta(s, &meta)) {
      if (meta.num_rows != stats.rows) {
        return Status::FailedPrecondition(StrFormat(
            "shard checkpoint %s: shard %zu has %zu rows, plan expects %zu",
            checkpoint->path().c_str(), s, meta.num_rows, stats.rows));
      }
      stats.gcp = meta.gcp;
      stats.seconds = meta.seconds;
      stats.resumed = true;
      ++result.resumed_shards;
      if (range_plan) {
        SECRETA_TRACE_SPAN("shard.replay");
        SECRETA_ASSIGN_OR_RETURN(ShardCheckpoint::PayloadReader reader,
                                 checkpoint->OpenPayload(s));
        const std::vector<uint32_t> rows = plan.Rows(s);
        uint32_t row = 0;
        std::string_view csv;
        for (size_t i = 0;; ++i) {
          SECRETA_ASSIGN_OR_RETURN(const bool more, reader.Next(&row, &csv));
          if (!more) break;
          if (row != rows[i]) return RowMismatch(*checkpoint, s, row, rows[i]);
          SECRETA_RETURN_IF_ERROR(emit(csv));
        }
      }
      result.shards.push_back(stats);
      continue;
    }

    Stopwatch shard_watch;
    Result<Dataset> anonymized = AnonymizeShard(
        provider, plan, s, config, options, &hierarchies, &stats.gcp);
    if (!anonymized.ok()) {
      return Status(anonymized.status().code(),
                    StrFormat("shard %zu: ", s) +
                        anonymized.status().message());
    }
    stats.seconds = shard_watch.ElapsedSeconds();

    // One pass over the anonymized ids writes each line into the checkpoint
    // block and the release (or, for a hash plan without a checkpoint, into
    // the held lines).
    SECRETA_TRACE_SPAN("shard.write");
    auto write_line = [&](size_t i) -> Status {
      line.clear();
      anonymized->AppendCsvLine(i, &line);
      if (range_plan) return emit(line);
      if (checkpoint == nullptr) {
        held[s].bytes.append(line);
        held[s].ends.push_back(held[s].bytes.size());
      }
      return Status::OK();
    };
    if (checkpoint != nullptr) {
      const std::vector<uint32_t> rows = plan.Rows(s);
      const ShardMeta block{s, stats.rows, stats.gcp, stats.seconds};
      SECRETA_RETURN_IF_ERROR(checkpoint->Append(
          block, [&](size_t i, uint32_t* row, std::string_view* csv) {
            SECRETA_RETURN_IF_ERROR(write_line(i));
            *row = rows[i];
            *csv = line;
            return Status::OK();
          }));
    } else {
      for (size_t i = 0; i < stats.rows; ++i) {
        SECRETA_RETURN_IF_ERROR(write_line(i));
      }
    }
    result.shards.push_back(stats);
  }

  if (!range_plan) {
    // ---- hash merge: a k-way merge by global row id ------------------------
    // Each shard's rows ascend, so row r is the next line of the shard that
    // owns it. With a checkpoint, every shard's reader streams its block
    // side by side through one file handle and a fixed buffer budget.
    SECRETA_RETURN_IF_ERROR(CheckCancelled(options.cancel, "sharded-merge"));
    SECRETA_TRACE_SPAN("shard.merge");
    std::vector<ShardCheckpoint::PayloadReader> readers;
    if (checkpoint != nullptr) {
      std::vector<size_t> shards(plan.num_shards());
      for (size_t s = 0; s < shards.size(); ++s) shards[s] = s;
      SECRETA_ASSIGN_OR_RETURN(readers, checkpoint->OpenPayloads(shards));
    }
    uint32_t row = 0;
    std::string_view csv;
    for (size_t r = 0; r < num_records; ++r) {
      const size_t s = plan.ShardOf(r);
      if (checkpoint != nullptr) {
        SECRETA_ASSIGN_OR_RETURN(const bool more, readers[s].Next(&row, &csv));
        if (!more || row != r) return RowMismatch(*checkpoint, s, row, r);
      } else {
        HeldLines& lines = held[s];
        const size_t begin = lines.taken == 0 ? 0 : lines.ends[lines.taken - 1];
        const size_t end = lines.ends[lines.taken++];
        csv = std::string_view(lines.bytes).substr(begin, end - begin);
      }
      SECRETA_RETURN_IF_ERROR(emit(csv));
    }
  }
  SECRETA_RETURN_IF_ERROR(release.Commit());
  result.release_fingerprint = release.fingerprint();

  double gcp_weight = 0;
  for (const ShardRunStats& stats : result.shards) {
    result.anonymize_seconds += stats.seconds;
    gcp_weight += stats.gcp * static_cast<double>(stats.rows);
  }
  result.weighted_gcp =
      num_records == 0 ? 0 : gcp_weight / static_cast<double>(num_records);

  if (options.materialize_result) {
    if (merged_table.size() != num_records + 1) {
      return Status::Internal(StrFormat(
          "merged %zu rows, expected %zu", merged_table.size() - 1,
          num_records));
    }
    SECRETA_ASSIGN_OR_RETURN(Schema schema, ReleaseSchema(provider.schema()));
    SECRETA_ASSIGN_OR_RETURN(Dataset merged,
                             Dataset::FromCsv(merged_table, schema));
    if (options.audit) {
      // Judge only what the mode promises: k for relational runs, k^m for
      // transaction runs, (k, k^m) per class for RT runs. The relational
      // labels of a transaction run and the items of a relational run are
      // passed through, not anonymized.
      SECRETA_ASSIGN_OR_RETURN(
          AuditReport audit,
          AuditAnonymizedDataset(
              merged, config.params.k,
              ModeUsesTransaction(config.mode) ? config.params.m : 0,
              /*check_km_per_class=*/config.mode == AnonMode::kRt,
              /*check_k=*/ModeUsesRelational(config.mode)));
      result.audit = std::move(audit);
    }
    result.merged = std::move(merged);
  }

  result.total_seconds = total_watch.ElapsedSeconds();
  return result;
}

}  // namespace secreta
