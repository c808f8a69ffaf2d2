#include "engine/sharded_runner.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <utility>

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

// Anonymizes one shard and writes its release lines into `record->lines`
// (parallel to `record->rows`). Staged so the peak never holds more than one
// stage's transients: the contexts, run state and recodings are freed once
// the anonymized dataset is built, before its lines are written, and the
// anonymized dataset dies before this returns.
Status AnonymizeShard(const ColumnProvider& provider, const ShardPlan& plan,
                      size_t s, const AlgorithmConfig& config,
                      const ShardedRunOptions& options,
                      SharedHierarchies* hierarchies, ShardRecord* record,
                      double* gcp) {
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
  if (anonymized.num_records() != record->rows.size()) {
    return Status::Internal(StrFormat("anonymized %zu records, expected %zu",
                                      anonymized.num_records(),
                                      record->rows.size()));
  }
  // Each line is written from the anonymized ids into one reused buffer and
  // copied out at its own size.
  record->lines.reserve(record->rows.size());
  std::string line;
  for (size_t r = 0; r < anonymized.num_records(); ++r) {
    line.clear();
    anonymized.AppendCsvLine(r, &line);
    record->lines.push_back(line);
  }
  return Status::OK();
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

  std::unique_ptr<ShardCheckpoint> checkpoint;
  if (!options.checkpoint_path.empty()) {
    SECRETA_ASSIGN_OR_RETURN(
        checkpoint, ShardCheckpoint::Open(options.checkpoint_path, run_key,
                                          dataset_fp, plan.Fingerprint()));
  }
  // Outputs of shards computed this call when there is no checkpoint to
  // stream them back from.
  std::map<size_t, ShardRecord> local_records;

  SharedHierarchies hierarchies;

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
      result.shards.push_back(stats);
      continue;
    }

    Stopwatch shard_watch;
    ShardRecord record;
    record.shard = s;
    record.rows = plan.Rows(s);
    const Status shard_status = AnonymizeShard(
        provider, plan, s, config, options, &hierarchies, &record, &stats.gcp);
    if (!shard_status.ok()) {
      return Status(shard_status.code(),
                    StrFormat("shard %zu: ", s) + shard_status.message());
    }
    record.gcp = stats.gcp;
    stats.seconds = shard_watch.ElapsedSeconds();
    record.seconds = stats.seconds;

    if (checkpoint != nullptr) {
      SECRETA_TRACE_SPAN("shard.checkpoint");
      SECRETA_RETURN_IF_ERROR(checkpoint->Append(record));
    } else {
      local_records[s] = std::move(record);
    }
    result.shards.push_back(stats);
  }

  double gcp_weight = 0;
  for (const ShardRunStats& stats : result.shards) {
    result.anonymize_seconds += stats.seconds;
    gcp_weight += stats.gcp * static_cast<double>(stats.rows);
  }
  result.weighted_gcp =
      num_records == 0 ? 0 : gcp_weight / static_cast<double>(num_records);

  // ---- merge: emit the release in global row order ------------------------
  SECRETA_RETURN_IF_ERROR(CheckCancelled(options.cancel, "sharded-merge"));
  SECRETA_TRACE_SPAN("shard.merge");
  const std::string header = ReleaseHeaderLine(provider.schema());
  // Fnv1a64 continued line by line: equals Fnv1a64 of the whole release CSV.
  uint64_t fingerprint = Fnv1a64(header);
  fingerprint = Fnv1a64("\n", fingerprint);

  std::ofstream out;
  std::string tmp_path;
  if (!options.output_path.empty()) {
    tmp_path = options.output_path + ".tmp";
    out.open(tmp_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Status::IOError("cannot open release output: " + tmp_path);
    }
    out << header << '\n';
  }
  csv::CsvTable merged_table;
  if (options.materialize_result) {
    SECRETA_ASSIGN_OR_RETURN(std::vector<std::string> fields,
                             csv::ParseCsvLine(header));
    merged_table.reserve(num_records + 1);
    merged_table.push_back(std::move(fields));
  }

  auto take_record = [&](size_t s) -> Result<ShardRecord> {
    if (checkpoint != nullptr) return checkpoint->ReadPayload(s);
    auto it = local_records.find(s);
    if (it == local_records.end()) {
      return Status::Internal(StrFormat("shard %zu output missing", s));
    }
    ShardRecord record = std::move(it->second);
    local_records.erase(it);
    return record;
  };
  auto emit_line = [&](const std::string& line) -> Status {
    fingerprint = Fnv1a64(line, fingerprint);
    fingerprint = Fnv1a64("\n", fingerprint);
    if (out.is_open()) out << line << '\n';
    if (options.materialize_result) {
      SECRETA_ASSIGN_OR_RETURN(std::vector<std::string> fields,
                               csv::ParseCsvLine(line));
      merged_table.push_back(std::move(fields));
    }
    return Status::OK();
  };

  if (plan.kind() == ShardKind::kRange) {
    // Range shards are contiguous ascending blocks: concatenation in shard
    // order IS global row order, one shard resident at a time.
    for (size_t s = 0; s < plan.num_shards(); ++s) {
      SECRETA_ASSIGN_OR_RETURN(ShardRecord record, take_record(s));
      for (const std::string& line : record.lines) {
        SECRETA_RETURN_IF_ERROR(emit_line(line));
      }
    }
  } else {
    // Hash shards interleave rows; restoring global order needs everything
    // at once (hash partitioning targets decorrelation, not out-of-core).
    std::vector<std::pair<uint32_t, std::string>> rows;
    rows.reserve(num_records);
    for (size_t s = 0; s < plan.num_shards(); ++s) {
      SECRETA_ASSIGN_OR_RETURN(ShardRecord record, take_record(s));
      for (size_t i = 0; i < record.rows.size(); ++i) {
        rows.emplace_back(record.rows[i], std::move(record.lines[i]));
      }
    }
    std::sort(rows.begin(), rows.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [row, line] : rows) {
      SECRETA_RETURN_IF_ERROR(emit_line(line));
    }
  }
  result.release_fingerprint = fingerprint;

  if (out.is_open()) {
    out.flush();
    if (!out) return Status::IOError("release write failed: " + tmp_path);
    out.close();
    if (std::rename(tmp_path.c_str(), options.output_path.c_str()) != 0) {
      return Status::IOError("cannot move release into place: " +
                             options.output_path);
    }
  }

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
      SECRETA_ASSIGN_OR_RETURN(
          AuditReport audit,
          AuditAnonymizedDataset(merged, config.params.k, config.params.m,
                                 /*check_km_per_class=*/config.mode ==
                                     AnonMode::kRt));
      result.audit = std::move(audit);
    }
    result.merged = std::move(merged);
  }

  result.total_seconds = total_watch.ElapsedSeconds();
  return result;
}

}  // namespace secreta
