// SHARD — the out-of-core acceptance benchmark: convert a large synthetic
// RT-dataset to SBC1, anonymize it shard-by-shard from the binary file in a
// child process whose peak RSS is measured, resume it from the checkpoint,
// and audit the merged release. The same dataset converted with a hash plan
// goes through the same gated run and resume, since a hash plan's release
// is a k-way merge of every shard. Emits BENCH_shard.json (CWD).
//
// Default ("full") mode runs the acceptance configuration — 1M records,
// 32 range shards, then 32 hash shards — and exits nonzero unless, for
// both plans,
//   * the gated child's peak RSS stays below 50% of the dataset's in-memory
//     footprint (Dataset::MemoryBytes()), and
//   * the resumed re-run reproduces the release byte-for-byte,
// and the range plan's merged release passes the k-anonymity /
// k^m-anonymity audit. `--quick` shrinks to 30k records for CI smoke runs:
// the identity and audit checks still apply, and the hash release must
// equal a run of the same plan without a checkpoint (merged from memory),
// but the RSS gates are reported without being enforced (fixed process
// overheads dominate tiny datasets).
//
// The gated phase runs in a child process (`--phase=run`, spawned via this
// binary's own argv[0]) so the parent's dataset generation does not pollute
// the high-water mark that getrusage() reports.

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>

#include "bench/bench_util.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "csv/csv.h"
#include "data/column_provider.h"
#include "data/format.h"
#include "data/mmap_file.h"
#include "engine/sharded_runner.h"
#include "export/json_export.h"

using namespace secreta;

namespace {

AlgorithmConfig BenchConfig() {
  AlgorithmConfig config;
  config.mode = AnonMode::kRt;
  config.relational_algorithm = "Cluster";
  config.transaction_algorithm = "COAT";
  config.merger = MergerKind::kRTmerger;
  config.params.k = 5;
  config.params.m = 2;
  return config;
}

size_t PeakRssBytes() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<size_t>(usage.ru_maxrss) * 1024;  // Linux: KiB
}

// ---------------------------------------------------------------------------
// Child phase: the gated out-of-core run. Reads only the SBC1 file, writes
// the release CSV + checkpoint, never materializes the merged dataset, and
// reports its own numbers through a flat key=value stats file.

int RunPhase(const std::string& in, const std::string& ckpt,
             const std::string& out, const std::string& stats_path) {
  std::unique_ptr<ColumnProvider> provider =
      bench::CheckOk(OpenColumnProvider(in), "open provider");
  ShardedRunOptions options;
  options.checkpoint_path = ckpt;
  options.output_path = out;
  options.materialize_result = false;
  options.audit = false;
  ShardedRunResult result = bench::CheckOk(
      RunShardedAnonymization(*provider, BenchConfig(), options), "run");

  std::ofstream stats(stats_path, std::ios::trunc);
  stats << "peak_rss_bytes " << PeakRssBytes() << "\n"
        << "num_records " << result.num_records << "\n"
        << "num_shards " << result.plan.num_shards() << "\n"
        << "resumed_shards " << result.resumed_shards << "\n"
        << "anonymize_seconds " << StrFormat("%a", result.anonymize_seconds)
        << "\n"
        << "total_seconds " << StrFormat("%a", result.total_seconds) << "\n"
        << "weighted_gcp " << StrFormat("%a", result.weighted_gcp) << "\n"
        << "release_fp " << StrFormat("%016llx", (unsigned long long)
                                      result.release_fingerprint)
        << "\n";
  return stats.good() ? 0 : 1;
}

std::map<std::string, std::string> ReadStats(const std::string& path) {
  std::map<std::string, std::string> stats;
  std::ifstream in(path);
  std::string key, value;
  while (in >> key >> value) stats[key] = value;
  if (stats.empty()) {
    fprintf(stderr, "FAIL: empty stats file %s\n", path.c_str());
    exit(1);
  }
  return stats;
}

int SpawnPhase(const std::string& self, const std::string& phase_args) {
  std::string command = "\"" + self + "\" " + phase_args;
  return std::system(command.c_str());
}

// A gated run of one SBC1 file and its resume, each in a child process.
struct GatedRun {
  std::map<std::string, std::string> run;
  std::map<std::string, std::string> resumed;
  size_t peak_rss = 0;
  double rss_ratio = 0;
  bool resume_identical = false;
};

bool RunAndResume(const std::string& self, const std::string& sbc,
                  const std::string& ckpt, const std::string& release,
                  const std::string& stats_prefix, size_t num_shards,
                  size_t baseline_bytes, GatedRun* out) {
  std::remove(ckpt.c_str());
  const std::string args =
      StrFormat("--phase=run --in=%s --ckpt=%s --out=%s --stats=", sbc.c_str(),
                ckpt.c_str(), release.c_str());
  if (SpawnPhase(self, args + stats_prefix + "1.txt") != 0) {
    fprintf(stderr, "FAIL: gated run child failed (%s)\n", sbc.c_str());
    return false;
  }
  out->run = ReadStats(stats_prefix + "1.txt");
  out->peak_rss = std::stoull(out->run["peak_rss_bytes"]);
  out->rss_ratio = static_cast<double>(out->peak_rss) /
                   static_cast<double>(baseline_bytes);
  printf("gated run: peak RSS %zu bytes = %.1f%% of in-memory footprint, "
         "anonymize %.2fs, gcp %.4f, release %s\n",
         out->peak_rss, 100.0 * out->rss_ratio,
         std::strtod(out->run["anonymize_seconds"].c_str(), nullptr),
         std::strtod(out->run["weighted_gcp"].c_str(), nullptr),
         out->run["release_fp"].c_str());
  // Resume from the checkpoint: every shard must replay from disk and the
  // merged bytes must not move.
  if (SpawnPhase(self, args + stats_prefix + "2.txt") != 0) {
    fprintf(stderr, "FAIL: resume child failed (%s)\n", sbc.c_str());
    return false;
  }
  out->resumed = ReadStats(stats_prefix + "2.txt");
  const bool all_resumed =
      out->resumed["resumed_shards"] == std::to_string(num_shards);
  out->resume_identical =
      all_resumed && out->run["release_fp"] == out->resumed["release_fp"];
  printf("resume: %s/%zu shards replayed, release %s (%s)\n",
         out->resumed["resumed_shards"].c_str(), num_shards,
         out->resumed["release_fp"].c_str(),
         out->resume_identical ? "byte-identical" : "MISMATCH");
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string phase, in, ckpt, out, stats_path;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto take = [&](const char* prefix, std::string* dst) {
      if (arg.rfind(prefix, 0) == 0) {
        *dst = arg.substr(std::strlen(prefix));
        return true;
      }
      return false;
    };
    if (arg == "--quick") quick = true;
    else if (take("--phase=", &phase) || take("--in=", &in) ||
             take("--ckpt=", &ckpt) || take("--out=", &out) ||
             take("--stats=", &stats_path)) {
    } else {
      fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return 2;
    }
  }
  if (phase == "run") return RunPhase(in, ckpt, out, stats_path);
  if (!phase.empty()) {
    fprintf(stderr, "unknown phase %s\n", phase.c_str());
    return 2;
  }

  const size_t num_records = quick ? 30000 : 1000000;
  // Full mode uses finer shards: the gated child's peak is dominated by one
  // shard's engine working set, so more shards = flatter high-water mark.
  const size_t num_shards = quick ? 8 : 32;
  printf("== SHARD: out-of-core sharded run (%zu records, %zu shards, %s) ==\n\n",
         num_records, num_shards, quick ? "quick" : "full");

  const std::string dir = bench::OutDir();
  const std::string sbc_path = dir + "/shard_bench.sbc";
  const std::string ckpt_path = dir + "/shard_bench.ckpt";
  const std::string release_path = dir + "/shard_bench_release.csv";
  const std::string hash_sbc_path = dir + "/shard_bench_hash.sbc";
  const std::string hash_ckpt_path = dir + "/shard_bench_hash.ckpt";
  const std::string hash_release_path = dir + "/shard_bench_hash_release.csv";

  // Phase 1 (parent): generate + convert, once per plan kind. The full
  // dataset lives here — and only here; the gated child never holds more
  // than one shard.
  size_t baseline_bytes = 0;
  uint64_t content_fp = 0;
  double convert_seconds = 0;
  {
    Dataset dataset = bench::BenchDataset(num_records);
    baseline_bytes = dataset.MemoryBytes();
    Stopwatch watch;
    BinaryWriteOptions options;
    options.num_shards = num_shards;
    bench::CheckOk(WriteBinaryDataset(dataset, sbc_path, options), "convert");
    convert_seconds = watch.ElapsedSeconds();
    options.shard_kind = ShardKind::kHash;
    bench::CheckOk(WriteBinaryDataset(dataset, hash_sbc_path, options),
                   "convert (hash)");
    content_fp = DatasetContentFingerprint(dataset);
  }
  const size_t file_bytes =
      bench::CheckOk(MmapFile::FileSize(sbc_path), "file size");
  printf("converted: %zu bytes on disk, %zu bytes in memory (%.2fs)\n",
         file_bytes, baseline_bytes, convert_seconds);

  // Phases 2 and 3 (children): the gated out-of-core anonymize + release,
  // then its resume.
  const std::string self = argv[0];
  GatedRun range;
  if (!RunAndResume(self, sbc_path, ckpt_path, release_path,
                    dir + "/shard_bench_stats", num_shards, baseline_bytes,
                    &range)) {
    return 1;
  }
  auto& run = range.run;

  // Phase 4 (parent): audit the merged release. Resumes the same checkpoint
  // with materialization on — the engine never re-runs.
  std::unique_ptr<ColumnProvider> provider =
      bench::CheckOk(OpenColumnProvider(sbc_path), "reopen provider");
  ShardedRunOptions audit_options;
  audit_options.checkpoint_path = ckpt_path;
  ShardedRunResult audited = bench::CheckOk(
      RunShardedAnonymization(*provider, BenchConfig(), audit_options),
      "audit run");
  const bool audit_ok = audited.audit.has_value() &&
                        audited.audit->k_anonymous &&
                        audited.audit->km_anonymous;
  const bool audit_identical =
      StrFormat("%016llx",
                (unsigned long long)audited.release_fingerprint) ==
      run["release_fp"];
  printf("audit: k-anonymity %s, k^m-anonymity %s, min class %zu\n",
         audit_ok && audited.audit->k_anonymous ? "OK" : "VIOLATED",
         audit_ok && audited.audit->km_anonymous ? "OK" : "VIOLATED",
         audited.audit.has_value() ? audited.audit->min_class_size
                                   : static_cast<size_t>(0));

  // Phases 5 and 6 (children): the hash plan's gated run and resume.
  printf("\nhash plan (%zu shards):\n", num_shards);
  GatedRun hash;
  if (!RunAndResume(self, hash_sbc_path, hash_ckpt_path, hash_release_path,
                    dir + "/shard_bench_hash_stats", num_shards,
                    baseline_bytes, &hash)) {
    return 1;
  }
  // Phase 7 (parent, quick only): the same hash plan without a checkpoint,
  // merged from the lines held in memory, must give the same bytes.
  bool hash_matches_uncheckpointed = true;
  if (quick) {
    std::unique_ptr<ColumnProvider> hash_provider =
        bench::CheckOk(OpenColumnProvider(hash_sbc_path), "open hash provider");
    ShardedRunOptions plain;
    plain.materialize_result = false;
    plain.audit = false;
    ShardedRunResult in_memory = bench::CheckOk(
        RunShardedAnonymization(*hash_provider, BenchConfig(), plain),
        "uncheckpointed hash run");
    hash_matches_uncheckpointed =
        StrFormat("%016llx",
                  (unsigned long long)in_memory.release_fingerprint) ==
        hash.run["release_fp"];
    printf("without a checkpoint: release %016llx (%s)\n",
           (unsigned long long)in_memory.release_fingerprint,
           hash_matches_uncheckpointed ? "identical" : "MISMATCH");
  }

  JsonWriter w;
  w.BeginObject();
  w.Key("bench");
  w.String("shard");
  w.Key("mode");
  w.String(quick ? "quick" : "full");
  w.Key("num_records");
  w.Int(static_cast<int64_t>(num_records));
  w.Key("num_shards");
  w.Int(static_cast<int64_t>(num_shards));
  w.Key("content_fingerprint");
  w.String(StrFormat("%016llx", (unsigned long long)content_fp));
  w.Key("dataset_memory_bytes");
  w.Int(static_cast<int64_t>(baseline_bytes));
  w.Key("binary_file_bytes");
  w.Int(static_cast<int64_t>(file_bytes));
  w.Key("convert_seconds");
  w.Number(convert_seconds);
  w.Key("run_peak_rss_bytes");
  w.Int(static_cast<int64_t>(range.peak_rss));
  w.Key("run_rss_ratio");
  w.Number(range.rss_ratio);
  w.Key("anonymize_seconds");
  w.Number(std::strtod(run["anonymize_seconds"].c_str(), nullptr));
  w.Key("total_seconds");
  w.Number(std::strtod(run["total_seconds"].c_str(), nullptr));
  w.Key("weighted_gcp");
  w.Number(std::strtod(run["weighted_gcp"].c_str(), nullptr));
  w.Key("release_fingerprint");
  w.String(run["release_fp"]);
  w.Key("resume_byte_identical");
  w.Bool(range.resume_identical && audit_identical);
  w.Key("audit_k_anonymous");
  w.Bool(audited.audit.has_value() && audited.audit->k_anonymous);
  w.Key("audit_km_anonymous");
  w.Bool(audited.audit.has_value() && audited.audit->km_anonymous);
  w.Key("hash_run_peak_rss_bytes");
  w.Int(static_cast<int64_t>(hash.peak_rss));
  w.Key("hash_run_rss_ratio");
  w.Number(hash.rss_ratio);
  w.Key("hash_release_fingerprint");
  w.String(hash.run["release_fp"]);
  w.Key("hash_resume_byte_identical");
  w.Bool(hash.resume_identical);
  if (quick) {
    w.Key("hash_matches_uncheckpointed");
    w.Bool(hash_matches_uncheckpointed);
  }
  w.Key("rss_gate_enforced");
  w.Bool(!quick);
  w.EndObject();
  const std::string path = "BENCH_shard.json";
  bench::CheckOk(csv::WriteFile(path, w.TakeString()), "json");
  printf("wrote %s\n", path.c_str());

  if (!range.resume_identical || !audit_identical) {
    fprintf(stderr, "FAIL: resumed run is not byte-identical\n");
    return 1;
  }
  if (!audit_ok) {
    fprintf(stderr, "FAIL: merged release failed the anonymity audit\n");
    return 1;
  }
  if (!hash.resume_identical || !hash_matches_uncheckpointed) {
    fprintf(stderr, "FAIL: hash-plan release is not byte-identical\n");
    return 1;
  }
  for (const GatedRun* gated : {&range, &hash}) {
    if (!quick && gated->rss_ratio >= 0.5) {
      fprintf(stderr,
              "FAIL: gated peak RSS is %.1f%% of the in-memory footprint "
              "(required < 50%%)\n",
              100.0 * gated->rss_ratio);
      return 1;
    }
  }
  return 0;
}
