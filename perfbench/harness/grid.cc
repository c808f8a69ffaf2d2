// compare_grid: Comparison mode (paper Fig. 4). Five RT configurations swept
// over k in {2,4,6,8,10} through SecretaSession::Compare; one op is one grid
// cell. The configurations together cover all 4 relational algorithms, all 5
// transaction algorithms and all 3 mergers, so algorithms and ARE do almost
// all of the work: no socket, disk or scheduler is involved.

#include <algorithm>
#include <cstdio>
#include <map>
#include <thread>

#include "csv/csv.h"
#include "datagen/synthetic.h"
#include "frontend/session.h"
#include "harness/common.h"
#include "harness/subcommands.h"
#include "query/workload_generator.h"

namespace perfbench {
namespace {

using namespace secreta;

constexpr size_t kGridRecords = 5000;
constexpr size_t kGridQueries = 1000;

std::string RecordsPath(const std::string& dir) { return dir + "/records.csv"; }
std::string WorkloadPath(const std::string& dir) {
  return dir + "/workload.txt";
}

std::vector<AlgorithmConfig> GridConfigs() {
  struct Row {
    const char* relational;
    const char* transaction;
    MergerKind merger;
  };
  const Row rows[] = {{"Cluster", "Apriori", MergerKind::kRTmerger},
                      {"Incognito", "COAT", MergerKind::kRmerger},
                      {"TopDown", "PCTA", MergerKind::kTmerger},
                      {"BottomUp", "LRA", MergerKind::kRTmerger},
                      {"Cluster", "VPA", MergerKind::kTmerger}};
  std::vector<AlgorithmConfig> configs;
  for (const Row& row : rows) {
    AlgorithmConfig config;
    config.mode = AnonMode::kRt;
    config.relational_algorithm = row.relational;
    config.transaction_algorithm = row.transaction;
    config.merger = row.merger;
    config.params.m = 2;
    config.params.delta = 0.35;
    configs.push_back(config);
  }
  return configs;
}

const ParamSweep kSweep{"k", 2, 10, 2};

double Phase(const RunResult& run, const std::string& name) {
  for (const auto& [phase, seconds] : run.phases.phases()) {
    if (phase == name) return seconds;
  }
  return 0;
}

// Loads the generated inputs the way a user of the Dataset, Configuration
// and Queries editors would.
struct SetupTimes {
  double total_s = 0;
  double load_s = 0;       // LoadDatasetFile
  double hierarchy_s = 0;  // AutoGenerateHierarchies
};

SetupTimes Setup(SecretaSession* session, const std::string& dir,
                 Tracer* tracer) {
  SetupTimes times;
  const double start = Now();
  const int root = tracer->Begin("setup", "bench", -1);
  int span = tracer->Begin("LoadDatasetFile", "data", -1, root);
  Check(session->LoadDatasetFile(RecordsPath(dir)), "load dataset");
  tracer->End(span);
  const double loaded = Now();
  span = tracer->Begin("AutoGenerateHierarchies", "hierarchy", -1, root);
  Check(session->AutoGenerateHierarchies(), "hierarchies");
  tracer->End(span);
  const double built = Now();
  span = tracer->Begin("LoadWorkloadFile", "query", -1, root);
  Check(session->LoadWorkloadFile(WorkloadPath(dir)), "load workload");
  tracer->End(span);
  tracer->End(root);
  times.total_s = Now() - start;
  times.load_s = loaded - start;
  times.hierarchy_s = built - loaded;
  return times;
}

}  // namespace

int GridGen(const Flags& flags) {
  const std::string dir = flags.Str("dir");
  SyntheticOptions options;  // the bench_util dataset shape
  options.num_records = kGridRecords;
  options.seed = static_cast<uint64_t>(flags.Int("dataset-seed"));
  Dataset dataset = Check(GenerateRtDataset(options), "generate dataset");
  Check(csv::WriteFile(RecordsPath(dir), csv::WriteCsv(dataset.ToCsv())),
        "write records");
  WorkloadGenOptions wl;
  wl.num_queries = kGridQueries;
  wl.seed = static_cast<uint64_t>(flags.Int("seed"));
  Workload workload = Check(GenerateWorkload(dataset, wl), "workload");
  Check(workload.SaveFile(WorkloadPath(dir)), "save workload");
  Report report;
  report.Int("records", static_cast<int64_t>(dataset.num_records()));
  report.Int("queries", static_cast<int64_t>(workload.size()));
  report.Print();
  return 0;
}

int GridSetup(const Flags& flags) {
  Tracer tracer(false);
  SecretaSession session;
  Report report;
  report.Num("setup_s", Setup(&session, flags.Str("dir"), &tracer).total_s);
  report.Print();
  return 0;
}

int Grid(const Flags& flags) {
  const std::string dir = flags.Str("dir");
  const int64_t grids = flags.Int("ops");
  const bool trace = flags.Int("trace") != 0;
  Tracer tracer(trace);

  SecretaSession session;
  const SetupTimes setup = Setup(&session, dir, &tracer);
  const std::vector<AlgorithmConfig> configs = GridConfigs();
  const size_t workers = std::min<size_t>(
      configs.size(), std::max(1u, std::thread::hardware_concurrency()));
  const size_t cells_per_grid =
      configs.size() * Check(kSweep.Values(), "sweep").size();

  Report report;
  report.Num("setup_s", setup.total_s);
  if (trace) {
    report.Num("data.load_s", setup.load_s);
    report.Num("hierarchy.build_s", setup.hierarchy_s);
    // Compare binds the workload once per call, inside the comparator;
    // binding it here once more times that step on the grid's inputs.
    EngineInputs inputs = Check(session.PrepareInputs(configs[0]), "inputs");
    ScopedSpan span(&tracer, "EvalContext::Create", "query", -1);
    const double start = Now();
    Check(EvalContext::Create(inputs, session.workload_or_null()), "bind");
    report.Num("query.bind_s", Now() - start);
  }

  // Per-grid samples. In a traced run grids alternate traced / untraced, so
  // the run measures the tracer's own cost on interleaved grids.
  std::vector<double> grid_s, grid_steal, traced_grid_s, untraced_grid_s;
  std::map<std::string, double> phase_sums;  // traced grids only
  double occupancy_sum = 0;
  int64_t attempted = 0, failed = 0;
  std::string digest;
  bool digests_agree = true;
  const Usage usage_start = SelfUsage();
  for (int64_t op = 0; op < grids; ++op) {
    const bool traced = trace && op % 2 == 0;
    const HostTimes host_start = ReadHostTimes();
    const double grid_start = Now();
    const int root = traced ? tracer.Begin("Compare", "engine", op) : -1;
    double busy = 0;
    CompareOptions options;
    options.progress = [&](const ProgressEvent& event) {
      const EvaluationReport& cell = *event.report;
      busy += cell.run.runtime_seconds + cell.evaluation_seconds;
      if (!traced) return;
      // Place the cell's phases on the timeline, ending now: algorithm
      // phases in order, then evaluation (ARE first, the rest after).
      const double end = Now();
      double t = end - cell.run.runtime_seconds - cell.evaluation_seconds;
      const int span = tracer.Add(cell.run.config.Label(), "engine", t, end,
                                  op, root);
      for (const char* phase : {"relational", "transaction", "merging"}) {
        const double d = Phase(cell.run, phase);
        tracer.Add(phase, "algo", t, t + d, op, span);
        phase_sums[std::string("algo.") + phase + "_s"] += d;
        t += d;
      }
      t = end - cell.evaluation_seconds;
      const double are = Phase(cell.run, "are");
      tracer.Add("are", "query", t, t + are, op, span);
      tracer.Add("report", "metrics", t + are, end, op, span);
      phase_sums["query.are_s"] += are;
      phase_sums["metrics.report_s"] += cell.evaluation_seconds - are;
    };
    Result<std::vector<SweepResult>> results =
        session.Compare(configs, kSweep, options);
    const double wall = Now() - grid_start;
    tracer.End(root);

    attempted += static_cast<int64_t>(cells_per_grid);
    if (!results.ok()) {
      std::fprintf(stderr, "grid %lld: %s\n", static_cast<long long>(op),
                   results.status().ToString().c_str());
      failed += static_cast<int64_t>(cells_per_grid);
      break;
    }
    std::string cells;
    size_t produced = 0;
    for (size_t c = 0; c < results->size(); ++c) {
      for (const SweepPoint& point : (*results)[c].points) {
        ++produced;
        if (!point.report.guarantee_ok) ++failed;
        char line[160];
        std::snprintf(line, sizeof(line), "%zu %g %.17g %.17g %.17g\n", c,
                      point.value, point.report.are, point.report.gcp,
                      point.report.ul);
        cells += line;
      }
    }
    failed += static_cast<int64_t>(cells_per_grid) -
              static_cast<int64_t>(std::min(produced, cells_per_grid));
    const std::string grid_digest = Hex(Fnv1a(cells));
    if (digest.empty()) digest = grid_digest;
    digests_agree = digests_agree && grid_digest == digest;

    grid_s.push_back(wall);
    grid_steal.push_back(StealShare(host_start, ReadHostTimes()));
    (traced ? traced_grid_s : untraced_grid_s).push_back(wall);
    if (traced) occupancy_sum += busy / (wall * static_cast<double>(workers));
  }
  const Usage usage_end = SelfUsage();

  report.Int("attempted", attempted);
  report.Int("failed", failed);
  report.Str("digest", digest);
  report.Bool("digests_agree", digests_agree);
  report.Int("cells_per_grid", static_cast<int64_t>(cells_per_grid));
  report.Int("workers", static_cast<int64_t>(workers));
  report.Nums("op_s", grid_s);
  report.Nums("op_steal", grid_steal);
  report.Num("cpu_s", usage_end.cpu_s - usage_start.cpu_s);
  report.Int("involuntary_switches", usage_end.involuntary_switches -
                                         usage_start.involuntary_switches);
  report.Num("peak_rss_mb", usage_end.peak_rss_mb);
  if (trace) {
    const double traced_grids = static_cast<double>(traced_grid_s.size());
    for (const auto& [name, sum] : phase_sums) {
      report.Num(name, sum / traced_grids);
    }
    report.Num("engine.compare_occupancy", occupancy_sum / traced_grids);
    report.Nums("traced_op_s", traced_grid_s);
    report.Nums("untraced_op_s", untraced_grid_s);
    report.Map("self_s", tracer.SelfSecondsByLayer());
    tracer.WriteChromeTrace(flags.Str("trace-out"));
  }
  report.Print();
  return 0;
}

}  // namespace perfbench
