#include "frontend/cli.h"

#include <chrono>
#include <istream>
#include <ostream>
#include <thread>

#include "common/string_util.h"
#include "core/audit.h"
#include "data/column_provider.h"
#include "data/format.h"
#include "data/mmap_file.h"
#include "datagen/synthetic.h"
#include "engine/sharded_runner.h"
#include "engine/config_io.h"
#include "engine/registry.h"
#include "export/mapping_export.h"
#include "metrics/frequency.h"
#include "export/exporter.h"
#include "export/json_export.h"
#include "hierarchy/hierarchy_io.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "viz/ascii_plot.h"

namespace secreta {

namespace {

Status Arity(const std::vector<std::string>& args, size_t min_args,
             size_t max_args = SIZE_MAX) {
  size_t given = args.size() - 1;  // exclude the command itself
  if (given < min_args || given > max_args) {
    return Status::InvalidArgument(
        StrFormat("'%s' expects %zu%s argument(s), got %zu", args[0].c_str(),
                  min_args, max_args == min_args ? "" : "+", given));
  }
  return Status::OK();
}

}  // namespace

std::string CommandLineInterface::HelpText() {
  return
      "dataset:   generate <n> [seed] | load <path> | save <path> | info |\n"
      "           hist <attr> | set-cell <row> <attr> <value...> |\n"
      "           rename-attr <old> <new> | del-row <row> |\n"
      "           convert <in> <out> [shards=N] [by=range|hash] [salt=S]\n"
      "config:    hierarchies auto [fanout] | hierarchy load <attr> <path> |\n"
      "           hierarchy save <attr> <path> | hierarchy show <attr> |\n"
      "           policies auto | policy load-privacy <path> |\n"
      "           policy load-utility <path>\n"
      "queries:   workload gen <n> | workload load <path> | workload save "
      "<path>\n"
      "method:    mode rt|relational|transaction | algo rel <name> |\n"
      "           algo txn <name> | merger <name> | param <name> <value> |\n"
      "           config [key=value ...] | algorithms\n"
      "evaluate:  run | sweep <param> <start> <end> <step> "
      "[checkpoint=PATH] |\n"
      "           audit <k> <m> [global] | classes\n"
      "sharded:   shard-run [shards=N] [by=range|hash] [salt=S]\n"
      "                     [input=PATH] [checkpoint=PATH] [output=PATH]\n"
      "                     [no-materialize] [no-audit]\n"
      "compare:   add-config | configs |\n"
      "           compare <param> <start> <end> <step> [checkpoint=PATH]\n"
      "export:    save-output <path> | export-json <path> |\n"
      "           save-mapping <path>\n"
      "service:   submit [prio=P] [timeout=S] [retries=N] [backoff=S]\n"
      "                  [key=value ...] | jobs |\n"
      "           job <id> | cancel <id> | wait [<id>] |\n"
      "           metrics [text | --watch <seconds> [iterations]]\n"
      "observe:   trace on | trace off | trace save <path>\n"
      "misc:      demo | help | quit\n";
}

Status CommandLineInterface::Execute(const std::string& line) {
  std::string trimmed(Trim(line));
  if (trimmed.empty() || trimmed[0] == '#') return Status::OK();
  return Dispatch(SplitWhitespace(trimmed));
}

size_t CommandLineInterface::RunScript(std::istream& in, bool stop_on_error) {
  size_t failures = 0;
  std::string line;
  while (!done_ && std::getline(in, line)) {
    Status status = Execute(line);
    if (!status.ok()) {
      ++failures;
      *out_ << "error: " << status.ToString() << "\n";
      if (stop_on_error) break;
    }
  }
  return failures;
}

Status CommandLineInterface::RequireDataset() const {
  if (!session_.has_dataset()) {
    return Status::FailedPrecondition("no dataset loaded (use load/generate)");
  }
  return Status::OK();
}

Status CommandLineInterface::RequireNoLiveJobs() const {
  if (scheduler_ != nullptr &&
      scheduler_->num_queued() + scheduler_->num_running() > 0) {
    return Status::FailedPrecondition(
        "jobs are in flight and hold pointers into the session; 'wait' for "
        "them or 'cancel' them first");
  }
  return Status::OK();
}

Status CommandLineInterface::Dispatch(const std::vector<std::string>& args) {
  const std::string& cmd = args[0];
  // These commands rebuild or mutate the session state that in-flight jobs
  // point into; refuse them while jobs are live.
  for (const char* mutating :
       {"generate", "load", "set-cell", "rename-attr", "del-row",
        "hierarchies", "hierarchy", "policies", "policy", "workload", "run",
        "sweep", "compare"}) {
    if (cmd == mutating) {
      SECRETA_RETURN_IF_ERROR(RequireNoLiveJobs());
      break;
    }
  }
  if (cmd == "help") {
    *out_ << HelpText();
    return Status::OK();
  }
  if (cmd == "quit" || cmd == "exit") {
    done_ = true;
    return Status::OK();
  }
  if (cmd == "demo") {
    // The paper's Sec. 3 walkthrough as one command: data, configuration,
    // queries, one evaluation, one sweep.
    for (const char* step :
         {"generate 800 2014", "hierarchies auto", "workload gen 40",
          "config mode=rt rel=Cluster txn=Apriori merger=RTmerger k=5 m=2 "
          "delta=0.35",
          "run", "classes", "sweep delta 0.15 0.55 0.2"}) {
      *out_ << "demo> " << step << "\n";
      SECRETA_RETURN_IF_ERROR(Execute(step));
    }
    return Status::OK();
  }
  if (cmd == "generate") return CmdGenerate(args);
  if (cmd == "load") {
    SECRETA_RETURN_IF_ERROR(Arity(args, 1, 1));
    SECRETA_RETURN_IF_ERROR(session_.LoadDatasetFile(args[1]));
    *out_ << "loaded " << session_.dataset().num_records() << " records\n";
    return Status::OK();
  }
  if (cmd == "save") {
    SECRETA_RETURN_IF_ERROR(Arity(args, 1, 1));
    SECRETA_RETURN_IF_ERROR(RequireDataset());
    return session_.editor().Save(args[1]);
  }
  if (cmd == "info") {
    SECRETA_RETURN_IF_ERROR(RequireDataset());
    const Dataset& ds = session_.dataset();
    *out_ << ds.num_records() << " records, "
          << ds.schema().num_attributes() << " attributes\n";
    for (const auto& spec : ds.schema().attributes()) {
      *out_ << "  " << spec.name << " (" << AttributeTypeToString(spec.type)
            << ", " << AttributeRoleToString(spec.role) << ")\n";
    }
    if (ds.has_transaction()) {
      *out_ << "  item domain: " << ds.item_dictionary().size() << " items\n";
    }
    return Status::OK();
  }
  if (cmd == "hist") {
    SECRETA_RETURN_IF_ERROR(Arity(args, 1, 1));
    SECRETA_RETURN_IF_ERROR(RequireDataset());
    SECRETA_ASSIGN_OR_RETURN(std::string text,
                             session_.editor().HistogramText(args[1]));
    *out_ << text;
    return Status::OK();
  }
  if (cmd == "set-cell") {
    SECRETA_RETURN_IF_ERROR(Arity(args, 3));
    SECRETA_RETURN_IF_ERROR(RequireDataset());
    SECRETA_ASSIGN_OR_RETURN(int64_t row, ParseInt(args[1]));
    std::vector<std::string> value_parts(args.begin() + 3, args.end());
    return session_.editor().SetCell(static_cast<size_t>(row), args[2],
                                     Join(value_parts, " "));
  }
  if (cmd == "rename-attr") {
    SECRETA_RETURN_IF_ERROR(Arity(args, 2, 2));
    SECRETA_RETURN_IF_ERROR(RequireDataset());
    return session_.editor().RenameAttribute(args[1], args[2]);
  }
  if (cmd == "del-row") {
    SECRETA_RETURN_IF_ERROR(Arity(args, 1, 1));
    SECRETA_RETURN_IF_ERROR(RequireDataset());
    SECRETA_ASSIGN_OR_RETURN(int64_t row, ParseInt(args[1]));
    return session_.editor().DeleteRow(static_cast<size_t>(row));
  }
  if (cmd == "hierarchies" || cmd == "hierarchy") return CmdHierarchy(args);
  if (cmd == "policies" || cmd == "policy") return CmdPolicy(args);
  if (cmd == "workload") return CmdWorkload(args);
  if (cmd == "mode") {
    SECRETA_RETURN_IF_ERROR(Arity(args, 1, 1));
    if (args[1] == "rt") {
      current_.mode = AnonMode::kRt;
    } else if (args[1] == "relational") {
      current_.mode = AnonMode::kRelational;
    } else if (args[1] == "transaction") {
      current_.mode = AnonMode::kTransaction;
    } else {
      return Status::InvalidArgument("unknown mode: " + args[1]);
    }
    return Status::OK();
  }
  if (cmd == "algo") {
    SECRETA_RETURN_IF_ERROR(Arity(args, 2, 2));
    if (args[1] == "rel") {
      SECRETA_RETURN_IF_ERROR(MakeRelationalAnonymizer(args[2]).status());
      current_.relational_algorithm = args[2];
    } else if (args[1] == "txn") {
      SECRETA_RETURN_IF_ERROR(MakeTransactionAnonymizer(args[2]).status());
      current_.transaction_algorithm = args[2];
    } else {
      return Status::InvalidArgument("usage: algo rel|txn <name>");
    }
    return Status::OK();
  }
  if (cmd == "merger") {
    SECRETA_RETURN_IF_ERROR(Arity(args, 1, 1));
    SECRETA_ASSIGN_OR_RETURN(current_.merger, ParseMergerKind(args[1]));
    return Status::OK();
  }
  if (cmd == "param") {
    SECRETA_RETURN_IF_ERROR(Arity(args, 2, 2));
    SECRETA_ASSIGN_OR_RETURN(double value, ParseDouble(args[2]));
    SECRETA_RETURN_IF_ERROR(current_.params.Set(args[1], value));
    return current_.params.Validate();
  }
  if (cmd == "config") {
    if (args.size() == 1) {
      *out_ << FormatAlgorithmConfig(current_) << "\n";
      return Status::OK();
    }
    std::vector<std::string> spec_parts(args.begin() + 1, args.end());
    SECRETA_ASSIGN_OR_RETURN(current_,
                             ParseAlgorithmConfig(Join(spec_parts, " ")));
    *out_ << "config: " << current_.Label() << "\n";
    return Status::OK();
  }
  if (cmd == "classes") {
    if (!last_report_.has_value() ||
        !last_report_->run.relational.has_value()) {
      return Status::FailedPrecondition(
          "no relational run to analyze: run a method first");
    }
    EquivalenceClasses classes =
        GroupByRecoding(*last_report_->run.relational);
    PlotOptions options;
    options.title = StrFormat("equivalence-class sizes (%zu classes)",
                              classes.num_groups());
    *out_ << RenderHistogram(ClassSizeHistogram(classes), options);
    return Status::OK();
  }
  if (cmd == "algorithms") {
    *out_ << "relational:";
    for (const auto& name : RelationalAlgorithmNames()) *out_ << " " << name;
    *out_ << "\ntransaction:";
    for (const auto& name : TransactionAlgorithmNames()) *out_ << " " << name;
    *out_ << "\nbounding:";
    for (const auto& name : MergerNames()) *out_ << " " << name;
    *out_ << "\n";
    return Status::OK();
  }
  if (cmd == "audit") {
    SECRETA_RETURN_IF_ERROR(Arity(args, 2, 3));
    if (!last_report_.has_value()) {
      return Status::FailedPrecondition("nothing to audit: run a method first");
    }
    SECRETA_ASSIGN_OR_RETURN(int64_t k, ParseInt(args[1]));
    SECRETA_ASSIGN_OR_RETURN(int64_t m, ParseInt(args[2]));
    bool per_class = args.size() <= 3 || args[3] != "global";
    SECRETA_ASSIGN_OR_RETURN(Dataset anonymized,
                             session_.Materialize(*last_report_));
    SECRETA_ASSIGN_OR_RETURN(
        AuditReport audit,
        AuditAnonymizedDataset(anonymized, static_cast<int>(k),
                               static_cast<int>(m), per_class));
    *out_ << "audit: k-anonymity " << (audit.k_anonymous ? "OK" : "VIOLATED")
          << ", k^m " << (audit.km_anonymous ? "OK" : "VIOLATED")
          << " (min class " << audit.min_class_size << ") — " << audit.details
          << "\n";
    return Status::OK();
  }
  if (cmd == "run") return CmdRun();
  if (cmd == "convert") return CmdConvert(args);
  if (cmd == "shard-run") return CmdShardRun(args);
  if (cmd == "sweep") return CmdSweep(args);
  if (cmd == "add-config") {
    queued_.push_back(current_);
    *out_ << "queued config " << queued_.size() << ": " << current_.Label()
          << "\n";
    return Status::OK();
  }
  if (cmd == "configs") {
    for (size_t i = 0; i < queued_.size(); ++i) {
      *out_ << "  [" << i + 1 << "] " << queued_[i].Label() << "\n";
    }
    if (queued_.empty()) *out_ << "  (none)\n";
    return Status::OK();
  }
  if (cmd == "compare") return CmdCompare(args);
  if (cmd == "save-output") {
    SECRETA_RETURN_IF_ERROR(Arity(args, 1, 1));
    if (!last_report_.has_value()) {
      return Status::FailedPrecondition("nothing to save: run a method first");
    }
    SECRETA_ASSIGN_OR_RETURN(Dataset anonymized,
                             session_.Materialize(*last_report_));
    SECRETA_RETURN_IF_ERROR(ExportDataset(anonymized, args[1]));
    *out_ << "anonymized dataset written to " << args[1] << "\n";
    return Status::OK();
  }
  if (cmd == "save-mapping") {
    SECRETA_RETURN_IF_ERROR(Arity(args, 1, 1));
    if (!last_report_.has_value()) {
      return Status::FailedPrecondition("nothing to export: run a method first");
    }
    SECRETA_ASSIGN_OR_RETURN(std::vector<MappingEntry> entries,
                             session_.CollectMappings(*last_report_));
    SECRETA_RETURN_IF_ERROR(ExportMapping(entries, args[1]));
    *out_ << entries.size() << " mapping rows written to " << args[1] << "\n";
    return Status::OK();
  }
  if (cmd == "export-json") {
    SECRETA_RETURN_IF_ERROR(Arity(args, 1, 1));
    std::string json;
    if (!last_comparison_.empty()) {
      json = ComparisonToJson(last_comparison_);
    } else if (last_sweep_.has_value()) {
      json = SweepResultToJson(*last_sweep_);
    } else if (last_report_.has_value()) {
      json = EvaluationReportToJson(*last_report_);
    } else {
      return Status::FailedPrecondition("nothing to export: run a method first");
    }
    SECRETA_RETURN_IF_ERROR(WriteJsonFile(json, args[1]));
    *out_ << "results written to " << args[1] << "\n";
    return Status::OK();
  }
  if (cmd == "submit") return CmdSubmit(args);
  if (cmd == "jobs") {
    if (scheduler_ == nullptr) {
      *out_ << "  (no jobs submitted)\n";
      return Status::OK();
    }
    for (const JobInfo& info : scheduler_->ListJobs()) PrintJobLine(info);
    return Status::OK();
  }
  if (cmd == "job") return CmdJob(args);
  if (cmd == "cancel") {
    SECRETA_RETURN_IF_ERROR(Arity(args, 1, 1));
    if (scheduler_ == nullptr) {
      return Status::FailedPrecondition("no jobs submitted yet");
    }
    SECRETA_ASSIGN_OR_RETURN(int64_t id, ParseInt(args[1]));
    SECRETA_RETURN_IF_ERROR(scheduler_->CancelJob(static_cast<uint64_t>(id)));
    *out_ << "cancellation requested for job " << id << "\n";
    return Status::OK();
  }
  if (cmd == "wait") return CmdWaitJobs(args);
  if (cmd == "metrics") return CmdMetrics(args);
  if (cmd == "trace") return CmdTrace(args);
  return Status::NotFound("unknown command: " + cmd + " (try 'help')");
}

Status CommandLineInterface::CmdGenerate(const std::vector<std::string>& args) {
  SECRETA_RETURN_IF_ERROR(Arity(args, 1, 2));
  SECRETA_ASSIGN_OR_RETURN(int64_t n, ParseInt(args[1]));
  if (n <= 0) return Status::InvalidArgument("n must be positive");
  SyntheticOptions options;
  options.num_records = static_cast<size_t>(n);
  if (args.size() > 2) {
    SECRETA_ASSIGN_OR_RETURN(int64_t seed, ParseInt(args[2]));
    options.seed = static_cast<uint64_t>(seed);
  }
  SECRETA_ASSIGN_OR_RETURN(Dataset dataset, GenerateRtDataset(options));
  SECRETA_RETURN_IF_ERROR(session_.SetDataset(std::move(dataset)));
  *out_ << "generated " << session_.dataset().num_records() << " records\n";
  return Status::OK();
}

Status CommandLineInterface::CmdHierarchy(const std::vector<std::string>& args) {
  SECRETA_RETURN_IF_ERROR(RequireDataset());
  if (args[0] == "hierarchies") {
    SECRETA_RETURN_IF_ERROR(Arity(args, 1, 2));
    if (args[1] != "auto") {
      return Status::InvalidArgument("usage: hierarchies auto [fanout]");
    }
    HierarchyBuildOptions options;
    if (args.size() > 2) {
      SECRETA_ASSIGN_OR_RETURN(int64_t fanout, ParseInt(args[2]));
      options.fanout = static_cast<size_t>(fanout);
    }
    SECRETA_RETURN_IF_ERROR(session_.AutoGenerateHierarchies(options));
    *out_ << "hierarchies ready\n";
    return Status::OK();
  }
  if (args.size() >= 3 && args[1] == "show") {
    SECRETA_RETURN_IF_ERROR(Arity(args, 2, 2));
    SECRETA_ASSIGN_OR_RETURN(const Hierarchy* h, session_.HierarchyOf(args[2]));
    *out_ << RenderHierarchyTree(*h);
    return Status::OK();
  }
  SECRETA_RETURN_IF_ERROR(Arity(args, 3, 3));
  if (args[1] == "load") {
    return session_.LoadHierarchyFile(args[2], args[3]);
  }
  if (args[1] == "save") {
    SECRETA_ASSIGN_OR_RETURN(const Hierarchy* h, session_.HierarchyOf(args[2]));
    return SaveHierarchyFile(*h, args[3]);
  }
  return Status::InvalidArgument(
      "usage: hierarchy load|save <attr> <path> | hierarchy show <attr>");
}

Status CommandLineInterface::CmdPolicy(const std::vector<std::string>& args) {
  SECRETA_RETURN_IF_ERROR(RequireDataset());
  if (args[0] == "policies") {
    SECRETA_RETURN_IF_ERROR(Arity(args, 1, 1));
    if (args[1] != "auto") {
      return Status::InvalidArgument("usage: policies auto");
    }
    PrivacyGenOptions pg;
    pg.strategy = PrivacyStrategy::kFrequentItems;
    UtilityGenOptions ug;
    ug.strategy = UtilityStrategy::kFrequencyBands;
    SECRETA_RETURN_IF_ERROR(session_.GeneratePolicies(pg, ug));
    *out_ << session_.privacy_policy().size() << " privacy constraints, "
          << session_.utility_policy().constraints.size()
          << " utility constraints\n";
    return Status::OK();
  }
  SECRETA_RETURN_IF_ERROR(Arity(args, 2, 2));
  if (args[1] == "load-privacy") return session_.LoadPrivacyPolicyFile(args[2]);
  if (args[1] == "load-utility") return session_.LoadUtilityPolicyFile(args[2]);
  return Status::InvalidArgument("usage: policy load-privacy|load-utility <path>");
}

Status CommandLineInterface::CmdWorkload(const std::vector<std::string>& args) {
  SECRETA_RETURN_IF_ERROR(RequireDataset());
  SECRETA_RETURN_IF_ERROR(Arity(args, 2, 2));
  if (args[1] == "gen") {
    SECRETA_ASSIGN_OR_RETURN(int64_t n, ParseInt(args[2]));
    WorkloadGenOptions options;
    options.num_queries = static_cast<size_t>(n);
    SECRETA_RETURN_IF_ERROR(session_.GenerateQueryWorkload(options));
    *out_ << session_.workload().size() << " queries\n";
    return Status::OK();
  }
  if (args[1] == "load") return session_.LoadWorkloadFile(args[2]);
  if (args[1] == "save") return session_.workload().SaveFile(args[2]);
  return Status::InvalidArgument("usage: workload gen|load|save <arg>");
}

void CommandLineInterface::PrintReport(const EvaluationReport& report) {
  *out_ << "== " << report.run.config.Label() << " ==\n"
        << "guarantee " << report.guarantee_name << ": "
        << (report.guarantee_checked ? (report.guarantee_ok ? "OK" : "VIOLATED")
                                     : "(not checked)")
        << "\n"
        << StrFormat("GCP %.4f | UL %.4f | ARE %.4f | runtime %.3fs\n",
                     report.gcp, report.ul, report.are,
                     report.run.runtime_seconds)
        << StrFormat("evaluation %.3fs", report.evaluation_seconds);
  if (report.queries_per_second > 0) {
    *out_ << StrFormat(" | %.0f queries/s", report.queries_per_second);
  }
  *out_ << "\n";
  if (report.degraded) {
    *out_ << "DEGRADED: " << report.degraded_detail << "\n";
  }
  for (const auto& [phase, seconds] : report.run.phases.phases()) {
    *out_ << StrFormat("  %-12s %.3fs\n", phase.c_str(), seconds);
  }
}

Status CommandLineInterface::CmdConvert(const std::vector<std::string>& args) {
  SECRETA_RETURN_IF_ERROR(Arity(args, 2, 5));
  BinaryWriteOptions options;
  for (size_t i = 3; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg.rfind("shards=", 0) == 0) {
      SECRETA_ASSIGN_OR_RETURN(int64_t shards, ParseInt(arg.substr(7)));
      if (shards < 1) return Status::InvalidArgument("shards must be >= 1");
      options.num_shards = static_cast<size_t>(shards);
    } else if (arg.rfind("by=", 0) == 0) {
      SECRETA_ASSIGN_OR_RETURN(options.shard_kind,
                               ParseShardKind(arg.substr(3)));
    } else if (arg.rfind("salt=", 0) == 0) {
      SECRETA_ASSIGN_OR_RETURN(int64_t salt, ParseInt(arg.substr(5)));
      options.salt = static_cast<uint64_t>(salt);
    } else {
      return Status::InvalidArgument("unknown convert option: " + arg);
    }
  }
  // Any readable backend converts: CSV (the common case) or an existing
  // SBC1 file being re-partitioned.
  SECRETA_ASSIGN_OR_RETURN(std::unique_ptr<ColumnProvider> provider,
                           OpenColumnProvider(args[1]));
  SECRETA_ASSIGN_OR_RETURN(Dataset dataset, provider->Materialize());
  SECRETA_RETURN_IF_ERROR(WriteBinaryDataset(dataset, args[2], options));
  SECRETA_ASSIGN_OR_RETURN(size_t bytes, MmapFile::FileSize(args[2]));
  *out_ << "converted " << dataset.num_records() << " records ("
        << DataSourceName(provider->source()) << ") to " << args[2] << ": "
        << options.num_shards << " " << ShardKindName(options.shard_kind)
        << " shard(s), " << bytes << " bytes\n";
  return Status::OK();
}

Status CommandLineInterface::CmdShardRun(const std::vector<std::string>& args) {
  ShardedRunOptions options;
  options.memory = session_.memory_budget();
  std::string input_path;
  for (size_t i = 1; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg.rfind("shards=", 0) == 0) {
      SECRETA_ASSIGN_OR_RETURN(int64_t shards, ParseInt(arg.substr(7)));
      if (shards < 1) return Status::InvalidArgument("shards must be >= 1");
      options.num_shards = static_cast<size_t>(shards);
    } else if (arg.rfind("by=", 0) == 0) {
      SECRETA_ASSIGN_OR_RETURN(options.shard_kind,
                               ParseShardKind(arg.substr(3)));
    } else if (arg.rfind("salt=", 0) == 0) {
      SECRETA_ASSIGN_OR_RETURN(int64_t salt, ParseInt(arg.substr(5)));
      options.salt = static_cast<uint64_t>(salt);
    } else if (arg.rfind("input=", 0) == 0) {
      input_path = arg.substr(6);
    } else if (arg.rfind("checkpoint=", 0) == 0) {
      options.checkpoint_path = arg.substr(11);
    } else if (arg.rfind("output=", 0) == 0) {
      options.output_path = arg.substr(7);
    } else if (arg == "no-materialize") {
      options.materialize_result = false;
      options.audit = false;  // auditing needs the materialized release
    } else if (arg == "no-audit") {
      options.audit = false;
    } else {
      return Status::InvalidArgument("unknown shard-run option: " + arg);
    }
  }
  std::unique_ptr<ColumnProvider> provider;
  if (!input_path.empty()) {
    // Straight from the file: with an SBC1 input the whole dataset is never
    // resident — each shard is one mmap window.
    SECRETA_ASSIGN_OR_RETURN(provider, OpenColumnProvider(input_path));
  } else {
    SECRETA_RETURN_IF_ERROR(RequireDataset());
    provider = MakeMemoryProvider(session_.dataset());
  }
  SECRETA_ASSIGN_OR_RETURN(ShardedRunResult result,
                           RunShardedAnonymization(*provider, current_, options));
  *out_ << "shard-run " << current_.Label() << ": "
        << result.plan.num_shards() << " "
        << ShardKindName(result.plan.kind()) << " shard(s), "
        << result.num_records << " records\n";
  for (const ShardRunStats& stats : result.shards) {
    *out_ << StrFormat("  shard %zu: %zu rows, gcp %.4f, %.3fs%s\n",
                       stats.shard, stats.rows, stats.gcp, stats.seconds,
                       stats.resumed ? " (checkpoint)" : "");
  }
  *out_ << StrFormat(
      "weighted GCP %.4f | anonymize %.3fs | total %.3fs | release %016llx\n",
      result.weighted_gcp, result.anonymize_seconds, result.total_seconds,
      static_cast<unsigned long long>(result.release_fingerprint));
  if (result.audit.has_value()) {
    *out_ << "merged audit: k-anonymity "
          << (result.audit->k_anonymous ? "OK" : "VIOLATED") << ", k^m "
          << (result.audit->km_anonymous ? "OK" : "VIOLATED")
          << " (min class " << result.audit->min_class_size << ") — "
          << result.audit->details << "\n";
  }
  if (!options.output_path.empty()) {
    *out_ << "release written to " << options.output_path << "\n";
  }
  return Status::OK();
}

Status CommandLineInterface::CmdRun() {
  SECRETA_RETURN_IF_ERROR(RequireDataset());
  SECRETA_ASSIGN_OR_RETURN(EvaluationReport report, session_.Evaluate(current_));
  PrintReport(report);
  last_report_ = std::move(report);
  last_sweep_.reset();
  last_comparison_.clear();
  return Status::OK();
}

Status CommandLineInterface::CmdSweep(const std::vector<std::string>& args) {
  SECRETA_RETURN_IF_ERROR(Arity(args, 4, 5));
  SECRETA_RETURN_IF_ERROR(RequireDataset());
  ParamSweep sweep;
  sweep.parameter = args[1];
  SECRETA_ASSIGN_OR_RETURN(sweep.start, ParseDouble(args[2]));
  SECRETA_ASSIGN_OR_RETURN(sweep.end, ParseDouble(args[3]));
  SECRETA_ASSIGN_OR_RETURN(sweep.step, ParseDouble(args[4]));
  std::string checkpoint_path;
  if (args.size() > 5) {
    if (args[5].rfind("checkpoint=", 0) != 0) {
      return Status::InvalidArgument(
          "usage: sweep <param> <start> <end> <step> [checkpoint=PATH]");
    }
    checkpoint_path = args[5].substr(11);
  }
  ProgressCallback progress = [this](const ProgressEvent& event) {
    *out_ << StrFormat("  [%zu/%zu] %s=%g done (%.3fs)%s\n",
                       event.point_index + 1, event.total_points,
                       "point", event.value,
                       event.report->run.runtime_seconds,
                       event.from_checkpoint ? " (checkpoint)" : "");
  };
  SECRETA_ASSIGN_OR_RETURN(
      SweepResult result,
      session_.EvaluateSweep(current_, sweep, progress, checkpoint_path));
  std::vector<Series> series;
  for (const char* metric : {"are", "gcp", "ul"}) {
    SECRETA_ASSIGN_OR_RETURN(Series s, result.Extract(metric));
    s.name = metric;
    series.push_back(std::move(s));
  }
  PlotOptions options;
  options.title = current_.Label() + " vs " + sweep.parameter;
  *out_ << RenderLineChart(series, options);
  last_sweep_ = std::move(result);
  last_comparison_.clear();
  return Status::OK();
}

Status CommandLineInterface::CmdCompare(const std::vector<std::string>& args) {
  SECRETA_RETURN_IF_ERROR(Arity(args, 4, 5));
  SECRETA_RETURN_IF_ERROR(RequireDataset());
  if (queued_.empty()) {
    return Status::FailedPrecondition(
        "no configurations queued (use add-config)");
  }
  ParamSweep sweep;
  sweep.parameter = args[1];
  SECRETA_ASSIGN_OR_RETURN(sweep.start, ParseDouble(args[2]));
  SECRETA_ASSIGN_OR_RETURN(sweep.end, ParseDouble(args[3]));
  SECRETA_ASSIGN_OR_RETURN(sweep.step, ParseDouble(args[4]));
  CompareOptions compare_options;
  if (args.size() > 5) {
    if (args[5].rfind("checkpoint=", 0) != 0) {
      return Status::InvalidArgument(
          "usage: compare <param> <start> <end> <step> [checkpoint=PATH]");
    }
    compare_options.checkpoint_path = args[5].substr(11);
  }
  compare_options.progress = [this](const ProgressEvent& event) {
    *out_ << StrFormat("  config %zu: [%zu/%zu] value %g done%s\n",
                       event.config_index + 1, event.point_index + 1,
                       event.total_points, event.value,
                       event.from_checkpoint ? " (checkpoint)" : "");
  };
  SECRETA_ASSIGN_OR_RETURN(std::vector<SweepResult> results,
                           session_.Compare(queued_, sweep, compare_options));
  for (const char* metric : {"are", "runtime"}) {
    std::vector<Series> series;
    for (const auto& result : results) {
      SECRETA_ASSIGN_OR_RETURN(Series s, result.Extract(metric));
      s.name = result.base.Label();
      series.push_back(std::move(s));
    }
    PlotOptions options;
    options.title = std::string(metric) + " vs " + sweep.parameter;
    *out_ << RenderLineChart(series, options);
  }
  last_comparison_ = std::move(results);
  last_sweep_.reset();
  return Status::OK();
}

void CommandLineInterface::PrintJobLine(const JobInfo& info) {
  *out_ << StrFormat("  [%llu] %-9s prio=%d%s queue=%.3fs run=%.3fs %s",
                     static_cast<unsigned long long>(info.id),
                     JobStateToString(info.state), info.priority,
                     info.from_cache ? " (cache)" : "", info.queue_seconds,
                     info.run_seconds, info.label.c_str());
  if (info.attempts > 1) *out_ << StrFormat(" attempts=%d", info.attempts);
  if (!info.status.ok()) *out_ << " — " << info.status.ToString();
  *out_ << "\n";
}

Status CommandLineInterface::CmdSubmit(const std::vector<std::string>& args) {
  SECRETA_RETURN_IF_ERROR(RequireDataset());
  JobOptions options;
  std::vector<std::string> spec_parts;
  for (size_t i = 1; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg.rfind("prio=", 0) == 0) {
      SECRETA_ASSIGN_OR_RETURN(int64_t priority, ParseInt(arg.substr(5)));
      options.priority = static_cast<int>(priority);
    } else if (arg.rfind("timeout=", 0) == 0) {
      SECRETA_ASSIGN_OR_RETURN(options.timeout_seconds,
                               ParseDouble(arg.substr(8)));
    } else if (arg.rfind("retries=", 0) == 0) {
      SECRETA_ASSIGN_OR_RETURN(int64_t retries, ParseInt(arg.substr(8)));
      options.max_retries = static_cast<int>(retries);
    } else if (arg.rfind("backoff=", 0) == 0) {
      SECRETA_ASSIGN_OR_RETURN(options.retry_initial_backoff_seconds,
                               ParseDouble(arg.substr(8)));
    } else {
      spec_parts.push_back(arg);
    }
  }
  AlgorithmConfig config = current_;
  if (!spec_parts.empty()) {
    SECRETA_ASSIGN_OR_RETURN(config,
                             ParseAlgorithmConfig(Join(spec_parts, " ")));
  }
  SECRETA_ASSIGN_OR_RETURN(EngineInputs inputs, session_.PrepareInputs(config));
  if (scheduler_ == nullptr) {
    scheduler_ = std::make_unique<JobScheduler>();
  }
  SECRETA_ASSIGN_OR_RETURN(
      uint64_t id, scheduler_->Submit(inputs, config,
                                      session_.workload_or_null(), options));
  SECRETA_ASSIGN_OR_RETURN(JobInfo info, scheduler_->GetJob(id));
  *out_ << "job " << id << " " << JobStateToString(info.state)
        << (info.from_cache ? " (cache hit)" : "") << ": " << info.label
        << "\n";
  return Status::OK();
}

Status CommandLineInterface::CmdMetrics(const std::vector<std::string>& args) {
  SECRETA_RETURN_IF_ERROR(Arity(args, 0, 3));
  if (args.size() > 1 && args[1] == "text") {
    *out_ << MetricsRegistry::Global().ToText();
    return Status::OK();
  }
  if (args.size() > 1 && args[1] == "--watch") {
    // metrics --watch <seconds> [iterations]: print per-interval deltas and
    // rates instead of absolute values — the live view of a long sweep or a
    // busy job scheduler.
    double interval = 2.0;
    int64_t iterations = 1;
    if (args.size() > 2) {
      SECRETA_ASSIGN_OR_RETURN(interval, ParseDouble(args[2]));
    }
    if (args.size() > 3) {
      SECRETA_ASSIGN_OR_RETURN(iterations, ParseInt(args[3]));
    }
    if (interval <= 0) {
      return Status::InvalidArgument("watch interval must be positive");
    }
    if (iterations < 1) {
      return Status::InvalidArgument("watch iterations must be >= 1");
    }
    MetricsSnapshot prev = MetricsRegistry::Global().Snapshot();
    for (int64_t round = 0; round < iterations; ++round) {
      std::this_thread::sleep_for(std::chrono::duration<double>(interval));
      MetricsSnapshot now = MetricsRegistry::Global().Snapshot();
      *out_ << StrFormat("-- watch %lld/%lld (%.1fs) --\n",
                         static_cast<long long>(round + 1),
                         static_cast<long long>(iterations), interval)
            << MetricsSnapshotDeltaToText(prev, now, interval);
      prev = std::move(now);
    }
    return Status::OK();
  }
  if (args.size() > 1) {
    return Status::InvalidArgument(
        "usage: metrics [text | --watch <seconds> [iterations]]");
  }
  // One JSON object: the process-wide registry (pools, engine, caches) plus
  // the job service's private metrics when a scheduler exists.
  *out_ << "{\"registry\":"
        << MetricsSnapshotToJson(MetricsRegistry::Global().Snapshot())
        << ",\"service\":";
  if (scheduler_ != nullptr) {
    *out_ << ServiceMetricsToJson(scheduler_->MetricsSnapshot());
  } else {
    *out_ << "null";
  }
  *out_ << "}\n";
  return Status::OK();
}

Status CommandLineInterface::CmdTrace(const std::vector<std::string>& args) {
  SECRETA_RETURN_IF_ERROR(Arity(args, 1, 2));
  if (args[1] == "on") {
    Tracer::Get().Enable();
    *out_ << "tracing enabled\n";
    return Status::OK();
  }
  if (args[1] == "off") {
    Tracer::Get().Disable();
    *out_ << "tracing disabled\n";
    return Status::OK();
  }
  if (args[1] == "save") {
    SECRETA_RETURN_IF_ERROR(Arity(args, 2, 2));
    SECRETA_RETURN_IF_ERROR(Tracer::Get().WriteChromeTrace(args[2]));
    *out_ << Tracer::Get().num_events() << " spans written to " << args[2]
          << " (open in chrome://tracing or ui.perfetto.dev)\n";
    return Status::OK();
  }
  return Status::InvalidArgument("usage: trace on|off|save <path>");
}

Status CommandLineInterface::CmdJob(const std::vector<std::string>& args) {
  SECRETA_RETURN_IF_ERROR(Arity(args, 1, 1));
  if (scheduler_ == nullptr) {
    return Status::FailedPrecondition("no jobs submitted yet");
  }
  SECRETA_ASSIGN_OR_RETURN(int64_t id, ParseInt(args[1]));
  SECRETA_ASSIGN_OR_RETURN(JobInfo info,
                           scheduler_->GetJob(static_cast<uint64_t>(id)));
  PrintJobLine(info);
  if (info.state == JobState::kDone && info.report != nullptr) {
    PrintReport(*info.report);
  }
  return Status::OK();
}

Status CommandLineInterface::CmdWaitJobs(const std::vector<std::string>& args) {
  SECRETA_RETURN_IF_ERROR(Arity(args, 0, 1));
  if (scheduler_ == nullptr) {
    return Status::FailedPrecondition("no jobs submitted yet");
  }
  if (args.size() > 1) {
    SECRETA_ASSIGN_OR_RETURN(int64_t id, ParseInt(args[1]));
    SECRETA_ASSIGN_OR_RETURN(JobInfo info,
                             scheduler_->WaitJob(static_cast<uint64_t>(id)));
    PrintJobLine(info);
    if (info.state == JobState::kDone && info.report != nullptr) {
      PrintReport(*info.report);
      last_report_ = *info.report;
      last_sweep_.reset();
      last_comparison_.clear();
    }
    return Status::OK();
  }
  scheduler_->WaitAll();
  for (const JobInfo& info : scheduler_->ListJobs()) PrintJobLine(info);
  return Status::OK();
}

}  // namespace secreta
