// Command-line frontend: a scriptable REPL exposing the complete SECRETA
// workflow (Dataset / Configuration / Queries Editors, Evaluation and
// Comparison modes, export). This is the executable face of the reproduction
// — the published system's Qt GUI mapped 1:1 onto commands.

#ifndef SECRETA_FRONTEND_CLI_H_
#define SECRETA_FRONTEND_CLI_H_

#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "frontend/session.h"
#include "service/job_scheduler.h"

namespace secreta {

/// \brief Parses and executes SECRETA commands against a session.
///
/// Commands (one per line; `#` starts a comment):
///   help                               list commands
///   quit                               leave the REPL
///   generate <n> [seed]                synthesize an RT-dataset
///   load <path> / save <path>          dataset I/O (load sniffs the file
///                                      magic: SBC1 binary or CSV)
///   convert <in> <out> [shards=N] [by=range|hash] [salt=S]
///                                      write an SBC1 binary columnar file
///                                      (docs/FORMATS.md) partitioned for
///                                      out-of-core sharded runs
///   info                               dataset summary
///   hist <attribute>                   ASCII histogram
///   set-cell <row> <attr> <value...>   edit a cell
///   rename-attr <old> <new>            rename an attribute
///   del-row <row>                      delete a record
///   hierarchies auto [fanout]          auto-generate all hierarchies
///   hierarchy load <attr> <path>       load one hierarchy
///   hierarchy save <attr> <path>       export one hierarchy
///   policies auto                      generate privacy+utility policies
///   policy load-privacy <path> / load-utility <path>
///   workload gen <queries> / load <path> / save <path>
///   mode rt|relational|transaction     select what to anonymize
///   algo rel <name> / algo txn <name>  pick algorithms
///   merger <Rmerger|Tmerger|RTmerger>  pick the bounding method
///   param <name> <value>               set k / m / delta / ...
///   algorithms                         list registered algorithms
///   run                                Evaluation mode, single execution
///   shard-run [shards=N] [by=range|hash] [salt=S] [input=PATH]
///             [checkpoint=PATH] [output=PATH] [no-materialize] [no-audit]
///                                      partitioned anonymization of
///                                      the current config: each shard runs
///                                      independently, outputs merge into
///                                      one release in row order; input=
///                                      reads straight from a CSV/SBC1 file
///                                      (SBC1 = out-of-core, one mmap window
///                                      per shard), checkpoint= resumes
///                                      interrupted runs byte-identically
///   audit <k> <m> [global]             recipient-side guarantee audit of
///                                      the last run's output
///   sweep <param> <start> <end> <step> [checkpoint=PATH]
///                                      Evaluation mode, varying parameter;
///                                      with a checkpoint file, completed
///                                      points are replayed on restart
///   add-config                         push current config to the
///                                      experimenter area
///   configs                            list queued configs
///   compare <param> <start> <end> <step> [checkpoint=PATH]
///                                      Comparison mode over the queue
///                                      (checkpoint covers the whole grid)
///   save-output <path>                 export last anonymized dataset
///   export-json <path>                 export last report/comparison as JSON
///   submit [prio=P] [timeout=S] [retries=N] [backoff=S] [key=value ...]
///                                      queue an async evaluation job (uses
///                                      the current config unless overridden;
///                                      retries re-queue transient failures
///                                      with exponential backoff)
///   jobs                               list submitted jobs
///   job <id>                           one job's status (+ report when done)
///   cancel <id>                        cancel a queued/running job
///   wait [<id>]                        block until one job / all jobs finish
///   metrics [text]                     unified metrics (global registry +
///                                      job service) as JSON, or plain text
///   metrics --watch <s> [n]            n rounds of per-interval deltas and
///                                      rates (counters/s, gauge moves)
///   trace on|off                       toggle the span tracer
///   trace save <path>                  write collected spans as Chrome
///                                      trace-event JSON (Perfetto-ready)
class CommandLineInterface {
 public:
  explicit CommandLineInterface(std::ostream* out) : out_(out) {}

  /// Executes one command line. Parse errors and failed operations return a
  /// non-OK status (the REPL prints and continues; scripts may abort).
  Status Execute(const std::string& line);

  /// True once `quit` has been executed.
  bool done() const { return done_; }

  /// Reads commands from `in` until EOF or `quit`. Returns the number of
  /// failed commands.
  size_t RunScript(std::istream& in, bool stop_on_error);

  SecretaSession& session() { return session_; }
  static std::string HelpText();

 private:
  Status Dispatch(const std::vector<std::string>& args);
  Status RequireDataset() const;
  /// Engine inputs handed to async jobs point into session state; refuse to
  /// mutate that state while jobs are queued or running.
  Status RequireNoLiveJobs() const;
  Status CmdGenerate(const std::vector<std::string>& args);
  Status CmdHierarchy(const std::vector<std::string>& args);
  Status CmdPolicy(const std::vector<std::string>& args);
  Status CmdWorkload(const std::vector<std::string>& args);
  Status CmdRun();
  Status CmdConvert(const std::vector<std::string>& args);
  Status CmdShardRun(const std::vector<std::string>& args);
  Status CmdSweep(const std::vector<std::string>& args);
  Status CmdCompare(const std::vector<std::string>& args);
  Status CmdSubmit(const std::vector<std::string>& args);
  Status CmdJob(const std::vector<std::string>& args);
  Status CmdWaitJobs(const std::vector<std::string>& args);
  Status CmdMetrics(const std::vector<std::string>& args);
  Status CmdTrace(const std::vector<std::string>& args);
  void PrintJobLine(const JobInfo& info);
  void PrintReport(const EvaluationReport& report);

  SecretaSession session_;
  std::ostream* out_;
  bool done_ = false;
  AlgorithmConfig current_;
  std::vector<AlgorithmConfig> queued_;
  std::optional<EvaluationReport> last_report_;
  std::optional<SweepResult> last_sweep_;
  std::vector<SweepResult> last_comparison_;
  // Created lazily by the first `submit`; lives for the session.
  std::unique_ptr<JobScheduler> scheduler_;
};

}  // namespace secreta

#endif  // SECRETA_FRONTEND_CLI_H_
