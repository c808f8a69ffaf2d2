// perfbench_harness SUBCOMMAND [--flag value ...]
//
// The compiled half of the benchmark: every call into the program happens
// here, one subcommand per step. perfbench/run.py generates inputs, starts
// the daemon, runs these steps and turns their output into metrics.

#include <cstdio>
#include <cstring>
#include <thread>

#include "harness/common.h"
#include "harness/subcommands.h"
#include "kernels/kernels.h"

namespace perfbench {

int Info(const Flags&) {
  Report report;
  report.Str("kernel_tier", secreta::kernels::ActiveTierName());
  report.Int("hardware_concurrency",
             static_cast<int64_t>(std::thread::hardware_concurrency()));
#if defined(__clang__)
  report.Str("compiler", "clang " __clang_version__);
#elif defined(__GNUC__)
  report.Str("compiler", "gcc " __VERSION__);
#else
  report.Str("compiler", "unknown");
#endif
  report.Print();
  return 0;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  struct Command {
    const char* name;
    int (*run)(const perfbench::Flags&);
  };
  const Command commands[] = {
      {"info", perfbench::Info},
      {"grid-gen", perfbench::GridGen},
      {"grid-setup", perfbench::GridSetup},
      {"grid", perfbench::Grid},
      {"shard-convert", perfbench::ShardConvert},
      {"shard", perfbench::Shard},
      {"shard-audit", perfbench::ShardAudit},
      {"serve-pool", perfbench::ServePool},
      {"serve-load", perfbench::ServeLoad},
      {"serve-check", perfbench::ServeCheck},
  };
  if (argc >= 2) {
    for (const Command& command : commands) {
      if (std::strcmp(argv[1], command.name) == 0) {
        return command.run(perfbench::Flags(argc - 2, argv + 2));
      }
    }
  }
  std::fprintf(stderr, "usage: perfbench_harness COMMAND [--flag value ...]\n");
  return 2;
}
