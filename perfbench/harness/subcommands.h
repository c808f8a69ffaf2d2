// Entry points of the harness subcommands, one per step that run.py drives.
// Each prints its results as one JSON object on the last line of stdout.

#ifndef PERFBENCH_HARNESS_SUBCOMMANDS_H_
#define PERFBENCH_HARNESS_SUBCOMMANDS_H_

#include "harness/common.h"

namespace perfbench {

int GridGen(const Flags& flags);
int GridSetup(const Flags& flags);
int Grid(const Flags& flags);

int ShardConvert(const Flags& flags);
int Shard(const Flags& flags);
int ShardAudit(const Flags& flags);

int ServePool(const Flags& flags);
int ServeLoad(const Flags& flags);
int ServeCheck(const Flags& flags);

/// Build and host facts for the result header.
int Info(const Flags& flags);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_SUBCOMMANDS_H_
