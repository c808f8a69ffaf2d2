// Negative compile test: Sensitive values must not be streamable. Logging
// is the classic accidental exfiltration channel — one cell value streamed
// into a log line and raw microdata is in a world-readable log file. The
// deleted friend operator<< in src/common/sensitive.h makes the compiler
// reject it; this test proves the deletion is still in force.

#include <sstream>

#include "common/sensitive.h"
#include "data/dataset.h"

namespace secreta {

void LeakToStream(const Dataset& dataset) {
  std::ostringstream os;
  os << dataset.value(0, 0);  // must not compile: operator<< is deleted
}

}  // namespace secreta
