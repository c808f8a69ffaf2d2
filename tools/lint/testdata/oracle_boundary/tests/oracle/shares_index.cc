// Seeded oracle-boundary violation for `lint.oracle_boundary_detects`: the
// oracle including the indexed path's header directly.

#include "query/query_index.h"  // oracle-boundary: direct
