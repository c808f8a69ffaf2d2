// Seeded oracle-boundary violation for `lint.oracle_boundary_detects`: a
// guarantee oracle including the release audit's header.

#include "core/audit.h"  // oracle-boundary: direct
