// Seeded oracle-boundary violation for `lint.oracle_boundary_detects`: a
// guarantee oracle including the production guarantee checks' header.

#include "core/guarantees.h"  // oracle-boundary: direct
