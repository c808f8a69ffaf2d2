// Seeded oracle-boundary violation for `lint.oracle_boundary_detects`: the
// row-by-row dataset oracle including the production builder's header.

#include "core/recoding.h"  // oracle-boundary: direct
