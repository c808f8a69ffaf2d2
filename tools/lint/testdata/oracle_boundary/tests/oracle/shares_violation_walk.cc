// Seeded oracle-boundary violation for `lint.oracle_boundary_detects`: a
// k^m oracle including the algorithms' violation walk.

#include "algo/transaction/violation_walk.h"  // oracle-boundary: direct
