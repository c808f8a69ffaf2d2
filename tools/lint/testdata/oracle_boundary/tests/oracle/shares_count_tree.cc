// Seeded oracle-boundary violation for `lint.oracle_boundary_detects`: a
// k^m oracle including the algorithms' support-counting tree.

#include "algo/transaction/count_tree.h"  // oracle-boundary: direct
