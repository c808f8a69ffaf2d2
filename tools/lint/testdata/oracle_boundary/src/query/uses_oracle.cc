// Seeded oracle-boundary violation for `lint.oracle_boundary_detects`: a
// production source including a test-only oracle header.

#include "tests/oracle/are_oracle.h"  // oracle-boundary: src/ -> tests/
