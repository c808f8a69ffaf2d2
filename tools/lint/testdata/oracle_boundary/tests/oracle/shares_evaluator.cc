// Seeded oracle-boundary violation for `lint.oracle_boundary_detects`: the
// oracle reaching the production evaluator through another src/ header.

#include "engine/evaluator.h"  // oracle-boundary: via engine/evaluator.h
