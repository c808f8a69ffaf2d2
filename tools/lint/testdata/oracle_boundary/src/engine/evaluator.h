// A src/ header that pulls in the production evaluator.

#ifndef SECRETA_ENGINE_EVALUATOR_H_
#define SECRETA_ENGINE_EVALUATOR_H_

#include "query/query_evaluator.h"

#endif  // SECRETA_ENGINE_EVALUATOR_H_
