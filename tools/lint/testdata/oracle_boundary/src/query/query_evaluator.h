// Stand-in for the production evaluator header of the real tree.

#ifndef SECRETA_QUERY_QUERY_EVALUATOR_H_
#define SECRETA_QUERY_QUERY_EVALUATOR_H_

#endif  // SECRETA_QUERY_QUERY_EVALUATOR_H_
