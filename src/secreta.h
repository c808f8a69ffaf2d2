// Umbrella header: include this to get the whole public SECRETA API.
//
//   #include "secreta.h"
//
//   secreta::SecretaSession session;
//   session.LoadDatasetFile("people.csv");
//   session.AutoGenerateHierarchies();
//   secreta::AlgorithmConfig config;   // defaults: Cluster+Apriori/RTmerger
//   auto report = session.Evaluate(config);
//
// Individual headers remain available for finer-grained dependencies.

#ifndef SECRETA_SECRETA_H_
#define SECRETA_SECRETA_H_

#include "algo/rt/rt_anonymizer.h"
#include "algo/transaction/rho_uncertainty.h"
#include "algo/transaction/violation_walk.h"
#include "common/status.h"
#include "core/algorithm.h"
#include "core/audit.h"
#include "core/context.h"
#include "core/guarantees.h"
#include "core/params.h"
#include "core/recoding.h"
#include "core/results.h"
#include "data/dataset.h"
#include "data/dataset_ops.h"
#include "data/dataset_stats.h"
#include "datagen/market_basket.h"
#include "datagen/synthetic.h"
#include "engine/anonymization_module.h"
#include "engine/comparator.h"
#include "engine/config_io.h"
#include "engine/evaluator.h"
#include "engine/experiment.h"
#include "engine/registry.h"
#include "export/exporter.h"
#include "export/json_export.h"
#include "export/mapping_export.h"
#include "frontend/cli.h"
#include "frontend/dataset_editor.h"
#include "frontend/session.h"
#include "hierarchy/hierarchy.h"
#include "hierarchy/hierarchy_builder.h"
#include "hierarchy/hierarchy_io.h"
#include "metrics/distribution_metrics.h"
#include "metrics/frequency.h"
#include "metrics/information_loss.h"
#include "policy/policy.h"
#include "policy/policy_generator.h"
#include "policy/policy_io.h"
#include "query/query.h"
#include "query/query_evaluator.h"
#include "query/workload_generator.h"
#include "viz/ascii_plot.h"

#endif  // SECRETA_SECRETA_H_
