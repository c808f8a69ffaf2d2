// KERNB — the kernel-layer benchmark: micro gates for the dispatched SIMD
// kernels and end-to-end A/B gates for the optimized anonymization
// algorithms. Emits BENCH_kernels.json (CWD) with every number.
//
// Three families of checks, all of which also assert correctness:
//  - micro: the active tier's fused AND+popcount / popcount-range /
//    sorted-intersection kernels against the scalar reference, on identical
//    inputs (results must match exactly; on an AVX2 host the fused
//    AND+popcount must run >= 4x the scalar loop — the gate relaxes to
//    >= 1x-within-noise when only the scalar tier exists);
//  - end-to-end: Incognito (packed-key counting vs the original
//    map-of-vector-keys scan) and COAT (posting-list ItemsetSupport vs the
//    original full-record scan) timed optimized-vs-reference on the same
//    data, outputs compared field-for-field — the full run requires >= 2x
//    on both;
//  - determinism: each parallelized algorithm (Incognito, Cluster, TopDown,
//    COAT) run with the shared pool and with pool=nullptr must produce
//    byte-identical recodings.
//
// `--quick` shrinks sizes for CI smoke and drops the 2x end-to-end floor
// (small inputs don't amortize setup; correctness still gates). The micro
// gate always applies: it is scale-independent.

#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "algo/relational/cluster.h"
#include "algo/relational/incognito.h"
#include "algo/relational/topdown.h"
#include "algo/transaction/coat.h"
#include "bench/bench_util.h"
#include "common/parallel.h"
#include "common/stopwatch.h"
#include "csv/csv.h"
#include "export/json_export.h"
#include "hierarchy/hierarchy_builder.h"
#include "kernels/kernels.h"
#include "policy/policy_generator.h"

using namespace secreta;

namespace {

// Best-of-`trials` seconds for one rep of `fn` (which runs `reps` kernel
// calls internally); best-of filters scheduler noise so even the
// scalar-vs-scalar ratio stays near 1.0.
template <typename Fn>
double BestSeconds(int trials, Fn&& fn) {
  double best = 0;
  for (int t = 0; t < trials; ++t) {
    Stopwatch watch;
    fn();
    double s = watch.ElapsedSeconds();
    if (t == 0 || s < best) best = s;
  }
  return best;
}

bool SameRelational(const RelationalRecoding& a, const RelationalRecoding& b) {
  if (a.num_records() != b.num_records() || a.num_qi() != b.num_qi()) {
    return false;
  }
  for (size_t r = 0; r < a.num_records(); ++r) {
    for (size_t qi = 0; qi < a.num_qi(); ++qi) {
      if (a.at(r, qi) != b.at(r, qi)) return false;
    }
  }
  return true;
}

bool SameTransaction(const TransactionRecoding& a,
                     const TransactionRecoding& b) {
  if (a.records != b.records || a.item_map != b.item_map ||
      a.suppressed_occurrences != b.suppressed_occurrences ||
      a.gens.size() != b.gens.size()) {
    return false;
  }
  for (size_t g = 0; g < a.gens.size(); ++g) {
    if (a.gens[g].label != b.gens[g].label ||
        a.gens[g].covers != b.gens[g].covers) {
      return false;
    }
  }
  return true;
}

int g_failures = 0;

void Gate(bool ok, const char* what) {
  if (!ok) {
    fprintf(stderr, "FAIL: %s\n", what);
    ++g_failures;
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  const bool avx2 = kernels::TierAvailable(kernels::Tier::kAvx2);
  const bool neon = kernels::TierAvailable(kernels::Tier::kNeon);
  const bool simd = avx2 || neon;
  printf("== KERNB: kernel + algorithm speedup gates (tier=%s)%s ==\n",
         kernels::ActiveTierName(), quick ? " [quick]" : "");

  // --- Micro: dispatched kernels vs the scalar reference -------------------
  const size_t words = 1 << 16;  // 512 KiB per operand
  const int reps = quick ? 20 : 200;
  std::mt19937_64 rng(2014);
  std::vector<uint64_t> a(words), b(words);
  for (size_t i = 0; i < words; ++i) {
    a[i] = rng();
    b[i] = rng();
  }
  // Sorted u32 lists with ~50% density over a shared universe.
  std::vector<uint32_t> la, lb;
  for (uint32_t v = 0; v < (quick ? 1u << 15 : 1u << 17); ++v) {
    if (rng() & 1) la.push_back(v);
    if (rng() & 1) lb.push_back(v);
  }

  volatile uint64_t sink = 0;  // defeat dead-code elimination
  uint64_t want_and = kernels::scalar::AndPopcount(a.data(), b.data(), words);
  uint64_t want_pop = kernels::scalar::PopcountRange(a.data(), words);
  size_t want_isect = kernels::scalar::IntersectCount(la.data(), la.size(),
                                                      lb.data(), lb.size());
  Gate(kernels::AndPopcount(a.data(), b.data(), words) == want_and,
       "AndPopcount diverges from scalar reference");
  Gate(kernels::PopcountRange(a.data(), words) == want_pop,
       "PopcountRange diverges from scalar reference");
  Gate(kernels::IntersectCount(la.data(), la.size(), lb.data(), lb.size()) ==
           want_isect,
       "IntersectCount diverges from scalar reference");

  struct MicroRow {
    const char* name;
    double scalar_s;
    double active_s;
    double speedup() const { return active_s > 0 ? scalar_s / active_s : 0; }
  };
  std::vector<MicroRow> micro;
  auto time_pair = [&](const char* name, auto scalar_fn, auto active_fn) {
    MicroRow row{name, 0, 0};
    row.scalar_s = BestSeconds(5, [&] {
      uint64_t acc = 0;
      for (int r = 0; r < reps; ++r) acc += scalar_fn();
      sink = sink + acc;
    });
    row.active_s = BestSeconds(5, [&] {
      uint64_t acc = 0;
      for (int r = 0; r < reps; ++r) acc += active_fn();
      sink = sink + acc;
    });
    micro.push_back(row);
  };
  time_pair(
      "and_popcount",
      [&] { return kernels::scalar::AndPopcount(a.data(), b.data(), words); },
      [&] { return kernels::AndPopcount(a.data(), b.data(), words); });
  time_pair(
      "popcount_range",
      [&] { return kernels::scalar::PopcountRange(a.data(), words); },
      [&] { return kernels::PopcountRange(a.data(), words); });
  time_pair(
      "intersect_count",
      [&] {
        return kernels::scalar::IntersectCount(la.data(), la.size(), lb.data(),
                                               lb.size());
      },
      [&] {
        return kernels::IntersectCount(la.data(), la.size(), lb.data(),
                                       lb.size());
      });

  bench::PrintRow({"kernel", "scalar", "active", "speedup"});
  bench::PrintRule(4);
  for (const MicroRow& row : micro) {
    char scalar_c[32], active_c[32], speed_c[32];
    snprintf(scalar_c, sizeof scalar_c, "%.2fms", row.scalar_s * 1e3);
    snprintf(active_c, sizeof active_c, "%.2fms", row.active_s * 1e3);
    snprintf(speed_c, sizeof speed_c, "%.2fx", row.speedup());
    bench::PrintRow({row.name, scalar_c, active_c, speed_c});
  }
  // The headline micro gate: fused AND+popcount. A SIMD tier must deliver
  // >= 4x; a scalar-only host compares the dispatcher against the same code,
  // so only dispatch overhead could lose — allow 10% noise.
  double and_speedup = micro[0].speedup();
  Gate(and_speedup >= (simd ? 4.0 : 0.9),
       simd ? "AND+popcount speedup below the 4x SIMD gate"
            : "dispatched AND+popcount slower than calling scalar directly");

  // --- End-to-end: Incognito, optimized vs reference scan ------------------
  const size_t records = quick ? 4000 : 100000;
  printf("\nend-to-end A/B at %zu records (k=5, m=2)\n", records);
  AnonParams params;
  params.k = 5;
  params.m = 2;
  Dataset dataset = bench::BenchDataset(records);
  auto hierarchies = bench::CheckOk(BuildAllColumnHierarchies(dataset),
                                    "build hierarchies");
  auto rel_context = bench::CheckOk(
      RelationalContext::Create(dataset, hierarchies), "relational context");
  auto tx_context = bench::CheckOk(
      TransactionContext::Create(dataset, nullptr), "transaction context");

  double incognito_opt_s = 0, incognito_ref_s = 0;
  bool incognito_identical = false;
  {
    IncognitoAnonymizer algo;
    Stopwatch watch;
    RelationalRecoding optimized =
        bench::CheckOk(algo.Anonymize(rel_context, params), "incognito");
    incognito_opt_s = watch.ElapsedSeconds();
    algo.set_use_reference_impl(true);
    watch = Stopwatch();
    RelationalRecoding reference =
        bench::CheckOk(algo.Anonymize(rel_context, params), "incognito ref");
    incognito_ref_s = watch.ElapsedSeconds();
    incognito_identical = SameRelational(optimized, reference);
  }
  Gate(incognito_identical, "Incognito optimized != reference recoding");

  // --- End-to-end: COAT (constraint mode), optimized vs reference ----------
  PrivacyGenOptions privacy_options;
  privacy_options.strategy = PrivacyStrategy::kRandomItemsets;
  privacy_options.num_itemsets = quick ? 40 : 200;
  privacy_options.max_itemset_size = 2;
  privacy_options.seed = 11;
  PrivacyPolicy privacy = bench::CheckOk(
      GeneratePrivacyPolicy(dataset, privacy_options), "privacy policy");
  UtilityGenOptions utility_options;  // frequency bands
  UtilityPolicy utility = bench::CheckOk(
      GenerateUtilityPolicy(dataset, utility_options), "utility policy");

  double coat_opt_s = 0, coat_ref_s = 0;
  bool coat_identical = false;
  {
    CoatAnonymizer optimized_algo(privacy, utility);
    Stopwatch watch;
    TransactionRecoding optimized =
        bench::CheckOk(optimized_algo.Anonymize(tx_context, params), "coat");
    coat_opt_s = watch.ElapsedSeconds();
    CoatAnonymizer reference_algo(privacy, utility);
    reference_algo.set_use_reference_impl(true);
    watch = Stopwatch();
    TransactionRecoding reference = bench::CheckOk(
        reference_algo.Anonymize(tx_context, params), "coat ref");
    coat_ref_s = watch.ElapsedSeconds();
    coat_identical = SameTransaction(optimized, reference);
  }
  Gate(coat_identical, "COAT optimized != reference recoding");

  double incognito_speedup =
      incognito_opt_s > 0 ? incognito_ref_s / incognito_opt_s : 0;
  double coat_speedup = coat_opt_s > 0 ? coat_ref_s / coat_opt_s : 0;
  printf("Incognito  opt %.3fs  ref %.3fs  speedup %.2fx  identical=%s\n",
         incognito_opt_s, incognito_ref_s, incognito_speedup,
         incognito_identical ? "yes" : "NO");
  printf("COAT       opt %.3fs  ref %.3fs  speedup %.2fx  identical=%s\n",
         coat_opt_s, coat_ref_s, coat_speedup,
         coat_identical ? "yes" : "NO");
  if (!quick) {
    Gate(incognito_speedup >= 2.0, "Incognito end-to-end speedup below 2x");
    Gate(coat_speedup >= 2.0, "COAT end-to-end speedup below 2x");
  }

  // --- Determinism: pool vs serial must be byte-identical ------------------
  const size_t par_records = quick ? 2000 : 20000;
  Dataset par_data = bench::BenchDataset(par_records, /*seed=*/7);
  auto par_hier = bench::CheckOk(BuildAllColumnHierarchies(par_data),
                                 "parallel hierarchies");
  auto par_rel = bench::CheckOk(RelationalContext::Create(par_data, par_hier),
                                "parallel relational context");
  auto par_tx = bench::CheckOk(TransactionContext::Create(par_data, nullptr),
                               "parallel transaction context");
  ThreadPool& pool = SharedEvalPool();
  auto check_rel = [&](RelationalAnonymizer& algo, const char* name) {
    algo.set_pool(nullptr);
    RelationalRecoding serial =
        bench::CheckOk(algo.Anonymize(par_rel, params), name);
    algo.set_pool(&pool);
    RelationalRecoding parallel =
        bench::CheckOk(algo.Anonymize(par_rel, params), name);
    char what[96];
    snprintf(what, sizeof what, "%s parallel != serial recoding", name);
    Gate(SameRelational(serial, parallel), what);
    printf("%-10s parallel == serial: %s\n", name,
           SameRelational(serial, parallel) ? "yes" : "NO");
  };
  IncognitoAnonymizer incognito;
  ClusterAnonymizer cluster;
  TopDownAnonymizer topdown;
  check_rel(incognito, "Incognito");
  check_rel(cluster, "Cluster");
  check_rel(topdown, "TopDown");
  bool coat_par_identical = false;
  {
    CoatAnonymizer coat;  // k^m mode exercises the sharded count tree
    coat.set_pool(nullptr);
    TransactionRecoding serial =
        bench::CheckOk(coat.Anonymize(par_tx, params), "coat serial");
    coat.set_pool(&pool);
    TransactionRecoding parallel =
        bench::CheckOk(coat.Anonymize(par_tx, params), "coat parallel");
    coat_par_identical = SameTransaction(serial, parallel);
    Gate(coat_par_identical, "COAT parallel != serial recoding");
    printf("%-10s parallel == serial: %s\n", "COAT",
           coat_par_identical ? "yes" : "NO");
  }

  // --- JSON ---------------------------------------------------------------
  JsonWriter w;
  w.BeginObject();
  w.Key("tier");
  w.String(kernels::ActiveTierName());
  w.Key("avx2_available");
  w.Bool(avx2);
  w.Key("neon_available");
  w.Bool(neon);
  w.Key("quick");
  w.Bool(quick);
  w.Key("micro_words");
  w.Int(static_cast<int64_t>(words));
  for (const MicroRow& row : micro) {
    w.Key(std::string(row.name) + "_speedup");
    w.Number(row.speedup());
  }
  w.Key("records");
  w.Int(static_cast<int64_t>(records));
  w.Key("incognito_optimized_seconds");
  w.Number(incognito_opt_s);
  w.Key("incognito_reference_seconds");
  w.Number(incognito_ref_s);
  w.Key("incognito_speedup");
  w.Number(incognito_speedup);
  w.Key("incognito_identical");
  w.Bool(incognito_identical);
  w.Key("coat_optimized_seconds");
  w.Number(coat_opt_s);
  w.Key("coat_reference_seconds");
  w.Number(coat_ref_s);
  w.Key("coat_speedup");
  w.Number(coat_speedup);
  w.Key("coat_identical");
  w.Bool(coat_identical);
  w.Key("parallel_identical");
  w.Bool(coat_par_identical && g_failures == 0);
  w.Key("gates_passed");
  w.Bool(g_failures == 0);
  w.EndObject();
  const std::string path = "BENCH_kernels.json";
  bench::CheckOk(csv::WriteFile(path, w.TakeString()), "json");
  printf("wrote %s\n", path.c_str());
  (void)sink;

  if (g_failures > 0) {
    fprintf(stderr, "FAIL: %d kernel gate(s) failed\n", g_failures);
    return 1;
  }
  printf("all kernel gates passed\n");
  return 0;
}
