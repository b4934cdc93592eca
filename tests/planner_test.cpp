// The planner's contract: shape-dependent picks that match the paper's
// characterization (dense formulations for small-alphabet/huge-episode
// shapes, bucket-indexed ones for large alphabets), capability gates that
// are never violated (no pick above a backend's max_level), determinism, and
// an explanation for every rejection.  AutoBackend rides along: per-level
// re-planning must stay bit-exact with the serial reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/cpu_backend.hpp"
#include "core/episode_trie.hpp"
#include "core/miner.hpp"
#include "core/serial_counter.hpp"
#include "data/generators.hpp"
#include "planner/auto_backend.hpp"
#include "planner/cpu_cost_model.hpp"
#include "planner/planner.hpp"
#include "planner/workload.hpp"
#include "service/backend_factory.hpp"

namespace gm::planner {
namespace {

Workload basic_workload() {
  Workload w;
  w.db_size = 393'019;
  w.episode_count = 650;
  w.level = 2;
  w.alphabet_size = 26;
  return w;
}

bool is_bucket_indexed(const CandidateConfig& config) {
  if (config.kind == BackendKind::kCpuSingleScan) return true;
  return config.kind == BackendKind::kGpuSim && kernels::is_bucketed(config.algorithm);
}

TEST(Planner, PicksDenseGpuPathForSmallAlphabetHugeEpisodeShapes) {
  // The paper's level-3 evaluation shape: 15,600 candidates over 26 symbols.
  // Bucket occupancy |eps|/|alphabet| = 600 makes the bucketed formulations
  // hopeless; a dense GPU formulation must win.
  Workload w = basic_workload();
  w.episode_count = 15'600;
  w.level = 3;
  const Plan plan = plan_level(w, PlannerOptions{});
  ASSERT_TRUE(plan.winner().feasible);
  EXPECT_EQ(plan.winner().config.kind, BackendKind::kGpuSim);
  EXPECT_FALSE(is_bucket_indexed(plan.winner().config));
}

TEST(Planner, PicksBucketedPathForLargeAlphabetShapes) {
  // Large alphabet, few candidates: per-symbol bucket occupancy is tiny, so
  // a bucket-indexed formulation (host single-scan or Algorithm 5) wins.
  Workload w;
  w.db_size = 2'000'000;
  w.episode_count = 400;
  w.level = 3;
  w.alphabet_size = 200;
  const Plan plan = plan_level(w, PlannerOptions{});
  ASSERT_TRUE(plan.winner().feasible);
  EXPECT_TRUE(is_bucket_indexed(plan.winner().config)) << plan.winner().config.label();
}

TEST(Planner, GpuOnlyPlannerFlipsToBucketedKernelOnLargeAlphabets) {
  // Same flip inside the GPU candidate family alone: the block-bucketed
  // kernel must beat the dense formulations once the alphabet dwarfs the
  // per-thread bucket occupancy.
  PlannerOptions options;
  options.enable_cpu = false;
  Workload w;
  w.db_size = 500'000;
  w.episode_count = 20'000;
  w.level = 3;
  w.alphabet_size = 200;
  const Plan plan = plan_level(w, options);
  ASSERT_TRUE(plan.winner().feasible);
  ASSERT_EQ(plan.winner().config.kind, BackendKind::kGpuSim);
  EXPECT_EQ(plan.winner().config.algorithm, kernels::Algorithm::kBlockBucketed)
      << plan.winner().config.label();
}

TEST(Planner, FlipsToTrieFormulationsOnSharedPrefixCandidateSets) {
  // The shared-prefix flip, pinned from both ends.  A large-candidate
  // bucket-friendly shape with no prefix sharing (prefix mass 1, e.g. a
  // level-1 set) must stay on a flat formulation: the trie's heavier
  // per-drain constant buys nothing.  The same shape with an apriori-style
  // candidate set (prefix mass ~ 1/L) must flip to the device trie
  // formulation — one token drain advances every prefix-sharer.
  Workload w;
  w.db_size = 2'000'000;
  w.episode_count = 12'000;
  w.level = 3;
  w.alphabet_size = 200;

  Workload flat_set = w;
  flat_set.prefix_compression = 1.0;
  const Plan flat_plan = plan_level(flat_set, PlannerOptions{});
  ASSERT_TRUE(flat_plan.winner().feasible);
  EXPECT_EQ(flat_plan.winner().config.label().find("trie"), std::string::npos)
      << flat_plan.winner().config.label();

  Workload shared_set = w;
  shared_set.prefix_compression = 0.35;
  const Plan trie_plan = plan_level(shared_set, PlannerOptions{});
  ASSERT_TRUE(trie_plan.winner().feasible);
  EXPECT_NE(trie_plan.winner().config.label().find("trie"), std::string::npos)
      << trie_plan.winner().config.label();

  EXPECT_EQ(trie_plan.winner().config.kind, BackendKind::kGpuSim);

  // Model pins behind the flip: the trie spec predicts strictly less kernel
  // time than the flat bucketed spec once prefixes are shared, and strictly
  // more when they are not (heavier per-drain charge, nothing compressed).
  const auto gpu_ms = [](const Workload& workload, bool trie) {
    const PlannerOptions options;
    return kernels::predict_mining_time(
               options.device,
               gpu_workload_spec(workload, kernels::Algorithm::kBlockBucketed, 128, trie),
               gpusim::CostModel(options.cost_params), options.kernel_costs)
        .total_ms;
  };
  EXPECT_LT(gpu_ms(shared_set, true), gpu_ms(shared_set, false));
  EXPECT_GT(gpu_ms(flat_set, true), gpu_ms(flat_set, false));
}

TEST(Planner, NeverPicksBackendWhoseMaxLevelIsBelowRequest) {
  Workload w = basic_workload();
  w.level = kernels::kMaxLevel + 1;
  w.episode_count = 10;
  const PlannerOptions options;
  const Plan plan = plan_level(w, options);

  // The pick must come from a family whose constructed backend can count the
  // level; every GPU candidate must be rejected with a reason naming the cap.
  const auto backend = make_planned_backend(plan.winner().config, options);
  EXPECT_TRUE(backend->max_level() == 0 || backend->max_level() >= w.level);
  for (const ScoredCandidate& c : plan.table) {
    if (c.config.kind == BackendKind::kGpuSim) {
      EXPECT_FALSE(c.feasible);
      EXPECT_NE(c.reason.find("max_level"), std::string::npos) << c.reason;
    }
  }
}

TEST(Planner, IsDeterministicAndExplainsEveryRejection) {
  Workload w = basic_workload();
  w.level = kernels::kMaxLevel + 2;  // force a mixed feasible/rejected table
  const PlannerOptions options;
  const Plan a = plan_level(w, options);
  const Plan b = plan_level(w, options);

  ASSERT_EQ(a.table.size(), b.table.size());
  for (std::size_t i = 0; i < a.table.size(); ++i) {
    EXPECT_EQ(a.table[i].config.label(), b.table[i].config.label());
    EXPECT_EQ(a.table[i].feasible, b.table[i].feasible);
    EXPECT_DOUBLE_EQ(a.table[i].predicted_ms, b.table[i].predicted_ms);
    EXPECT_EQ(a.table[i].reason, b.table[i].reason);
  }
  EXPECT_EQ(a.explanation, b.explanation);
  EXPECT_FALSE(a.explanation.empty());
  for (const ScoredCandidate& c : a.table) {
    EXPECT_FALSE(c.reason.empty()) << c.config.label();
  }
  // Feasible candidates are sorted fastest-first ahead of the rejected tail.
  bool seen_infeasible = false;
  double last_ms = 0.0;
  for (const ScoredCandidate& c : a.table) {
    if (!c.feasible) {
      seen_infeasible = true;
      continue;
    }
    EXPECT_FALSE(seen_infeasible) << "feasible candidate after a rejected one";
    EXPECT_GE(c.predicted_ms, last_ms);
    last_ms = c.predicted_ms;
  }
}

TEST(Planner, RejectsOversizedThreadsPerBlockWithReason) {
  PlannerOptions options;
  options.tpb_sweep = {64, 4096};  // above every paper card's block limit
  const Plan plan = plan_level(basic_workload(), options);
  bool saw_rejected_tpb = false;
  for (const ScoredCandidate& c : plan.table) {
    if (c.config.kind == BackendKind::kGpuSim && c.config.threads_per_block == 4096) {
      EXPECT_FALSE(c.feasible);
      EXPECT_NE(c.reason.find("device limit"), std::string::npos) << c.reason;
      saw_rejected_tpb = true;
    }
  }
  EXPECT_TRUE(saw_rejected_tpb);
}

TEST(Planner, ThrowsWhenNoCandidateIsFeasible) {
  PlannerOptions options;
  options.enable_cpu = false;  // GPU only...
  Workload w = basic_workload();
  w.level = kernels::kMaxLevel + 1;  // ...and every GPU candidate is capped
  EXPECT_THROW((void)plan_level(w, options), gm::PreconditionError);
}

TEST(Planner, SkewedFrequenciesLowerBucketIndexedPredictions) {
  Workload uniform;
  uniform.db_size = 1'000'000;
  uniform.episode_count = 500;
  uniform.level = 2;
  uniform.alphabet_size = 64;
  Workload skewed = uniform;
  skewed.symbol_freq = data::zipf_frequencies(64, 1.0);

  const CpuCostConstants constants;
  EXPECT_LT(predict_cpu_single_scan_ms(skewed, 1, constants),
            predict_cpu_single_scan_ms(uniform, 1, constants));
  // Dense backends are occupancy-blind: unchanged by skew.
  EXPECT_DOUBLE_EQ(predict_cpu_serial_ms(skewed, constants),
                   predict_cpu_serial_ms(uniform, constants));
}

TEST(Planner, SingleScanCurveFollowsTheEpisodeSplit) {
  const CpuCostConstants c;
  // The one-thread curve on a uniform stream: |DB| probes plus |DB| * |eps|
  // / |alphabet| drains.
  const auto one_thread_ms = [&](const Workload& w) {
    const double db = static_cast<double>(w.db_size);
    return db * c.scan_probe_ns * 1e-6 + db * static_cast<double>(w.episode_count) /
                                             static_cast<double>(w.alphabet_size) *
                                             c.scan_drain_ns * 1e-6;
  };
  Workload service = basic_workload();
  service.db_size = 100'000;
  service.episode_count = 128;
  service.level = 3;
  Workload paper = basic_workload();
  paper.episode_count = 17'576;
  paper.level = 3;
  // A large alphabet and few episodes over a long stream: the passes are
  // mostly probes.
  Workload sparse = basic_workload();
  sparse.db_size = 2'100'000;
  sparse.episode_count = 64;
  sparse.level = 2;
  sparse.alphabet_size = 200;

  for (const int threads : {1, 2, 4, 8, 16, 64}) {
    EXPECT_EQ(core::single_scan_split(paper.episode_count, paper.db_size, threads).workers,
              threads);
    // Below the split threshold (a service count over 100,000 events) the
    // curve is the one-thread curve.
    EXPECT_DOUBLE_EQ(predict_cpu_single_scan_ms(service, threads, c), one_thread_ms(service));
    // Above it, every worker drives the database once per slice it claims
    // and takes 1/W of the drains, plus the spawn cost.
    for (const Workload& w : {paper, sparse}) {
      const core::SingleScanSplit split =
          core::single_scan_split(w.episode_count, w.db_size, threads);
      const double probe_ms = static_cast<double>(w.db_size) * c.scan_probe_ns * 1e-6;
      const double split_ms =
          split.workers == 1 ? one_thread_ms(w)
                             : split.slices_per_worker * probe_ms +
                                   (one_thread_ms(w) - probe_ms) / split.workers +
                                   split.workers * c.thread_spawn_us * 1e-3;
      EXPECT_NEAR(predict_cpu_single_scan_ms(w, threads, c), split_ms, 1e-9 * split_ms);
      // The split never prices above the engine it replaces.
      EXPECT_LE(predict_cpu_single_scan_ms(w, threads, c), one_thread_ms(w)) << threads;
    }
  }
  // distrib's map divides the one-thread engine by its shards; it must not
  // also divide by the single-scan split.
  EXPECT_GT(predict_cpu_distrib_ms(paper, 1, c), one_thread_ms(paper));
}

TEST(Planner, OnlyHostWallPlansPriceTheEpisodeSplit) {
  // The paper-reproduction tables (PlannerOptions{}) price one thread, so
  // they read the same on every machine; "auto" prices every usable CPU.
  Workload paper = basic_workload();
  paper.episode_count = 17'576;
  paper.level = 3;
  const auto single_scan_row = [&](const PlannerOptions& options) {
    const Plan plan = plan_level(paper, options);
    const auto row = std::find_if(plan.table.begin(), plan.table.end(), [](const auto& c) {
      return c.config.kind == BackendKind::kCpuSingleScan;
    });
    EXPECT_NE(row, plan.table.end());
    return *row;
  };
  const ScoredCandidate paper_row = single_scan_row(PlannerOptions{});
  EXPECT_EQ(paper_row.config.threads, 1);
  EXPECT_DOUBLE_EQ(paper_row.predicted_ms, predict_cpu_single_scan_ms(paper, 1));
  const ScoredCandidate host_row = single_scan_row(service::planner_options_for({.name = "auto"}));
  EXPECT_EQ(host_row.config.threads, core::usable_cpu_count());
  EXPECT_DOUBLE_EQ(host_row.predicted_ms,
                   predict_cpu_single_scan_ms(paper, core::usable_cpu_count()));
}

TEST(Planner, WorkloadOfMeasuresShapeAndSkew) {
  const core::Alphabet alphabet(16);
  const auto db = data::zipf_database(alphabet, 20'000, 1.0, 9);
  const auto episodes = core::all_distinct_episodes(alphabet, 2);

  core::CountRequest request;
  request.database = db;
  request.episodes = episodes;
  const Workload w = workload_of(request, alphabet.size());

  EXPECT_EQ(w.db_size, 20'000);
  EXPECT_EQ(w.episode_count, static_cast<std::int64_t>(episodes.size()));
  EXPECT_EQ(w.level, 2);
  EXPECT_EQ(w.alphabet_size, 16);
  ASSERT_EQ(w.symbol_freq.size(), 16u);
  EXPECT_GT(w.symbol_freq[0], w.symbol_freq[15]);  // measured skew, not uniform
}

TEST(AutoBackend, MatchesSerialReferenceAcrossLevels) {
  const core::Alphabet alphabet(12);
  const auto db = data::uniform_database(alphabet, 8'000, 77);

  core::MinerConfig config;
  config.support_threshold = 0.0004;
  config.max_level = 3;

  core::SerialCpuBackend reference;
  const auto expected = core::mine_frequent_episodes(db, alphabet, reference, config);

  AutoBackend adaptive{PlannerOptions{}};
  const auto actual = core::mine_frequent_episodes(db, alphabet, adaptive, config);

  ASSERT_EQ(actual.frequent.size(), expected.frequent.size());
  for (std::size_t i = 0; i < actual.frequent.size(); ++i) {
    EXPECT_EQ(actual.frequent[i].episode, expected.frequent[i].episode);
    EXPECT_EQ(actual.frequent[i].count, expected.frequent[i].count);
  }
  // One recorded plan per mining level, each with a usable explanation.
  ASSERT_EQ(adaptive.plans().size(), expected.levels.size());
  for (const Plan& plan : adaptive.plans()) {
    EXPECT_FALSE(plan.explanation.empty());
    EXPECT_TRUE(plan.winner().feasible);
  }
}

TEST(AutoBackend, ReusesConstructedBackendsAcrossLevels) {
  // Same stream counted twice at the same level shape: the second call must
  // plan again (two plans) but reuse the cached backend (identical pick).
  const core::Alphabet alphabet(10);
  const auto db = data::uniform_database(alphabet, 5'000, 3);
  const auto episodes = core::all_distinct_episodes(alphabet, 2);

  core::CountRequest request;
  request.database = db;
  request.episodes = episodes;

  AutoBackend adaptive{PlannerOptions{}};
  const auto first = adaptive.count(request);
  const auto second = adaptive.count(request);
  EXPECT_EQ(first.counts, second.counts);
  ASSERT_EQ(adaptive.plans().size(), 2u);
  EXPECT_EQ(adaptive.plans()[0].winner().config.label(),
            adaptive.plans()[1].winner().config.label());
}

TEST(AutoBackend, FeedbackRecordsRecencyWeightedBias) {
  // Every delegated count() must fold measured/predicted into the winner's
  // bias.  The update is an EWMA toward the floored observed ratio, so after
  // one call the bias sits strictly between the prior (1) and the
  // observation, and it always stays positive.
  const core::Alphabet alphabet(10);
  const auto db = data::uniform_database(alphabet, 5'000, 3);
  const auto episodes = core::all_distinct_episodes(alphabet, 2);

  core::CountRequest request;
  request.database = db;
  request.episodes = episodes;

  AutoBackend adaptive{PlannerOptions{}};
  (void)adaptive.count(request);
  ASSERT_EQ(adaptive.feedback().size(), 1u);
  const auto [label, bias] = *adaptive.feedback().begin();
  EXPECT_EQ(label, adaptive.plans()[0].winner().config.label());
  EXPECT_GT(bias, 0.0);

  // The next plan's prediction for that winner carries the bias (the note
  // says so), and repeated feedback keeps the multiplier finite.
  (void)adaptive.count(request);
  if (adaptive.plans()[1].winner().config.label() == label && bias != 1.0) {
    EXPECT_NE(adaptive.plans()[1].winner().reason.find("measured bias"),
              std::string::npos);
  }
  for (const auto& [key, value] : adaptive.feedback()) {
    EXPECT_GT(value, 0.0) << key;
    EXPECT_LT(value, 1e6) << key;
  }
}

TEST(AutoBackend, FeedbackConvergesToStableModelError) {
  // A persistent model error must settle at the observed ratio instead of
  // compounding.  The update divides the prior bias back out of the biased
  // prediction before forming the new observation; replicate the EWMA from
  // the observable plan/result pairs and require exact agreement — were the
  // divide-out dropped (bias fed on bias), the replicated values would
  // diverge from the implementation's by the second call.
  const core::Alphabet alphabet(16);
  const auto db = data::uniform_database(alphabet, 4'000, 11);
  const auto episodes = core::all_distinct_episodes(alphabet, 1);

  core::CountRequest request;
  request.database = db;
  request.episodes = episodes;

  PlannerOptions options;
  // Grossly understate the serial cost so the model error is large and of
  // known sign: measured wall-clock will exceed the prediction.
  options.cpu_constants.serial_step_ns = 1e-4;
  options.cpu_constants.serial_expiry_step_ns = 1e-4;
  AutoBackend adaptive{options};

  std::map<std::string, double> expected;
  for (int call = 0; call < 6; ++call) {
    const core::CountResult result = adaptive.count(request);
    const Plan& plan = adaptive.plans().back();
    const std::string label = plan.winner().config.label();
    const bool is_gpu = plan.winner().config.kind == BackendKind::kGpuSim;
    const double measured = is_gpu ? result.simulated_kernel_ms : result.host_ms;
    const double prior = expected.count(label) > 0 ? expected[label] : 1.0;
    const double raw = plan.winner().predicted_ms / prior;
    const double observed = (measured + AutoBackend::kFeedbackFloorMs) /
                            (raw + AutoBackend::kFeedbackFloorMs);
    expected[label] = (1.0 - AutoBackend::kFeedbackBlend) * prior +
                      AutoBackend::kFeedbackBlend * observed;
    ASSERT_DOUBLE_EQ(adaptive.feedback().at(label), expected[label]) << "call " << call;
    EXPECT_GT(adaptive.feedback().at(label), 0.0);
    EXPECT_TRUE(std::isfinite(adaptive.feedback().at(label)));
  }
}

TEST(AutoBackend, SubFloorLevelCannotFlipTheNextPaperLevel) {
  // Host wall-clock feedback must not turn a scheduler stall into a plan
  // flip.  A level measured under the floor moves the bias by at most
  // kFeedbackBlend, whatever it measured; on the paper's level-2 shape the
  // host runner-up trails the winner by more than that, so no stall of a
  // few-ms level 1 can hand level 2 to the slower formulation.
  const PlannerOptions options = service::planner_options_for({.name = "auto"});
  const Plan paper_l2 = plan_level(basic_workload(), options);
  ASSERT_GE(paper_l2.table.size(), 2u);
  ASSERT_TRUE(paper_l2.table[1].feasible);
  const double margin = paper_l2.table[1].predicted_ms / paper_l2.winner().predicted_ms;
  EXPECT_GT(margin, 1.0 + AutoBackend::kFeedbackBlend)
      << paper_l2.winner().config.label() << " vs " << paper_l2.table[1].config.label();

  // The stall that flipped level 2 on a loaded 4-core host: the paper's
  // level 1 (predicted ~7 ms, counted in ~5 ms) measured at 42 ms.
  Workload paper_l1 = basic_workload();
  paper_l1.episode_count = 26;
  paper_l1.level = 1;
  const double l1_predicted_ms = plan_level(paper_l1, options).winner().predicted_ms;
  EXPECT_LT(AutoBackend::folded_bias(1.0, l1_predicted_ms, 42.0), margin);
  EXPECT_LE(AutoBackend::folded_bias(1.0, 0.0, AutoBackend::kFeedbackFloorMs),
            1.0 + AutoBackend::kFeedbackBlend);

  // The live path folds the same way: a short level stays under the bound.
  const core::Alphabet alphabet(26);
  const auto db = data::uniform_database(alphabet, 2'000, 5);
  const auto episodes = core::all_distinct_episodes(alphabet, 1);
  core::CountRequest request;
  request.database = db;
  request.episodes = episodes;

  AutoBackend adaptive{options};
  const core::CountResult result = adaptive.count(request);
  ASSERT_LT(result.host_ms, AutoBackend::kFeedbackFloorMs);
  ASSERT_EQ(adaptive.feedback().size(), 1u);
  const double bias = adaptive.feedback().begin()->second;
  EXPECT_GT(bias, 0.0);
  EXPECT_LE(bias, 1.0 + AutoBackend::kFeedbackBlend);
}

TEST(Planner, DefaultCandidateSpaceHasNoDistribCandidates) {
  // The planner must not assume extra devices exist: without an explicit
  // device_sweep the table is exactly the single-device space.
  const Plan plan = plan_level(basic_workload(), PlannerOptions{});
  for (const ScoredCandidate& c : plan.table) {
    EXPECT_NE(c.config.kind, BackendKind::kDistrib) << c.config.label();
  }

  // The host rows of every table are exactly the serial reference, the
  // single scan, and one host distrib candidate per swept device count.
  Workload expiring = basic_workload();
  expiring.expiry = core::ExpiryPolicy{8};
  Workload dense = basic_workload();
  dense.semantics = core::Semantics::kContiguousRestart;
  for (const std::vector<int>& sweep : {std::vector<int>{}, std::vector<int>{1, 2, 4}}) {
    for (const Workload& w : {basic_workload(), expiring, dense}) {
      PlannerOptions options;
      options.device_sweep = sweep;
      std::vector<std::string> host_rows;
      for (const ScoredCandidate& c : plan_level(w, options).table) {
        const bool device = c.config.kind == BackendKind::kGpuSim || c.config.distrib_gpu;
        if (!device) host_rows.push_back(c.config.label());
      }
      std::sort(host_rows.begin(), host_rows.end());
      std::vector<std::string> expected = {"cpu-serial", "cpu-single-scan"};
      for (const int n : sweep) expected.push_back("distrib-x" + std::to_string(n));
      std::sort(expected.begin(), expected.end());
      EXPECT_EQ(host_rows, expected);
    }
  }
}

TEST(Planner, DeviceSweepFlipsToMultiCardOnTheLargeEvaluationShape) {
  // The paper's level-3 shape is kernel-bound, so splitting the stream over
  // two (then four) simulated cards nearly halves the dominant term while
  // the merge charge stays tiny: the device axis must flip the plan to a
  // multi-device candidate, and more cards must keep predicting faster.
  Workload w = basic_workload();
  w.episode_count = 15'600;
  w.level = 3;
  PlannerOptions options;
  options.device_sweep = {1, 2, 4};
  const Plan plan = plan_level(w, options);

  ASSERT_TRUE(plan.winner().feasible);
  EXPECT_EQ(plan.winner().config.kind, BackendKind::kDistrib);
  EXPECT_TRUE(plan.winner().config.distrib_gpu);
  EXPECT_GT(plan.winner().config.threads, 1);

  auto predicted = [&](const std::string& label) {
    for (const ScoredCandidate& c : plan.table) {
      if (c.config.label() == label) {
        EXPECT_TRUE(c.feasible) << label;
        return c.predicted_ms;
      }
    }
    ADD_FAILURE() << label << " missing from the table";
    return 0.0;
  };
  EXPECT_LT(predicted("distrib-gpu-x4"), predicted("distrib-gpu-x2"));
  EXPECT_LT(predicted("distrib-gpu-x2"), predicted("distrib-gpu-x1"));
  EXPECT_LT(predicted("distrib-x4"), predicted("distrib-x2"));
}

TEST(Planner, TinyShapesResistTheDeviceAxis) {
  // On a small level-1 workload the per-shard spawn/merge overhead exceeds
  // the scan itself: the winner must stay a single-device formulation.
  Workload w;
  w.db_size = 2'000;
  w.episode_count = 26;
  w.level = 1;
  w.alphabet_size = 26;
  PlannerOptions options;
  options.device_sweep = {1, 2, 4, 8};
  const Plan plan = plan_level(w, options);
  ASSERT_TRUE(plan.winner().feasible);
  EXPECT_FALSE(plan.winner().config.kind == BackendKind::kDistrib &&
               plan.winner().config.threads > 1)
      << plan.winner().config.label();
}

TEST(Planner, PlannedDistribBackendsCountExactly) {
  const auto alphabet = core::Alphabet(6);
  const auto db = data::zipf_database(alphabet, 6'000, 1.0, 5);
  const auto episodes = core::all_distinct_episodes(alphabet, 2);
  const core::ExpiryPolicy expiry{21};
  core::SerialCpuBackend reference;
  core::CountRequest request;
  request.database = db;
  request.episodes = episodes;
  request.expiry = expiry;
  const auto expected = reference.count(request);

  for (const bool gpu : {false, true}) {
    CandidateConfig config;
    config.kind = BackendKind::kDistrib;
    config.threads = 3;
    config.distrib_gpu = gpu;
    config.threads_per_block = 128;
    const auto backend = make_planned_backend(config, PlannerOptions{});
    const std::string expected_name =
        gpu ? "distrib-x3[gpusim]" : "distrib-x3[cpu-single-scan]";
    EXPECT_EQ(backend->name(), expected_name);
    const auto result = backend->count(request);
    EXPECT_EQ(result.counts, expected.counts) << expected_name;
    if (gpu) {
      EXPECT_GT(result.simulated_kernel_ms, 0.0);
    }
  }
}

TEST(AutoBackend, MakeBackendSpellsDistribAndOpensTheDeviceAxis) {
  service::BackendSpec spec;
  spec.name = "distrib";
  spec.shards = 3;
  EXPECT_EQ(service::make_backend(spec)->name(), "distrib-x3[cpu-single-scan]");

  spec.name = "distrib-gpu";
  spec.shards = 0;  // defaults to the GX2's two dies
  EXPECT_EQ(service::make_backend(spec)->name(), "distrib-x2[gpusim]");

  spec.name = "auto";
  spec.shards = 3;
  const PlannerOptions options = service::planner_options_for(spec);
  EXPECT_EQ(options.device_sweep, (std::vector<int>{1, 2, 3}));

  // The paper's level-3 workload, as planner_explain builds it.  What "auto"
  // plans with is scored in host wall-clock only: the serial and single-scan
  // rows plus one host distrib row per opened shard count.
  Workload paper_l3 = basic_workload();
  paper_l3.episode_count = 15'600;
  paper_l3.level = 3;
  paper_l3.prefix_compression =
      core::prefix_compression(core::all_distinct_episodes(core::Alphabet(26), 3));
  std::vector<std::string> rows;
  for (const ScoredCandidate& c : plan_level(paper_l3, options).table) {
    EXPECT_NE(c.config.kind, BackendKind::kGpuSim) << c.config.label();
    EXPECT_FALSE(c.config.distrib_gpu) << c.config.label();
    rows.push_back(c.config.label());
  }
  std::sort(rows.begin(), rows.end());
  EXPECT_EQ(rows, (std::vector<std::string>{"cpu-serial", "cpu-single-scan", "distrib-x1",
                                            "distrib-x2", "distrib-x3"}));

  // The paper-reproduction drivers build PlannerOptions{} directly and keep
  // ranking the simulated device by modeled ms.
  EXPECT_EQ(plan_level(paper_l3, PlannerOptions{}).winner().config.label(),
            "gpusim-algo5-trie/t128");

  const auto names = service::backend_names();
  EXPECT_NE(std::find(names.begin(), names.end(), "distrib"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "distrib-gpu"), names.end());
}

TEST(AutoBackend, MakeBackendSpellsAuto) {
  service::BackendSpec spec;
  spec.name = "auto";
  spec.card = "8800";
  const auto backend = service::make_backend(spec);
  ASSERT_NE(dynamic_cast<AutoBackend*>(backend.get()), nullptr);
  EXPECT_EQ(backend->max_level(), 0);  // CPU fallback keeps it unbounded

  const auto names = service::backend_names();
  EXPECT_NE(std::find(names.begin(), names.end(), "auto"), names.end());

  // The retired host formulations are unknown names, and the rejection
  // lists every name that remains.
  for (const char* removed : {"cpu-parallel", "cpu-sharded", "cpu-trie-scan", "parallel"}) {
    EXPECT_EQ(std::find(names.begin(), names.end(), removed), names.end()) << removed;
    spec.name = removed;
    try {
      (void)service::make_backend(spec);
      ADD_FAILURE() << removed << " still constructs";
    } catch (const gm::PreconditionError& e) {
      const std::string message = e.what();
      for (const auto name : names) {
        EXPECT_NE(message.find(std::string(name)), std::string::npos) << message;
      }
    }
  }
}

}  // namespace
}  // namespace gm::planner
