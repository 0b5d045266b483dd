#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "harness/shard.h"
#include "harness/sweep.h"
#include "support/parallel.h"
#include "support/strings.h"
#include "workload/kernels.h"
#include "workload/suite.h"
#include "workload/synth.h"

namespace qvliw {
namespace {

// A sweep mixing shared and distinct prefixes: plain single-cluster,
// queue-limit enforcement (same prefix), policy unrolling, the three
// clustered heuristics over one unrolled front end, the moves router, and
// a simulated point.
std::vector<SweepPoint> demo_points() {
  std::vector<SweepPoint> points;

  points.push_back({"single-6fu", MachineConfig::single_cluster_machine(6), {}});

  SweepPoint limits{"single-6fu-limits", MachineConfig::single_cluster_machine(6), {}};
  limits.options.enforce_queue_limits = true;
  points.push_back(limits);

  SweepPoint unrolled{"single-12fu-unroll", MachineConfig::single_cluster_machine(12), {}};
  unrolled.options.unroll = true;
  points.push_back(unrolled);

  SweepPoint ring{"ring4-affinity", MachineConfig::clustered_machine(4), {}};
  ring.options.unroll = true;
  ring.options.scheduler = SchedulerKind::kClustered;
  points.push_back(ring);

  SweepPoint ring_lb = ring;
  ring_lb.label = "ring4-loadbalance";
  ring_lb.options.heuristic = ClusterHeuristic::kLoadBalance;
  points.push_back(ring_lb);

  SweepPoint moves = ring;
  moves.label = "ring4-moves";
  moves.options.scheduler = SchedulerKind::kClusteredMoves;
  points.push_back(moves);

  SweepPoint sim{"single-6fu-sim", MachineConfig::single_cluster_machine(6), {}};
  sim.options.simulate = true;
  sim.options.sim_trip = 8;
  points.push_back(sim);

  return points;
}

// Every semantic field of LoopResult.  stage_times is deliberately
// excluded: wall time is measurement, not outcome.  `compare_effort`
// additionally covers ImsStats — schedules installed by the MII-optimality
// ladder memo are bit-identical with less search, so effort is compared
// only when both sides actually searched
// (warm_started false on both).
void expect_identical(const LoopResult& a, const LoopResult& b, const std::string& where,
                      bool compare_effort = true) {
  EXPECT_EQ(a.name, b.name) << where;
  EXPECT_EQ(a.ok, b.ok) << where;
  EXPECT_EQ(a.failure, b.failure) << where;
  EXPECT_EQ(a.failed_stage, b.failed_stage) << where;
  EXPECT_EQ(a.src_ops, b.src_ops) << where;
  EXPECT_EQ(a.sched_ops, b.sched_ops) << where;
  EXPECT_EQ(a.copies, b.copies) << where;
  EXPECT_EQ(a.moves, b.moves) << where;
  EXPECT_EQ(a.unroll_factor, b.unroll_factor) << where;
  EXPECT_EQ(a.res_mii, b.res_mii) << where;
  EXPECT_EQ(a.rec_mii, b.rec_mii) << where;
  EXPECT_EQ(a.mii, b.mii) << where;
  EXPECT_EQ(a.ii, b.ii) << where;
  EXPECT_EQ(a.stage_count, b.stage_count) << where;
  EXPECT_EQ(a.ii_per_source, b.ii_per_source) << where;
  EXPECT_EQ(a.ipc_static, b.ipc_static) << where;
  EXPECT_EQ(a.ipc_dynamic, b.ipc_dynamic) << where;
  EXPECT_EQ(a.total_queues, b.total_queues) << where;
  EXPECT_EQ(a.max_private_queues, b.max_private_queues) << where;
  EXPECT_EQ(a.max_segment_queues, b.max_segment_queues) << where;
  EXPECT_EQ(a.max_positions, b.max_positions) << where;
  EXPECT_EQ(a.registers, b.registers) << where;
  EXPECT_EQ(a.fits_machine_queues, b.fits_machine_queues) << where;
  EXPECT_EQ(a.queue_fit_retries, b.queue_fit_retries) << where;
  EXPECT_EQ(a.sim_ok, b.sim_ok) << where;
  EXPECT_EQ(a.sim_cycles, b.sim_cycles) << where;
  EXPECT_EQ(a.backend, b.backend) << where;
  if (compare_effort && !a.warm_started && !b.warm_started) {
    EXPECT_EQ(a.sched_stats.placements, b.sched_stats.placements) << where;
    EXPECT_EQ(a.sched_stats.evictions, b.sched_stats.evictions) << where;
    EXPECT_EQ(a.sched_stats.ii_attempts, b.sched_stats.ii_attempts) << where;
    EXPECT_EQ(a.sched_stats.forced, b.sched_stats.forced) << where;
    EXPECT_EQ(a.sched_stats.budget_spent, b.sched_stats.budget_spent) << where;
    EXPECT_EQ(a.sched_stats.mii_optimal, b.sched_stats.mii_optimal) << where;
  }
}

// Every SweepCacheStats counter.  Each task tallies its own accounting and
// the runner folds the tallies in loop order once the pool drains, so no
// counter may depend on the worker count.
void expect_same_accounting(const SweepCacheStats& a, const SweepCacheStats& b,
                            const std::string& where) {
  EXPECT_EQ(a.invariant_probes, b.invariant_probes) << where;
  EXPECT_EQ(a.invariant_hits, b.invariant_hits) << where;
  EXPECT_EQ(a.unroll_probes, b.unroll_probes) << where;
  EXPECT_EQ(a.unroll_hits, b.unroll_hits) << where;
  EXPECT_EQ(a.front_probes, b.front_probes) << where;
  EXPECT_EQ(a.front_hits, b.front_hits) << where;
  EXPECT_EQ(a.mii_probes, b.mii_probes) << where;
  EXPECT_EQ(a.mii_hits, b.mii_hits) << where;
  EXPECT_EQ(a.disk_probes, b.disk_probes) << where;
  EXPECT_EQ(a.disk_hits, b.disk_hits) << where;
  EXPECT_EQ(a.mii_disk_probes, b.mii_disk_probes) << where;
  EXPECT_EQ(a.mii_disk_hits, b.mii_disk_hits) << where;
  EXPECT_EQ(a.probe_factors, b.probe_factors) << where;
  EXPECT_EQ(a.probe_fallbacks, b.probe_fallbacks) << where;
  EXPECT_EQ(a.verify_memo_probes, b.verify_memo_probes) << where;
  EXPECT_EQ(a.verify_memo_hits, b.verify_memo_hits) << where;
  EXPECT_EQ(a.alloc_memo_probes, b.alloc_memo_probes) << where;
  EXPECT_EQ(a.alloc_memo_hits, b.alloc_memo_hits) << where;
  EXPECT_EQ(a.sched_memo_probes, b.sched_memo_probes) << where;
  EXPECT_EQ(a.sched_memo_hits, b.sched_memo_hits) << where;
  EXPECT_EQ(a.fallback_runs, b.fallback_runs) << where;
}

TEST(Sweep, GoldenEquivalenceWithDirectPipeline) {
  const Suite suite = small_suite(8, 7);
  const std::vector<SweepPoint> points = demo_points();

  SweepOptions uncached_options;
  uncached_options.use_cache = false;
  const SweepResult cached = SweepRunner().run(suite.loops, points);
  const SweepResult uncached = SweepRunner(uncached_options).run(suite.loops, points);

  ASSERT_EQ(cached.by_point.size(), points.size());
  ASSERT_EQ(uncached.by_point.size(), points.size());
  for (std::size_t p = 0; p < points.size(); ++p) {
    ASSERT_EQ(cached.by_point[p].size(), suite.loops.size());
    for (std::size_t i = 0; i < suite.loops.size(); ++i) {
      const LoopResult direct =
          run_pipeline(suite.loops[i], points[p].machine, points[p].options);
      const std::string where = points[p].label + " / " + suite.loops[i].name;
      expect_identical(cached.by_point[p][i], direct, "cached: " + where);
      expect_identical(uncached.by_point[p][i], direct, "uncached: " + where);
    }
  }

  EXPECT_GT(cached.cache.hits(), 0u);
  EXPECT_EQ(uncached.cache.probes(), 0u);
  EXPECT_EQ(cached.pipelines, points.size() * suite.loops.size());
}

TEST(Sweep, CacheHitMissAccounting) {
  SynthConfig config;
  config.loops = 10;
  config.seed = 21;
  const std::vector<Loop> loops = synthesize_suite(config);
  const std::uint64_t n = loops.size();

  const MachineConfig machine = MachineConfig::clustered_machine(4);
  PipelineOptions affinity;
  affinity.scheduler = SchedulerKind::kClustered;
  PipelineOptions balance = affinity;
  balance.heuristic = ClusterHeuristic::kLoadBalance;
  PipelineOptions first_fit = affinity;
  first_fit.heuristic = ClusterHeuristic::kFirstFit;
  PipelineOptions no_copies = affinity;  // distinct front prefix
  no_copies.insert_copies = false;

  const SweepResult sweep =
      SweepRunner().run(loops, machine, {affinity, balance, first_fit, no_copies});

  // Front level: four probes per loop; the 2nd and 3rd point hit the 1st
  // point's entry, the no-copies point misses.
  EXPECT_EQ(sweep.cache.front_probes, 4 * n);
  EXPECT_EQ(sweep.cache.front_hits, 2 * n);
  // Shallower levels are consulted only on a front miss (two per loop);
  // the no-copies point reuses the cached invariant/unroll artifacts.
  EXPECT_EQ(sweep.cache.invariant_probes, 2 * n);
  EXPECT_EQ(sweep.cache.invariant_hits, n);
  EXPECT_EQ(sweep.cache.unroll_probes, 2 * n);
  EXPECT_EQ(sweep.cache.unroll_hits, n);
  // MII bounds: one computation per distinct front entry and machine.
  EXPECT_EQ(sweep.cache.mii_probes, 4 * n);
  EXPECT_EQ(sweep.cache.mii_hits, 2 * n);
  EXPECT_GT(sweep.cache.hit_rate(), 0.0);
}

TEST(Sweep, SerialMatchesParallel) {
  const Suite suite = small_suite(6, 11);
  SweepPoint point{"single-6fu", MachineConfig::single_cluster_machine(6), {}};
  SweepOptions serial_options;
  serial_options.workers = 1;
  const SweepResult parallel = SweepRunner().run(suite.loops, {point});
  const SweepResult serial = SweepRunner(serial_options).run(suite.loops, {point});
  ASSERT_EQ(parallel.by_point[0].size(), serial.by_point[0].size());
  for (std::size_t i = 0; i < suite.loops.size(); ++i) {
    expect_identical(parallel.by_point[0][i], serial.by_point[0][i], suite.loops[i].name);
  }
}

// The tentpole determinism contract: the multi-threaded sweep is
// fingerprint-identical to the serial sweep at every worker count.
// Explicit worker counts build that many real threads even above the
// core count, so this exercises true concurrency on any machine.
TEST(Sweep, FingerprintIdenticalAcrossWorkerCounts) {
  const Suite suite = small_suite(8, 41);
  const std::vector<SweepPoint> points = demo_points();

  SweepOptions serial_options;
  serial_options.workers = 1;
  const SweepResult serial = SweepRunner(serial_options).run(suite.loops, points);
  const std::string oracle = sweep_result_fingerprint(serial);

  for (const int workers : {1, 2, 4, 8}) {
    SweepOptions options;
    options.workers = workers;
    EXPECT_EQ(resolved_sweep_workers(options), workers);
    const SweepResult threaded = SweepRunner(options).run(suite.loops, points);
    EXPECT_EQ(sweep_result_fingerprint(threaded), oracle) << workers << " workers";
    expect_same_accounting(threaded.cache, serial.cache, cat(workers, " workers"));
    EXPECT_EQ(threaded.pipelines, serial.pipelines) << workers << " workers";
  }
  EXPECT_GT(serial.cache.hits(), 0u);
  EXPECT_GT(serial.cache.alloc_memo_probes, 0u);
  EXPECT_GT(serial.cache.sched_memo_probes, 0u);
}

// The same contract through the disk store, the budget-ladder memo and
// full verification: each worker count gets its own scratch store (a
// shared one would let an earlier count warm a later one), runs cold then
// warm, and both fingerprints and every accounting counter must match the
// serial oracle's.
TEST(Sweep, WarmStoreFingerprintIdenticalAcrossWorkerCounts) {
  const Suite suite = small_suite(6, 43);
  std::vector<SweepPoint> points;
  for (const int budget : {6, 12}) {
    SweepPoint ring{cat("ring4-aff-", budget), MachineConfig::clustered_machine(4), {}};
    ring.options.unroll = true;
    ring.options.scheduler = SchedulerKind::kClustered;
    ring.options.ims.budget_ratio = budget;
    points.push_back(ring);
  }

  const std::filesystem::path scratch =
      std::filesystem::temp_directory_path() / "qvliw_test_workers_store";
  std::filesystem::remove_all(scratch);

  SweepResult cold_oracle;
  SweepResult warm_oracle;
  for (const int workers : {1, 2, 4, 8}) {
    SweepOptions options;
    options.workers = workers;
    options.store_dir = (scratch / cat("w", workers)).string();
    options.verify_mode = SweepVerifyMode::kFull;
    SweepResult cold = SweepRunner(options).run(suite.loops, points);
    SweepResult warm = SweepRunner(options).run(suite.loops, points);
    EXPECT_EQ(cold.cache.disk_hits, 0u) << workers << " workers";
    EXPECT_GT(warm.cache.disk_hits, 0u) << workers << " workers";
    if (workers == 1) {
      // The store holds front entries only: MII bounds never touch disk.
      EXPECT_EQ(warm.cache.mii_disk_probes, 0u);
      EXPECT_EQ(warm.cache.mii_disk_hits, 0u);
      EXPECT_GT(cold.cache.verify_memo_probes, 0u);
      EXPECT_GT(cold.cache.sched_memo_hits, 0u);
      cold_oracle = std::move(cold);
      warm_oracle = std::move(warm);
      continue;
    }
    EXPECT_EQ(sweep_result_fingerprint(cold), sweep_result_fingerprint(cold_oracle))
        << workers << " workers cold";
    EXPECT_EQ(sweep_result_fingerprint(warm), sweep_result_fingerprint(warm_oracle))
        << workers << " workers warm";
    expect_same_accounting(cold.cache, cold_oracle.cache, cat(workers, " workers cold"));
    expect_same_accounting(warm.cache, warm_oracle.cache, cat(workers, " workers warm"));
  }
  std::filesystem::remove_all(scratch);
}

// Strict-verify perf sweeps off the paper's ring: the three-heuristic x
// budget {6, 12} ladder on a 3x3 mesh and on a 4-cluster crossbar, over a
// fixed 120-loop suite at two workers.  Each sweep is run twice; the two
// fingerprints must agree, some bundles must be verified, and none may
// violate a machine rule.
TEST(Sweep, StrictTopologySweepsAreRerunStable) {
  SynthConfig config;
  config.loops = 120;
  const Suite suite = full_suite(config);
  for (const auto& [kind, clusters] :
       {std::pair{TopologyKind::kMesh, 9}, std::pair{TopologyKind::kCrossbar, 4}}) {
    const MachineConfig machine = MachineConfig::topology_machine(kind, clusters);
    const std::string where = cat(topology_kind_name(kind), "-", clusters);
    std::vector<SweepPoint> points;
    for (const ClusterHeuristic heuristic :
         {ClusterHeuristic::kAffinity, ClusterHeuristic::kLoadBalance,
          ClusterHeuristic::kFirstFit}) {
      for (const int budget : {6, 12}) {
        SweepPoint point{cat(where, "-", cluster_heuristic_name(heuristic), "-", budget, "x"),
                         machine, {}};
        point.options.unroll = true;
        point.options.scheduler = SchedulerKind::kClustered;
        point.options.heuristic = heuristic;
        point.options.ims.budget_ratio = budget;
        points.push_back(point);
      }
    }

    SweepOptions options;
    options.workers = 2;
    options.verify_mode = SweepVerifyMode::kStrict;
    const SweepResult first = SweepRunner(options).run(suite.loops, points);
    const SweepResult second = SweepRunner(options).run(suite.loops, points);
    EXPECT_EQ(sweep_result_fingerprint(first), sweep_result_fingerprint(second)) << where;
    EXPECT_GT(first.verify_checked(), 0u) << where;
    EXPECT_EQ(first.verify_violations(), 0u) << where;
    EXPECT_EQ(second.verify_violations(), 0u) << where;
  }
}

// An explicit pool composes with the workers knob: a caller-owned pool
// wins over both the workers count and the shared pool, and the results
// still match serial.
TEST(Sweep, CallerOwnedPoolMatchesSerial) {
  const Suite suite = small_suite(6, 47);
  SweepPoint point{"single-6fu", MachineConfig::single_cluster_machine(6), {}};

  ThreadPool pool(3);
  SweepOptions pool_options;
  pool_options.pool = &pool;
  pool_options.workers = 8;  // ignored: the pool's own width wins
  EXPECT_EQ(resolved_sweep_workers(pool_options), 3);

  SweepOptions serial_options;
  serial_options.workers = 1;
  const SweepResult pooled = SweepRunner(pool_options).run(suite.loops, {point});
  const SweepResult serial = SweepRunner(serial_options).run(suite.loops, {point});
  EXPECT_EQ(sweep_result_fingerprint(pooled), sweep_result_fingerprint(serial));
}

TEST(Sweep, StageTotalsCoverBackEnd) {
  const Suite suite = small_suite(4, 13);
  SweepPoint point{"single-6fu", MachineConfig::single_cluster_machine(6), {}};
  const SweepResult sweep = SweepRunner().run(suite.loops, {point});
  EXPECT_GT(sweep.stage_seconds("schedule"), 0.0);
  EXPECT_GT(sweep.stage_seconds("queue_alloc"), 0.0);
  EXPECT_GT(sweep.wall_seconds, 0.0);
  EXPECT_GT(sweep.pipelines_per_second(), 0.0);
  EXPECT_EQ(sweep.stage_seconds("no-such-stage"), 0.0);
}

TEST(Sweep, PrefixKeyDomainsAreDisjoint) {
  // Regression for the additive-salt aliasing: a forced factor of
  // 0x1100 + m used to land in the policy branch's salt range for
  // max_unroll m, letting two structurally different prefixes share one
  // cache slot.
  const MachineConfig machine = MachineConfig::clustered_machine(4);
  for (const int m : {1, 4, 8, 16}) {
    SweepPoint forced{"forced", machine, {}};
    forced.options.unroll = true;
    forced.options.forced_unroll = 0x1100 + m;
    SweepPoint policy{"policy", machine, {}};
    policy.options.unroll = true;
    policy.options.max_unroll = m;
    const SweepPrefixKeys fk = sweep_prefix_keys(forced);
    const SweepPrefixKeys pk = sweep_prefix_keys(policy);
    EXPECT_NE(fk.unroll, pk.unroll) << m;
    EXPECT_NE(fk.front, pk.front) << m;
  }

  // The three unroll branches are pairwise distinct for ordinary options.
  SweepPoint off{"off", machine, {}};
  SweepPoint forced2{"forced2", machine, {}};
  forced2.options.unroll = true;
  forced2.options.forced_unroll = 2;
  SweepPoint policy8{"policy8", machine, {}};
  policy8.options.unroll = true;
  const SweepPrefixKeys off_keys = sweep_prefix_keys(off);
  const SweepPrefixKeys forced_keys = sweep_prefix_keys(forced2);
  const SweepPrefixKeys policy_keys = sweep_prefix_keys(policy8);
  EXPECT_NE(off_keys.unroll, forced_keys.unroll);
  EXPECT_NE(off_keys.unroll, policy_keys.unroll);
  EXPECT_NE(forced_keys.unroll, policy_keys.unroll);
}

TEST(Sweep, FailingPrefixComputedOnceWithExactParity) {
  // A machine with no multiplier: loops using kMul fail in the unroll
  // stage (the factor policy's feasibility check), which is a front-end
  // failure shared by every point of the prefix.
  MachineConfig machine = MachineConfig::single_cluster_machine(6);
  for (ClusterConfig& cluster : machine.clusters) cluster.fus(FuKind::kMul) = 0;
  machine.name = "no-mul";

  std::vector<Loop> loops;
  for (const Loop& loop : kernel_corpus()) loops.push_back(loop);

  std::vector<SweepPoint> points;
  for (const int budget : {4, 6, 12}) {
    SweepPoint point{"nm", machine, {}};
    point.options.unroll = true;
    point.options.ims.budget_ratio = budget;
    points.push_back(point);
  }

  SweepOptions uncached_options;
  uncached_options.use_cache = false;
  const SweepResult cached = SweepRunner().run(loops, points);
  const SweepResult uncached = SweepRunner(uncached_options).run(loops, points);

  bool saw_failure = false;
  for (std::size_t p = 0; p < points.size(); ++p) {
    for (std::size_t i = 0; i < loops.size(); ++i) {
      const LoopResult direct = run_pipeline(loops[i], points[p].machine, points[p].options);
      const std::string where = cat("point ", p, " / ", loops[i].name);
      expect_identical(cached.by_point[p][i], direct, "cached: " + where);
      expect_identical(uncached.by_point[p][i], direct, "uncached: " + where);
      // Loops using the missing FU class fail in the unroll stage (the
      // factor policy's feasibility check) — a front-end failure; mul-free
      // kernels only fail later, in the back end, when IMS validates the
      // machine.  Only the former exercises failure-provenance caching.
      if (direct.failed_stage == "unroll") saw_failure = true;
    }
  }
  EXPECT_TRUE(saw_failure);

  // The failing prefix is computed once per loop and *replayed*; nothing
  // falls back to the monolithic pipeline per point any more.
  EXPECT_EQ(cached.cache.fallback_runs, 0u);
  EXPECT_EQ(cached.cache.front_probes, points.size() * loops.size());
  EXPECT_EQ(cached.cache.front_hits, (points.size() - 1) * loops.size());
}

TEST(Sweep, DiskStoreWarmStartIsBitIdentical) {
  const std::filesystem::path store_dir =
      std::filesystem::temp_directory_path() / "qvliw_test_store";
  std::filesystem::remove_all(store_dir);

  const Suite suite = small_suite(6, 19);
  const std::vector<SweepPoint> points = demo_points();

  SweepOptions disk_options;
  disk_options.store_dir = store_dir.string();
  const SweepResult cold = SweepRunner(disk_options).run(suite.loops, points);
  const SweepResult warm = SweepRunner(disk_options).run(suite.loops, points);
  const SweepResult oracle = SweepRunner().run(suite.loops, points);

  EXPECT_EQ(cold.cache.disk_hits, 0u);
  EXPECT_GT(cold.cache.disk_probes, 0u);
  EXPECT_GT(warm.cache.disk_hits, 0u);
  EXPECT_EQ(warm.cache.disk_hits, warm.cache.disk_probes);  // fully warm

  // Front entries only: one *.qart per cold disk probe under the fan-out
  // directories, and nothing else (no MII blobs, no version markers).
  std::uint64_t entries = 0;
  for (const auto& top : std::filesystem::directory_iterator(store_dir)) {
    EXPECT_TRUE(top.is_directory()) << top.path();
  }
  for (const auto& file : std::filesystem::recursive_directory_iterator(store_dir)) {
    if (file.is_directory()) continue;
    EXPECT_EQ(file.path().extension(), ".qart") << file.path();
    ++entries;
  }
  EXPECT_EQ(entries, cold.cache.disk_probes);

  for (std::size_t p = 0; p < points.size(); ++p) {
    for (std::size_t i = 0; i < suite.loops.size(); ++i) {
      const std::string where = points[p].label + " / " + suite.loops[i].name;
      expect_identical(warm.by_point[p][i], oracle.by_point[p][i], "warm: " + where);
      expect_identical(cold.by_point[p][i], oracle.by_point[p][i], "cold: " + where);
    }
  }
  std::filesystem::remove_all(store_dir);
}

TEST(Sweep, DiskStorePersistsFailingPrefixes) {
  const std::filesystem::path store_dir =
      std::filesystem::temp_directory_path() / "qvliw_test_store_fail";
  std::filesystem::remove_all(store_dir);

  MachineConfig machine = MachineConfig::single_cluster_machine(6);
  for (ClusterConfig& cluster : machine.clusters) cluster.fus(FuKind::kMul) = 0;

  std::vector<Loop> loops = {kernel_by_name("dot"), kernel_by_name("daxpy")};
  SweepPoint point{"nm", machine, {}};
  point.options.unroll = true;

  SweepOptions disk_options;
  disk_options.store_dir = store_dir.string();
  const SweepResult cold = SweepRunner(disk_options).run(loops, {point});
  const SweepResult warm = SweepRunner(disk_options).run(loops, {point});

  EXPECT_GT(warm.cache.disk_hits, 0u);
  for (std::size_t i = 0; i < loops.size(); ++i) {
    const LoopResult direct = run_pipeline(loops[i], machine, point.options);
    EXPECT_FALSE(direct.ok) << loops[i].name;
    expect_identical(warm.by_point[0][i], direct, "warm: " + loops[i].name);
  }
  std::filesystem::remove_all(store_dir);
}

TEST(Sweep, DiskStoreToleratesCorruptEntries) {
  const std::filesystem::path store_dir =
      std::filesystem::temp_directory_path() / "qvliw_test_store_corrupt";
  std::filesystem::remove_all(store_dir);

  const Suite suite = small_suite(4, 23);
  SweepPoint point{"single-6fu", MachineConfig::single_cluster_machine(6), {}};
  point.options.unroll = true;

  SweepOptions disk_options;
  disk_options.store_dir = store_dir.string();
  const SweepResult cold = SweepRunner(disk_options).run(suite.loops, {point});
  ASSERT_GT(cold.cache.disk_probes, 0u);

  // Truncate every stored blob; the warm run must fall back to computing.
  for (const auto& entry : std::filesystem::recursive_directory_iterator(store_dir)) {
    if (!entry.is_regular_file()) continue;
    std::ofstream out(entry.path(), std::ios::binary | std::ios::trunc);
    out << "xx";
  }
  const SweepResult warm = SweepRunner(disk_options).run(suite.loops, {point});
  EXPECT_EQ(warm.cache.disk_hits, 0u);
  const SweepResult oracle = SweepRunner().run(suite.loops, {point});
  for (std::size_t i = 0; i < suite.loops.size(); ++i) {
    expect_identical(warm.by_point[0][i], oracle.by_point[0][i], suite.loops[i].name);
  }

  // Every truncation and every single-bit flip of one stored front entry
  // must read as a miss: the warm run recomputes (disk_hits 0) and equals
  // the uncached oracle.  Without the entry's payload checksum, flips that
  // still decode to a valid loop would be replayed.
  std::filesystem::remove_all(store_dir);
  const std::vector<Loop> dot = {kernel_by_name("dot")};
  const SweepPoint dot_point{"single-6fu", MachineConfig::single_cluster_machine(6), {}};
  const SweepResult dot_cold = SweepRunner(disk_options).run(dot, {dot_point});
  ASSERT_EQ(dot_cold.cache.disk_probes, 1u);
  const std::string dot_oracle = sweep_result_fingerprint(SweepRunner().run(dot, {dot_point}));

  std::filesystem::path entry;
  for (const auto& file : std::filesystem::recursive_directory_iterator(store_dir)) {
    if (file.is_regular_file()) entry = file.path();
  }
  ASSERT_FALSE(entry.empty());
  std::string original;
  {
    std::ifstream in(entry, std::ios::binary);
    original.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  ASSERT_FALSE(original.empty());

  // A warm run recomputes and re-saves the entry, so each mutant is
  // written just before its run.
  std::size_t replayed = 0, diverged = 0;
  std::string first_bad;
  const auto run_mutant = [&](const std::string& bytes, const std::string& what) {
    {
      std::ofstream out(entry, std::ios::binary | std::ios::trunc);
      out << bytes;
    }
    const SweepResult mutant = SweepRunner(disk_options).run(dot, {dot_point});
    const bool hit = mutant.cache.disk_hits != 0;
    const bool differs = sweep_result_fingerprint(mutant) != dot_oracle;
    replayed += hit ? 1 : 0;
    diverged += differs ? 1 : 0;
    if ((hit || differs) && first_bad.empty()) first_bad = what;
  };
  for (std::size_t length = 0; length < original.size(); ++length) {
    run_mutant(original.substr(0, length), cat("truncated to ", length));
  }
  for (std::size_t bit = 0; bit < 8 * original.size(); ++bit) {
    std::string flipped = original;
    flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
    run_mutant(flipped, cat("bit ", bit, " flipped"));
  }
  EXPECT_EQ(replayed, 0u) << "first: " << first_bad;
  EXPECT_EQ(diverged, 0u) << "first: " << first_bad;
  std::filesystem::remove_all(store_dir);
}

// Memoised budget ladders: same machine and scheduler options with
// ascending budget_ratio.  Outcomes must be bit-identical to the uncached
// sweep (an installed MII-optimal schedule only skips the search that
// would rediscover it), with the sched-memo counters showing the skips
// happened.
TEST(Sweep, WarmStartLadderMatchesColdSweep) {
  const Suite suite = small_suite(8, 31);

  std::vector<SweepPoint> points;
  for (const int budget : {3, 6, 12}) {
    SweepPoint ring{cat("ring4-aff-", budget), MachineConfig::clustered_machine(4), {}};
    ring.options.unroll = true;
    ring.options.scheduler = SchedulerKind::kClustered;
    ring.options.ims.budget_ratio = budget;
    points.push_back(ring);
  }
  for (const int budget : {6, 12}) {
    SweepPoint single{cat("single6-", budget), MachineConfig::single_cluster_machine(6), {}};
    single.options.ims.budget_ratio = budget;
    points.push_back(single);
  }
  // A moves point rides along: the moves router declines seeds, so the memo
  // must neither probe for it nor install into it.
  SweepPoint moves{"ring4-moves", MachineConfig::clustered_machine(4), {}};
  moves.options.unroll = true;
  moves.options.scheduler = SchedulerKind::kClusteredMoves;
  points.push_back(moves);
  const std::size_t moves_point = points.size() - 1;

  const SweepResult cached = SweepRunner().run(suite.loops, points);
  SweepOptions uncached_options;
  uncached_options.use_cache = false;
  const SweepResult uncached = SweepRunner(uncached_options).run(suite.loops, points);

  std::uint64_t seedable_cells = 0;  // non-moves cells that reached the scheduler
  for (std::size_t p = 0; p < points.size(); ++p) {
    for (std::size_t i = 0; i < suite.loops.size(); ++i) {
      const LoopResult& m = cached.by_point[p][i];
      const LoopResult& c = uncached.by_point[p][i];
      const std::string where = points[p].label + " / " + suite.loops[i].name;
      expect_identical(m, c, where, /*compare_effort=*/false);
      if (p == moves_point) {
        EXPECT_FALSE(m.warm_started) << where;
      } else if (!m.backend.empty()) {
        ++seedable_cells;
      }
    }
  }
  EXPECT_GT(cached.cache.sched_memo_hits, 0u);
  EXPECT_EQ(cached.cache.sched_memo_probes, seedable_cells);
  EXPECT_EQ(uncached.cache.sched_memo_probes, 0u);

  // The skipped searches are visible as scheduling effort saved.
  long long cached_placements = 0, uncached_placements = 0;
  for (std::size_t p = 0; p < points.size(); ++p) {
    for (std::size_t i = 0; i < suite.loops.size(); ++i) {
      cached_placements += cached.by_point[p][i].sched_stats.placements;
      uncached_placements += uncached.by_point[p][i].sched_stats.placements;
    }
  }
  EXPECT_LT(cached_placements, uncached_placements);
}

// Regression: scheduler kinds with different cache-key contributions must
// never share a sched-memo (or any schedule) cache slot, even when every
// other key component agrees.
TEST(Sweep, BackendContributionsNeverAliasCacheSlots) {
  const MachineConfig machine = MachineConfig::clustered_machine(4);

  SweepPoint clustered{"clustered", machine, {}};
  clustered.options.scheduler = SchedulerKind::kClustered;
  SweepPoint single = clustered;
  single.label = "single";
  single.options.scheduler = SchedulerKind::kSingleCluster;
  SweepPoint moves = clustered;
  moves.label = "moves";
  moves.options.scheduler = SchedulerKind::kClusteredMoves;
  SweepPoint balance = clustered;
  balance.label = "balance";
  balance.options.heuristic = ClusterHeuristic::kLoadBalance;

  const SweepPrefixKeys ck = sweep_prefix_keys(clustered);
  const SweepPrefixKeys sk = sweep_prefix_keys(single);
  const SweepPrefixKeys mk = sweep_prefix_keys(moves);
  const SweepPrefixKeys bk = sweep_prefix_keys(balance);

  // Identical front/machine keys (the points differ only in back end)...
  EXPECT_EQ(ck.front, sk.front);
  EXPECT_EQ(ck.front, mk.front);
  EXPECT_EQ(ck.machine, sk.machine);
  // ...but pairwise-distinct scheduler contributions.
  EXPECT_NE(ck.scheduler, sk.scheduler);
  EXPECT_NE(ck.scheduler, mk.scheduler);
  EXPECT_NE(sk.scheduler, mk.scheduler);
  EXPECT_NE(ck.scheduler, bk.scheduler);  // heuristic is part of the contribution

  // Budget is the ladder axis: same memo slot by design.
  SweepPoint bigger = clustered;
  bigger.options.ims.budget_ratio = 12;
  EXPECT_EQ(sweep_prefix_keys(bigger).scheduler, ck.scheduler);
}

// A ladder containing *duplicate* budgets, unsorted: the memo walks the
// task's points in point order, so which point installs which schedule
// is identical run-to-run, and the outcomes match the uncached sweep.
TEST(Sweep, WarmStartDeterministicWithDuplicateBudgets) {
  const Suite suite = small_suite(6, 71);

  std::vector<SweepPoint> points;
  for (const int budget : {6, 6, 12, 12, 6}) {  // duplicates, unsorted
    SweepPoint ring{cat("dup-", points.size()), MachineConfig::clustered_machine(4), {}};
    ring.options.unroll = true;
    ring.options.scheduler = SchedulerKind::kClustered;
    ring.options.ims.budget_ratio = budget;
    points.push_back(ring);
  }

  SweepOptions serial_options;
  serial_options.workers = 1;  // provenance must not need thread luck either
  const SweepResult first = SweepRunner(serial_options).run(suite.loops, points);
  const SweepResult second = SweepRunner(serial_options).run(suite.loops, points);

  EXPECT_GT(first.cache.sched_memo_probes, 0u);
  EXPECT_GT(first.cache.sched_memo_hits, 0u);
  EXPECT_EQ(first.cache.sched_memo_probes, second.cache.sched_memo_probes);
  EXPECT_EQ(first.cache.sched_memo_hits, second.cache.sched_memo_hits);
  for (std::size_t p = 0; p < points.size(); ++p) {
    for (std::size_t i = 0; i < suite.loops.size(); ++i) {
      const std::string where = points[p].label + " / " + suite.loops[i].name;
      // Provenance (which cells installed a memo schedule) is part of
      // the determinism contract, not just the outcomes.
      EXPECT_EQ(first.by_point[p][i].warm_started, second.by_point[p][i].warm_started) << where;
      expect_identical(first.by_point[p][i], second.by_point[p][i], where);
    }
  }

  SweepOptions uncached_options;
  uncached_options.use_cache = false;
  uncached_options.workers = 1;
  const SweepResult uncached = SweepRunner(uncached_options).run(suite.loops, points);
  for (std::size_t p = 0; p < points.size(); ++p) {
    for (std::size_t i = 0; i < suite.loops.size(); ++i) {
      expect_identical(first.by_point[p][i], uncached.by_point[p][i],
                       points[p].label + " / " + suite.loops[i].name,
                       /*compare_effort=*/false);
    }
  }
}

// Regression: a point that requests strict verification itself, run under
// a sweep whose verify_mode is also strict, used to verify every cell's
// artifact bundle from scratch even when an ascending-budget ladder
// accepted the identical schedule at both budgets.  The task-scoped
// artifact memo now replays the verdict (and the queue allocation) for
// repeated (loop, machine, schedule) bundles: probes count every request,
// hits count the deduped ones, and every cell still reports
// verify_checked with zero violations.
TEST(Sweep, StrictPointUnderStrictModeDedupesVerification) {
  SynthConfig config;
  config.loops = 6;
  config.seed = 17;
  const std::vector<Loop> loops = synthesize_suite(config);

  const MachineConfig machine = MachineConfig::single_cluster_machine(6);
  std::vector<SweepPoint> points;
  for (const int budget : {6, 12}) {
    SweepPoint point{cat("6fu-budget-", budget, "x"), machine, {}};
    point.options.verify = VerifyPolicy::kStrict;  // the point's own request
    point.options.ims.budget_ratio = budget;
    points.push_back(point);
  }

  SweepOptions options;
  options.use_cache = true;
  options.verify_mode = SweepVerifyMode::kStrict;  // the sweep's blanket policy
  const SweepResult sweep = SweepRunner(options).run(loops, points);

  // Every cell was verified exactly once from the caller's point of view...
  EXPECT_EQ(sweep.verify_checked(), loops.size() * points.size());
  EXPECT_EQ(sweep.verify_violations(), 0u);
  // ...but the budget ladder accepts identical schedules at 6x and 12x
  // (the budget only caps failed searches), so the second point's verify
  // and allocation replay from the memo instead of re-running.
  EXPECT_EQ(sweep.cache.verify_memo_probes, loops.size() * points.size());
  EXPECT_GT(sweep.cache.verify_memo_hits, 0u);
  EXPECT_GT(sweep.cache.alloc_memo_probes, 0u);
  EXPECT_GT(sweep.cache.alloc_memo_hits, 0u);

  // The memo must not change any semantic outcome: the same sweep with
  // the memo-less uncached path produces identical results.
  SweepOptions uncached = options;
  uncached.use_cache = false;
  const SweepResult baseline = SweepRunner(uncached).run(loops, points);
  EXPECT_EQ(baseline.cache.verify_memo_probes, 0u);
  ASSERT_EQ(sweep_result_fingerprint(sweep), sweep_result_fingerprint(baseline));
}

TEST(Sweep, RunSuiteWrapperMatchesSweep) {
  SynthConfig config;
  config.loops = 8;
  config.seed = 5;
  const std::vector<Loop> loops = synthesize_suite(config);
  const MachineConfig machine = MachineConfig::single_cluster_machine(6);
  const std::vector<LoopResult> via_suite = run_suite(loops, machine);
  const SweepResult via_sweep = SweepRunner().run(loops, machine, {PipelineOptions{}});
  ASSERT_EQ(via_suite.size(), via_sweep.by_point[0].size());
  for (std::size_t i = 0; i < loops.size(); ++i) {
    expect_identical(via_suite[i], via_sweep.by_point[0][i], loops[i].name);
  }
}

}  // namespace
}  // namespace qvliw
