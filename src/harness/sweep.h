// Sweep-level execution with prefix-artifact caching.
//
// Every figure of the paper is the same pipeline swept over ~1258 loops
// under varying options/machines.  `SweepRunner` executes the full
// (loop x sweep point) cross product, fanning loops across the worker
// pool, and exploits the stage graph's front/back split (harness/stage.h):
// sweep points that share an options *prefix* — same invariant strategy,
// same unroll choice, same copy insertion — reuse the cached
// post-transform loop, its DDG, and the MII bounds instead of recomputing
// them, and only the back end (schedule, queue allocation, simulation)
// runs per point.  With SweepOptions::store_dir set, the post-transform
// loop also persists on disk as a front entry, the store's one entry kind.
//
// Caching is per loop and lives on the worker that owns the loop, so it
// needs no locks; results are bit-identical with the cache on or off (a
// golden-equivalence test enforces this).  One task per loop runs on a
// thread pool (support/parallel.h; SweepOptions::workers).  Each task
// writes only its own loop's cells and returns its accounting in its own
// slot; once the pool drains the runner folds the slots in loop order, so
// results and cache accounting are identical at every worker count.
//
// Budget ladders (the same loop, machine and heuristic at rising IMS
// budgets) share one seeding path: the task-local MII-optimality memo
// (harness/stage.h TaskMemo::sched).  Once a point of the task accepts a
// schedule at II == MII, every later point of the same ladder with at
// least that budget installs it as a WarmStartSeed; the scheduler
// verifies the seed and skips the search that would rediscover it (see
// sched/ims.h).  Results are bit-identical to an unseeded sweep.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "harness/pipeline.h"

namespace qvliw {

class ThreadPool;  // support/parallel.h

/// One point of a sweep: a machine plus pipeline options, with a label
/// for reporting.
struct SweepPoint {
  std::string label;
  MachineConfig machine;
  PipelineOptions options;
};

/// Hit accounting per cached prefix level.  A "probe" is one lookup by
/// one (loop, point) pair; misses (probes - hits) are the computations
/// actually performed.
struct SweepCacheStats {
  std::uint64_t invariant_probes = 0, invariant_hits = 0;
  std::uint64_t unroll_probes = 0, unroll_hits = 0;
  std::uint64_t front_probes = 0, front_hits = 0;  // copy-inserted loop + DDG
  std::uint64_t mii_probes = 0, mii_hits = 0;

  /// On-disk artifact store tier (consulted on an in-memory front miss
  /// when SweepOptions::store_dir is set).  Kept out of probes()/hits():
  /// the store is a second-level cache, and folding it in would make the
  /// in-memory hit rate incomparable across runs with and without a store.
  std::uint64_t disk_probes = 0, disk_hits = 0;

  /// Always 0: the store persists front entries only, never MII bounds.
  /// Kept because perfbench still reads these fields.
  std::uint64_t mii_disk_probes = 0, mii_disk_hits = 0;

  /// Unroll-policy prober accounting: candidate factors examined, and how
  /// many probes had to fall back to the naive materialise-and-measure
  /// path because the incremental fast path could not be exact.
  std::uint64_t probe_factors = 0, probe_fallbacks = 0;

  /// Back-end artifact memo (harness/stage.h TaskMemo): queue allocation
  /// and verification keyed by the content hash of the accepted
  /// (loop, machine, schedule) bundle, scoped to one task.  A verify hit
  /// means an identical artifact bundle was verified earlier in the same
  /// task (typically budget-ladder points accepting the same schedule) and
  /// the verdict was replayed instead of re-simulating the FIFOs.
  std::uint64_t verify_memo_probes = 0, verify_memo_hits = 0;
  std::uint64_t alloc_memo_probes = 0, alloc_memo_hits = 0;

  /// MII-optimality short-circuit (TaskMemo::sched): per warm-capable
  /// point, one probe of the task-local map of schedules a sibling
  /// budget-ladder point already accepted at II == MII; a hit means the
  /// point installed that proven-optimal schedule instead of re-searching.
  /// The memo is the sweep's only schedule-seeding path, so every
  /// warm-started cell of a sweep is counted here.
  std::uint64_t sched_memo_probes = 0, sched_memo_hits = 0;

  /// Cached runs that re-ran the monolithic pipeline because the cached
  /// path threw Error outside the stage plan: compute_mii runs there and
  /// can throw (QVLIW_ASSERT in rec_mii), and re-running keeps the
  /// pipeline's exact failure result.  0 in normal operation — cached
  /// front-end *failures* are replayed from the cache, not re-run.
  std::uint64_t fallback_runs = 0;

  [[nodiscard]] std::uint64_t probes() const {
    return invariant_probes + unroll_probes + front_probes + mii_probes;
  }
  [[nodiscard]] std::uint64_t hits() const {
    return invariant_hits + unroll_hits + front_hits + mii_hits;
  }
  [[nodiscard]] double hit_rate() const;  // hits/probes; 0 when no probes

  SweepCacheStats& operator+=(const SweepCacheStats& other);
};

/// Wall time summed over every pipeline run of the sweep, per stage.
/// Front-end stages computed once per cache miss are charged once; "mii"
/// appears as its own entry when the runner pre-computes bounds for the
/// back end.
struct StageTotal {
  std::string stage;
  double seconds = 0.0;
};

/// Canonical ordering of aggregated per-stage seconds: the pipeline
/// stages in execution order first, any other stage alphabetically
/// after.  Shared by the sweep runner and the benchmark's single-caller
/// pass, so both order stage_totals identically.
[[nodiscard]] std::vector<StageTotal> ordered_stage_totals(
    std::map<std::string, double, std::less<>> totals);

/// Sweep-level translation validation (see PipelineOptions::verify).
/// Applied on top of each point's own verify policy — a mode can only
/// ever *strengthen* what the point asked for, never weaken it.
enum class SweepVerifyMode : std::uint8_t {
  kOff,     // leave every point's own policy untouched
  kSample,  // audit a deterministic 1-in-verify_sample_rate cell sample
  kFull,    // audit every cell
  kStrict,  // verify every cell; a violation fails the loop
};

[[nodiscard]] std::string_view sweep_verify_mode_name(SweepVerifyMode mode);

struct SweepOptions {
  bool use_cache = true;  // prefix-artifact caching across points

  /// Worker threads executing the sweep's tasks.  0 = auto (one per
  /// hardware thread, on the shared pool); 1 = serial; N > 1 = exactly N
  /// threads on a private pool, even when the machine has fewer cores
  /// (how tests exercise real concurrency on small runners).
  ///
  /// Determinism: a task (one loop, every point) is the unit of
  /// scheduling, and everything order-sensitive — per-loop caches, the
  /// budget-ladder memo — lives inside one task, so results are
  /// sweep_result_fingerprint-identical at every worker count.
  int workers = 0;

  /// Optional externally-owned pool to run tasks on (its size then wins
  /// over `workers`).  Null = pick per `workers` above.  The pool must
  /// outlive run().
  ThreadPool* pool = nullptr;

  /// Root directory of the persistent content-addressed artifact store
  /// (support/artifact_store.h); empty disables persistence.  Holds one
  /// front entry per (Loop::content_hash, front prefix key), so repeated
  /// invocations — including across processes and bench runs — reload the
  /// front end instead of recomputing it.  Requires use_cache.
  std::string store_dir;

  /// Sweep-level translation validation.  kSample audits a deterministic
  /// 1-in-verify_sample_rate subset of cells, chosen by hashing (loop
  /// index, point index) so the sample is identical at every worker
  /// count — verification never perturbs determinism contracts.
  /// kFull/kStrict cover every cell.
  SweepVerifyMode verify_mode = SweepVerifyMode::kOff;
  int verify_sample_rate = 16;  // kSample: 1 cell in N is audited
};

/// The worker-thread count SweepRunner::run will actually use under
/// `options`: the pool's size when one is supplied, `workers` when
/// explicit, hardware concurrency otherwise.
/// This (not SweepOptions::workers) is what benches report as their
/// `workers` field.
[[nodiscard]] int resolved_sweep_workers(const SweepOptions& options);

/// Level-by-level option-prefix hashes of one sweep point.  Derived once
/// per point by the runner; exposed so tests can assert key-domain
/// separation (distinct option prefixes must never share a key).
struct SweepPrefixKeys {
  std::uint64_t invariant = 0;
  std::uint64_t unroll = 0;
  std::uint64_t front = 0;
  std::uint64_t machine = 0;  // machine signature (MII cache key)

  /// The point's scheduler_cache_key: folded into every slot holding one
  /// of its schedules — the sched-memo key today — so scheduler kinds and
  /// options with different contributions never alias.
  std::uint64_t scheduler = 0;
};

[[nodiscard]] SweepPrefixKeys sweep_prefix_keys(const SweepPoint& point);

struct SweepResult {
  /// results[point][loop], index-aligned with the inputs.
  std::vector<std::vector<LoopResult>> by_point;
  SweepCacheStats cache;
  std::vector<StageTotal> stage_totals;
  double wall_seconds = 0.0;
  std::uint64_t pipelines = 0;  // loops x points executed

  [[nodiscard]] double pipelines_per_second() const;
  [[nodiscard]] double stage_seconds(std::string_view stage) const;

  /// Translation-validation roll-up over by_point: cells whose verify
  /// stage ran, and the summed violation count (0 on a legal sweep).
  [[nodiscard]] std::uint64_t verify_checked() const;
  [[nodiscard]] std::uint64_t verify_violations() const;
};

class SweepRunner {
 public:
  explicit SweepRunner(SweepOptions options = {});

  /// Executes the cross product of `loops` and `points`.
  [[nodiscard]] SweepResult run(const std::vector<Loop>& loops,
                                const std::vector<SweepPoint>& points) const;

  /// Cross product of `loops` with several options on one machine
  /// (labels are the point indices).
  [[nodiscard]] SweepResult run(const std::vector<Loop>& loops, const MachineConfig& machine,
                                const std::vector<PipelineOptions>& options_points) const;

 private:
  SweepOptions options_;
};

}  // namespace qvliw
