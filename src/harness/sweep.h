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
// runs per point.
//
// Caching is per loop and lives on the worker that owns the loop, so it
// needs no locks; results are bit-identical with the cache on or off (a
// golden-equivalence test enforces this).  With SweepOptions::workers
// tasks run on a thread pool (support/parallel.h) and every completed
// task is handed to a single committer thread (harness/checkpoint.h
// TaskCommitter) that owns journal appends, accounting merges, and the
// on_task_committed hook — results and cache accounting stay
// sweep_result_fingerprint-identical at every worker count.
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
#include <functional>
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

  /// Persistent MII-map tier: per-(loop, front prefix, machine) bounds
  /// consulted in the store on an in-memory MII miss.  Separate from the
  /// front-entry disk counters for the same comparability reason.
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

  /// Cached runs that abandoned the cached path entirely and re-ran the
  /// monolithic pipeline (exception escape hatch; 0 in normal operation —
  /// cached front-end *failures* are replayed from the cache, not re-run).
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

/// Checkpoint-ledger accounting of one run (see
/// SweepOptions::checkpoint_dir; all zero when checkpointing is off).
/// Like stage times, this is provenance — how the results were obtained —
/// and is excluded from sweep_result_fingerprint; merge_sweep_shards sums
/// it across shards.
struct CheckpointStats {
  std::uint64_t tasks_replayed = 0;  // completed tasks restored from the journal
  std::uint64_t tasks_executed = 0;  // tasks run (and journaled) by this process
  std::uint64_t journal_bytes = 0;   // journal size after the run; 0 without one

  CheckpointStats& operator+=(const CheckpointStats& other);
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
/// after.  Shared by the sweep runner and the shard merger so merged and
/// single-process results order stage_totals identically.
[[nodiscard]] std::vector<StageTotal> ordered_stage_totals(
    std::map<std::string, double, std::less<>> totals);

/// Which axis of the (loop x point) cross product a sharded sweep
/// partitions (see SweepOptions::shard_count).
enum class ShardAxis {
  /// Round-robin over loops: shard s owns every point of loop i iff
  /// i % shard_count == s.  The default — per-loop caches and the
  /// budget-ladder memo live entirely inside one shard, so a merged
  /// sharded sweep is bit-identical to the single-process sweep
  /// *including* cache and memo provenance.
  kLoops,
  /// Round-robin over points: shard s owns point p of every loop iff
  /// p % shard_count == s.  Results are still bit-identical (sharding
  /// never changes outcomes), but points of one budget ladder may land in
  /// different shards, so sched-memo hit counts can be lower than the
  /// single-process run's.
  kPoints,
};

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

  /// Worker threads executing SweepTasks inside this process.  0 = auto
  /// (one per hardware thread, on the shared pool); 1 = serial; N > 1 =
  /// exactly N threads on a private pool, even when the machine has fewer
  /// cores (how tests exercise real concurrency on small runners).
  /// Composes with process sharding: P `sweep_shard run` processes of W
  /// threads each should keep P*W near the core count.
  ///
  /// Determinism: a task (one loop, its owned points) is the unit of
  /// scheduling, and everything order-sensitive — per-loop caches, the
  /// budget-ladder memo — lives inside one task, so results are
  /// sweep_result_fingerprint-identical at every worker count.  The
  /// worker count is deliberately *not* part of sweep_config_hash: a
  /// checkpointed sweep may resume under a different count.
  int workers = 0;

  /// Optional externally-owned pool to run tasks on (its size then wins
  /// over `workers`).  Null = pick per `workers` above.  The pool must
  /// outlive run().
  ThreadPool* pool = nullptr;

  /// Process-sharded execution: this runner computes only the cells of
  /// the (loop x point) cross product that `shard_index` owns under the
  /// deterministic `shard_axis` partition; every other cell of
  /// SweepResult::by_point is left default-constructed.  All shards of
  /// one sweep share `store_dir` (the artifact store is the persistence
  /// seam between processes), and merge_sweep_shards (harness/shard.h)
  /// stitches the emitted shards back into the single-process result.
  /// shard_count == 1 is the unsharded sweep, byte-for-byte.
  int shard_count = 1;
  int shard_index = 0;
  ShardAxis shard_axis = ShardAxis::kLoops;

  /// Root directory of the persistent content-addressed artifact store
  /// (support/artifact_store.h); empty disables persistence.  Keyed by
  /// Loop::content_hash plus the front prefix key, so repeated invocations
  /// — including across processes and bench runs — reload the front end
  /// instead of recomputing it.  Also persists per-machine MII maps
  /// (keyed by Loop::content_hash + front prefix + MachineConfig
  /// signature).  Requires use_cache.
  std::string store_dir;

  /// Directory of the checkpoint ledger (harness/checkpoint.h); empty
  /// disables checkpointing.  Every completed SweepTask appends its
  /// LoopResults and accounting deltas to an append-only task journal
  /// keyed by the sweep's config hash and this runner's shard identity
  /// (shards sharing one checkpoint_dir never collide).  On a restart,
  /// completed tasks replay from the journal and only unfinished tasks
  /// execute — bit-identical to an uninterrupted run per
  /// sweep_result_fingerprint, with identical cache accounting.
  std::string checkpoint_dir;

  /// Instrumentation/test hook: invoked right after each executed task
  /// commits to the journal (never for replays; only fires when
  /// checkpoint_dir is set), with the number of tasks this run has
  /// committed so far.  Threading contract: with workers <= 1 it runs
  /// inline on the executing thread, right after the journal append; with
  /// workers > 1 it runs on the *committer thread* only (never on a task
  /// worker, never concurrently with itself), serialised with — and
  /// ordered identically to — the journal appends.  Keep it cheap: it
  /// stalls the commit pipeline, not the workers.  An exception aborts
  /// the sweep (serial: immediately; threaded: no further tasks commit,
  /// and run() rethrows once in-flight tasks drain).  The SIGKILL-resume
  /// tests are the intended users.
  std::function<void(std::uint64_t committed)> on_task_committed;

  /// Sweep-level translation validation.  kSample audits a deterministic
  /// 1-in-verify_sample_rate subset of cells, chosen by hashing (loop
  /// index, point index) so the sample is identical at every worker
  /// count, shard partition, and resume — verification never perturbs
  /// determinism contracts.  kFull/kStrict cover every cell.  The mode is
  /// folded into the checkpoint journal's config hash: a resumed sweep
  /// must re-verify (or not) exactly as the crashed one did.
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

  /// The resolved scheduler backend's cache-key contribution
  /// (SchedulerBackend::cache_key): folded into every slot holding one of
  /// its schedules — the sched-memo key today — so backends with
  /// different contributions never alias.  For an unknown backend name
  /// the contribution hashes the name itself (the point fails in the
  /// schedule stage either way).
  std::uint64_t backend = 0;

  /// Whether precomputed MII bounds may be injected into the point's
  /// scheduler (SchedulerBackend::consumes_cached_mii; replaces the old
  /// hard-coded wants_mii special case).
  bool consumes_cached_mii = false;

  /// Whether the backend accepts WarmStartSeed injection
  /// (SchedulerBackend::supports_warm_start).  Gates the task-local
  /// MII-optimality short-circuit, the sweep's only seeding path.
  bool supports_warm_start = false;
};

[[nodiscard]] SweepPrefixKeys sweep_prefix_keys(const SweepPoint& point);

/// The deterministic shard partition: whether shard `shard_index` of
/// `shard_count` owns cell (loop_index, point_index) under `axis`.  Every
/// cell is owned by exactly one shard (a test enforces this); the sweep
/// runner and the shard merger share this one definition.
[[nodiscard]] bool shard_owns(ShardAxis axis, int shard_count, int shard_index,
                              std::size_t loop_index, std::size_t point_index);

/// "loops" / "points" (used by shard files and CLI flags).
[[nodiscard]] std::string_view shard_axis_name(ShardAxis axis);

/// One unit of the sweep's work queue: a loop plus the point indices this
/// runner owns for it under the shard partition.  The loop index is the
/// task id — stable across restarts because the checkpoint journal's
/// config hash pins the exact (loops, points) inputs.  A task matches the
/// runner's per-loop execution granularity: the per-loop artifact cache
/// and every budget-ladder memo live entirely inside one task, so a task
/// is also the natural unit of checkpoint replay.
struct SweepTask {
  std::size_t loop_index = 0;
  std::vector<std::size_t> point_indices;  // owned, ascending point order
};

/// The work queue of one runner: a task per loop with at least one owned
/// cell, in ascending loop order.  Shared by SweepRunner::run and tests.
[[nodiscard]] std::vector<SweepTask> sweep_tasks(const SweepOptions& options, std::size_t loops,
                                                 std::size_t points);

struct SweepResult {
  /// results[point][loop], index-aligned with the inputs.
  std::vector<std::vector<LoopResult>> by_point;
  SweepCacheStats cache;
  CheckpointStats checkpoint;
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
