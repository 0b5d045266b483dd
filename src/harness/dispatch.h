// Process-level dispatcher for sharded sweeps.
//
// PR 4 made sweeps shardable (harness/shard.h) but left launching the
// shards to hand-run commands and CI scripting.  The dispatcher closes
// that gap on one machine: it forks N worker processes over a shared
// artifact store — one shard each, using the same shard-file protocol as
// `sweep_shard run` — monitors their liveness through checkpoint-journal
// growth (harness/checkpoint.h), kills workers whose journal stops
// growing past a deadline, requeues their shard onto a *different*
// worker slot (the failed assignment is excluded, in the spirit of a
// scheduler's excluded-runner set), and merges the surviving shard files
// through merge_sweep_shards.  Because every worker checkpoints, a
// requeued attempt replays the killed attempt's completed tasks from the
// journal instead of recomputing them — straggler retry costs only the
// unfinished work.
//
// Workers are forked, not exec'd: the worker body is a ShardWorker
// closure run in the child, which must never touch the parent's thread
// pool (its threads do not survive the fork).  make_sweep_worker
// therefore gives each child its *own* pool when worker_threads asks for
// one — the dispatcher's parallelism composes as N processes x M threads,
// capped by the resolved_worker_threads oversubscription guard.
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "harness/shard.h"

namespace qvliw {

struct ShardWorkerContext {
  int shard_index = 0;
  int attempt = 0;      // 0 = first launch, >0 = requeued
  int worker_slot = 0;  // dense id in [0, workers)
};

/// The body run in the forked worker process: produce the shard file at
/// dispatch_shard_path(checkpoint_dir, shard_index) and return the
/// process exit code (0 = success).  Runs in a child — side effects on
/// parent memory are invisible to the dispatcher.
using ShardWorker = std::function<int(const ShardWorkerContext&)>;

struct DispatchOptions {
  int shard_count = 2;
  int max_workers = 0;  // concurrent worker processes; 0 = shard_count
  ShardAxis axis = ShardAxis::kLoops;

  /// Worker *threads* per forked worker process (SweepOptions::workers in
  /// the child — each child builds its own pool after the fork; the
  /// parent's threads never survive into it).  Capped by the
  /// procs x threads oversubscription guard resolved_worker_threads(), so
  /// N processes of M threads never exceed the machine; <= 1 keeps the
  /// historical single-threaded worker.
  int worker_threads = 1;

  /// Required: journals and shard files live here.  Also the resume seam:
  /// re-dispatching with the same directory replays every completed task
  /// from the per-shard journals (shard files themselves are regenerated).
  std::string checkpoint_dir;

  /// Shared artifact store handed to every worker ("" = none).
  std::string store_dir;

  /// A worker whose journal has not grown for this long (and whose shard
  /// file has not appeared) is a straggler: killed and requeued.
  double straggler_deadline_seconds = 30.0;
  double poll_interval_seconds = 0.02;

  /// Launches allowed per shard, counting the first.  Exhausting them
  /// fails the dispatch with the accumulated failure log.
  int max_attempts = 3;

  /// Journal path per shard index, used for liveness monitoring.
  /// dispatch_sweep fills this in from the sweep's config hash; custom
  /// dispatch_shards callers may leave it empty, degrading straggler
  /// detection to "no shard file within the deadline of launch".
  std::function<std::string(int shard_index)> journal_path;

  /// Test/CI hook run in the worker process after its sweep completes,
  /// before the shard file is written — the seam for injecting
  /// stragglers: sleep here and the dispatcher sees a complete journal
  /// but no shard file, kills the worker past the deadline, and the
  /// requeued attempt replays every task from the journal.  Only
  /// make_sweep_worker honours it.
  std::function<void(const ShardWorkerContext&)> before_emit;
};

/// Provenance of one worker launch (the dispatcher's failure log).
struct DispatchAttempt {
  int shard_index = 0;
  int attempt = 0;
  int worker_slot = 0;
  bool killed = false;    // straggler: killed by the dispatcher
  int exit_code = 0;      // meaningful when !killed
  bool completed = false; // shard file produced
  double seconds = 0.0;   // launch-to-reap wall time
};

struct DispatchReport {
  SweepResult merged;
  int shards = 0;
  int launches = 0;  // worker processes spawned in total
  int requeues = 0;  // shards reassigned after a kill or a failed exit
  std::vector<DispatchAttempt> attempts;
};

/// Canonical shard-file path under `dir`: shard-<index>.qshard.
[[nodiscard]] std::string dispatch_shard_path(std::string_view dir, int shard_index);

/// The procs x threads oversubscription guard: the worker-thread count a
/// child process may actually use, given `requested` threads and
/// `processes` concurrent workers.  Clamps to the machine's per-process
/// share (hardware threads / processes), never below 1 — so
/// processes x result never exceeds the core count (unless the core
/// count is below the process count, where each process still gets its
/// mandatory 1).  requested <= 1 is always 1: single-threaded workers
/// are never inflated.
[[nodiscard]] int resolved_worker_threads(int requested, int processes);

/// Dispatches `worker` over every shard index and merges the resulting
/// shard files.  Throws Error when a shard exhausts max_attempts (the
/// message carries the per-attempt failure log) or a shard file fails to
/// decode/merge.  Any still-running workers are killed before the error
/// propagates.
[[nodiscard]] DispatchReport dispatch_shards(const DispatchOptions& options,
                                             const ShardWorker& worker);

/// The worker dispatch_sweep uses: a checkpointed, store-sharing
/// SweepRunner over (loops, points) — worker_threads threads on a pool
/// built inside the child, after the guard — that emits its shard file
/// atomically.  Exposed so drivers can decorate it.
[[nodiscard]] ShardWorker make_sweep_worker(const std::vector<Loop>& loops,
                                            const std::vector<SweepPoint>& points,
                                            const DispatchOptions& options);

/// The multi-process equivalent of SweepRunner::run on one machine:
/// dispatches make_sweep_worker over options.shard_count shards and
/// merges — bit-identical to the single-process sweep per
/// sweep_result_fingerprint, straggler retries included.
[[nodiscard]] DispatchReport dispatch_sweep(const std::vector<Loop>& loops,
                                            const std::vector<SweepPoint>& points,
                                            const DispatchOptions& options);

}  // namespace qvliw
