// Checkpoint ledger for restartable sweeps.
//
// A sweep's execution is an explicit work queue of SweepTasks
// (harness/sweep.h); the ledger is an append-only *task journal* on disk
// recording every completed task — its owned cells' LoopResults plus the
// cache-stats and front-end-seconds deltas the task accumulated.  On a
// restart (same inputs, same shard identity) the runner replays the
// journaled tasks and executes only the remainder, producing a result
// bit-identical to an uninterrupted run per sweep_result_fingerprint,
// with identical cache accounting.
//
// File layout (one journal per (sweep config hash, shard identity),
// named by checkpoint_journal_path so shards sharing a directory never
// collide):
//
//   header:  magic+version u64, config_hash u64, shard_count i32,
//            shard_index i32, axis bool, loops u64, points u64
//   records: payload string, checksum u64  (repeated; one per completed task)
//
// Records are appended with one flushed write each, so a killed worker
// can leave at most one torn record at the tail; reopening validates
// checksums, drops the torn tail by truncating the file at the last
// intact record boundary, and resumes appending.  A torn *header* means
// nothing was ever committed — the journal is recreated.  A header whose
// identity disagrees with the caller's sweep is an error (the file
// belongs to a different sweep), as is a bad magic/version: journals are
// exchanged between runs of the same build, so version skew is an error,
// not a silent miss — the same discipline as shard files.
//
// Every record is one completed task; decode_task_payload ends in
// BlobReader::require_exhausted.
#pragma once

#include <array>
#include <cstdint>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "harness/sweep.h"
#include "support/parallel.h"

namespace qvliw {

/// Identity of one journal: which shard of which sweep it checkpoints.
struct JournalHeader {
  std::uint64_t config_hash = 0;  // sweep_config_hash of the inputs
  int shard_count = 1;
  int shard_index = 0;
  ShardAxis axis = ShardAxis::kLoops;
  std::uint64_t loops = 0;  // full cross-product dimensions
  std::uint64_t points = 0;
};

/// Canonical journal file name under `dir`:
/// journal-<16-hex config hash>-<axis>-<count>-<index>.qjournal.
[[nodiscard]] std::string checkpoint_journal_path(std::string_view dir,
                                                  const JournalHeader& header);

/// Everything one completed SweepTask contributes to the sweep: the
/// LoopResults of its owned cells (with provenance), plus the cache-stats
/// and front-end-seconds deltas it accumulated — so a replayed task
/// restores results *and* accounting exactly as if it had run.
struct TaskPayload {
  std::uint64_t loop_index = 0;  // == the task id
  std::vector<std::pair<std::uint64_t, LoopResult>> cells;  // (point index, result)
  SweepCacheStats stats;
  /// Front-end wall seconds the task's cache work performed outside any
  /// single run's stage_times, indexed invariants/unroll/copy_insert/mii.
  std::array<double, 4> front_seconds{};
};

[[nodiscard]] std::string encode_task_payload(const TaskPayload& payload);

/// Inverse of encode_task_payload; throws Error on truncation, trailing
/// bytes, or implausible counts.
[[nodiscard]] TaskPayload decode_task_payload(const std::string& blob);

/// The append-only task journal.  Single-writer by contract: each shard
/// identity has its own file, one process runs a shard at a time, and
/// SweepRunner appends from one thread only (the committer's, when
/// threaded).
class TaskJournal {
 public:
  /// Opens (creating parent directories as needed) the journal at `path`
  /// for the sweep identified by `header`.  An existing journal is
  /// replayed into completed() — torn tail truncated — after verifying
  /// its header matches `header` exactly; a mismatch or a bad
  /// magic/version throws Error.  Append failures (full disk, bad
  /// permissions) also throw: a ledger that cannot record is an operator
  /// error, unlike the artifact store's best-effort cache writes.
  TaskJournal(std::string path, const JournalHeader& header);

  TaskJournal(const TaskJournal&) = delete;
  TaskJournal& operator=(const TaskJournal&) = delete;

  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] const JournalHeader& header() const { return header_; }

  /// Task id -> encoded TaskPayload, as found at open time (appends made
  /// through this object are not folded back in — the writer already has
  /// those results).  A task appended twice keeps the later record.
  [[nodiscard]] const std::map<std::uint64_t, std::string>& completed() const {
    return completed_;
  }

  /// Current journal size in bytes (header + intact records + appends).
  [[nodiscard]] std::uint64_t bytes() const { return bytes_; }

  /// Torn-tail bytes dropped when the journal was opened (0 normally).
  [[nodiscard]] std::uint64_t truncated_bytes() const { return truncated_; }

  /// Appends one completed task.  `payload` must be encode_task_payload
  /// output whose loop_index equals `task_id`.
  void append_task(std::uint64_t task_id, std::string_view payload);

 private:
  std::string path_;
  JournalHeader header_;
  std::map<std::uint64_t, std::string> completed_;
  std::ofstream out_;
  std::uint64_t bytes_ = 0;
  std::uint64_t truncated_ = 0;
};

/// One completed task en route to the committer: the accounting deltas
/// the sweep merges (cache-stats counters, front-end seconds) plus —
/// when a journal is attached — the encoded TaskPayload to append.  The
/// executing worker fills it from task-local state, so nothing in it is
/// shared until the committer thread takes ownership.
struct TaskCommit {
  std::uint64_t task_id = 0;
  /// encode_task_payload output; empty when the sweep runs unjournaled
  /// (the committer then only merges accounting).
  std::string payload;
  SweepCacheStats stats;
  std::array<double, 4> front_seconds{};
};

/// The single serialization point of a multi-threaded sweep: one
/// dedicated thread drains a bounded channel of TaskCommits, appends each
/// to the journal (exactly the serial runner's cadence — the append-only
/// checksum format and replay semantics are untouched), and then runs the
/// caller's sink.  Workers submit() from any thread; the bounded channel
/// back-pressures them when the journal is the bottleneck.
///
/// Error contract: the first journal-append or sink exception is
/// captured, every later commit is drained but *discarded* (producers
/// never block on a dead committer, and a ledger that failed once appends
/// nothing more), and finish() rethrows it on the caller.  finish() must
/// be called before the results are used; the destructor finishes too but
/// swallows the rethrow — only for unwinds already in flight.
class TaskCommitter {
 public:
  /// Runs on the committer thread after the journal append, once per
  /// commit in submission order; `committed` counts commits so far
  /// (1-based).  Never concurrent with itself.
  using Sink = std::function<void(const TaskCommit& commit, std::uint64_t committed)>;

  /// `journal` may be null (accounting-only committer); it must outlive
  /// this object and receives appends from the committer thread only.
  TaskCommitter(TaskJournal* journal, std::size_t capacity, Sink sink);
  ~TaskCommitter();

  TaskCommitter(const TaskCommitter&) = delete;
  TaskCommitter& operator=(const TaskCommitter&) = delete;

  /// Enqueues one completed task; blocks while the channel is full.
  /// Thread-safe.  Safe (a no-op beyond the drain) after an error.
  void submit(TaskCommit commit);

  /// Closes the channel, joins the committer thread, and rethrows the
  /// first captured error.  Idempotent (later calls just rethrow again).
  void finish();

  /// Commits applied so far; stable only after finish().
  [[nodiscard]] std::uint64_t committed() const { return committed_; }

 private:
  void commit_loop();

  TaskJournal* journal_;
  Sink sink_;
  BoundedChannel<TaskCommit> channel_;
  std::exception_ptr error_;       // committer-thread-only until joined
  std::uint64_t committed_ = 0;    // committer-thread-only until joined
  bool finished_ = false;
  std::thread thread_;
};

}  // namespace qvliw
