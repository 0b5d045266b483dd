#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "harness/checkpoint.h"
#include "harness/shard.h"
#include "support/artifact_store.h"
#include "support/diagnostics.h"
#include "support/rng.h"
#include "support/strings.h"
#include "workload/suite.h"

namespace qvliw {
namespace {

namespace fs = std::filesystem;

/// Fresh scratch directory per test.
fs::path scratch_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / ("qvliw_test_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::vector<SweepPoint> ladder_points() {
  std::vector<SweepPoint> points;
  const MachineConfig ring = MachineConfig::clustered_machine(4);
  for (const ClusterHeuristic heuristic :
       {ClusterHeuristic::kAffinity, ClusterHeuristic::kLoadBalance}) {
    for (const int budget : {6, 12}) {
      SweepPoint point{cat(cluster_heuristic_name(heuristic), "-", budget), ring, {}};
      point.options.unroll = true;
      point.options.scheduler = SchedulerKind::kClustered;
      point.options.heuristic = heuristic;
      point.options.ims.budget_ratio = budget;
      points.push_back(point);
    }
  }
  return points;
}

JournalHeader demo_header() {
  JournalHeader header;
  header.config_hash = 0xabcdef0123456789ULL;
  header.shard_count = 2;
  header.shard_index = 1;
  header.axis = ShardAxis::kLoops;
  header.loops = 9;
  header.points = 4;
  return header;
}

// Every sweep in this binary names its worker count: serial here, private
// pools elsewhere.  The process-wide pool then never starts, so the fork
// tests fork a single-threaded process.
SweepResult serial_sweep(const std::vector<Loop>& loops, const std::vector<SweepPoint>& points) {
  SweepOptions options;
  options.workers = 1;
  return SweepRunner(options).run(loops, points);
}

std::string demo_payload(std::uint64_t task_id) {
  TaskPayload payload;
  payload.loop_index = task_id;
  LoopResult result;
  result.name = cat("loop-", task_id);
  result.ok = true;
  result.ii = static_cast<int>(3 + task_id);
  payload.cells.emplace_back(0, result);
  payload.stats.front_probes = 4;
  payload.stats.front_hits = 3;
  payload.front_seconds = {0.25, 0.5, 0.125, 0.0625};
  return encode_task_payload(payload);
}

// --- TaskCommitter ----------------------------------------------------------

TEST(Checkpoint, CommitterRunsSinkInOrderWithoutJournal) {
  std::vector<std::uint64_t> ids;
  std::vector<std::uint64_t> committed_counts;
  {
    TaskCommitter committer(nullptr, 2, [&](const TaskCommit& commit, std::uint64_t committed) {
      ids.push_back(commit.task_id);
      committed_counts.push_back(committed);
    });
    for (std::uint64_t id = 0; id < 10; ++id) {
      TaskCommit commit;
      commit.task_id = id;
      committer.submit(std::move(commit));
    }
    committer.finish();
    EXPECT_EQ(committer.committed(), 10u);
  }
  ASSERT_EQ(ids.size(), 10u);
  for (std::uint64_t id = 0; id < 10; ++id) {
    EXPECT_EQ(ids[id], id);                    // submission order preserved
    EXPECT_EQ(committed_counts[id], id + 1u);  // the running count the hook sees
  }
}

TEST(Checkpoint, CommitterJournalsPayloadsDurably) {
  const fs::path dir = scratch_dir("committer_journal");
  const JournalHeader header = demo_header();
  const std::string path = checkpoint_journal_path(dir.string(), header);
  {
    TaskJournal journal(path, header);
    TaskCommitter committer(&journal, 4, {});
    for (const std::uint64_t id : {2u, 4u, 6u}) {
      TaskCommit commit;
      commit.task_id = id;
      commit.payload = demo_payload(id);
      committer.submit(std::move(commit));
    }
    // An unjournaled commit (empty payload — e.g. a replayed task) must
    // count without appending a record.
    committer.submit(TaskCommit{});
    committer.finish();
    EXPECT_EQ(committer.committed(), 4u);
  }
  TaskJournal reopened(path, header);
  EXPECT_EQ(reopened.completed().size(), 3u);
  for (const std::uint64_t id : {2u, 4u, 6u}) {
    EXPECT_NE(reopened.completed().find(id), reopened.completed().end()) << id;
  }
}

// A sink failure freezes the ledger: the failing commit's record is
// already durable, but nothing after it is appended — producers drain
// without blocking and finish() rethrows the error.
TEST(Checkpoint, CommitterSinkErrorStopsJournalGrowth) {
  const fs::path dir = scratch_dir("committer_error");
  const JournalHeader header = demo_header();
  const std::string path = checkpoint_journal_path(dir.string(), header);
  {
    TaskJournal journal(path, header);
    TaskCommitter committer(&journal, 2, [](const TaskCommit&, std::uint64_t committed) {
      if (committed == 2) fail("test: sink failure");
    });
    for (std::uint64_t id = 0; id < 6; ++id) {
      TaskCommit commit;
      commit.task_id = id;
      commit.payload = demo_payload(id);
      committer.submit(std::move(commit));
    }
    EXPECT_THROW(committer.finish(), Error);
    EXPECT_EQ(committer.committed(), 2u);
  }
  TaskJournal reopened(path, header);
  EXPECT_EQ(reopened.completed().size(), 2u);  // ids 0 and 1; nothing after the failure
}

TEST(Checkpoint, JournalRoundTripsTasksAcrossReopen) {
  const fs::path dir = scratch_dir("journal_roundtrip");
  const JournalHeader header = demo_header();
  const std::string path = checkpoint_journal_path(dir.string(), header);

  {
    TaskJournal journal(path, header);
    EXPECT_TRUE(journal.completed().empty());
    EXPECT_EQ(journal.truncated_bytes(), 0u);
    journal.append_task(3, demo_payload(3));
    journal.append_task(5, demo_payload(5));
  }

  TaskJournal reopened(path, header);
  ASSERT_EQ(reopened.completed().size(), 2u);
  EXPECT_EQ(reopened.truncated_bytes(), 0u);
  for (const std::uint64_t id : {3u, 5u}) {
    const auto it = reopened.completed().find(id);
    ASSERT_NE(it, reopened.completed().end());
    const TaskPayload payload = decode_task_payload(it->second);
    EXPECT_EQ(payload.loop_index, id);
    ASSERT_EQ(payload.cells.size(), 1u);
    EXPECT_EQ(payload.cells[0].second.name, cat("loop-", id));
    EXPECT_EQ(payload.cells[0].second.ii, static_cast<int>(3 + id));
    EXPECT_EQ(payload.stats.front_probes, 4u);
    EXPECT_EQ(payload.front_seconds[1], 0.5);
  }

  // A journal belonging to a different sweep is refused, not replayed.
  JournalHeader other = header;
  other.config_hash ^= 1;
  EXPECT_THROW((TaskJournal{path, other}), Error);
  JournalHeader other_shard = header;
  other_shard.shard_index = 0;
  // Different shard identity also means a different file name; force the
  // same path to prove the header check itself fires.
  EXPECT_THROW((TaskJournal{path, other_shard}), Error);
}

TEST(Checkpoint, TornTailIsDroppedAndAppendsResume) {
  const fs::path dir = scratch_dir("journal_torn");
  const JournalHeader header = demo_header();
  const std::string path = checkpoint_journal_path(dir.string(), header);

  {
    TaskJournal journal(path, header);
    journal.append_task(1, demo_payload(1));
  }
  const auto intact_size = fs::file_size(path);
  {
    // A killed writer's torn record: a record prefix without its tail.
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "\x01\x00\x00\x00garbage-that-is-not-a-complete-record";
  }
  ASSERT_GT(fs::file_size(path), intact_size);

  {
    TaskJournal journal(path, header);
    EXPECT_EQ(journal.completed().size(), 1u);
    EXPECT_GT(journal.truncated_bytes(), 0u);
    EXPECT_EQ(fs::file_size(path), intact_size);  // tail gone
    journal.append_task(2, demo_payload(2));
  }
  TaskJournal reopened(path, header);
  EXPECT_EQ(reopened.completed().size(), 2u);
  EXPECT_EQ(reopened.truncated_bytes(), 0u);

  // A file shorter than the header means nothing was committed: the
  // journal restarts cleanly instead of failing.
  const std::string short_path = (dir / "short.qjournal").string();
  { std::ofstream out(short_path, std::ios::binary); out << "QJ"; }
  TaskJournal fresh(short_path, header);
  EXPECT_TRUE(fresh.completed().empty());

  // Foreign magic is an error (wrong file), not a silent restart.
  const std::string foreign_path = (dir / "foreign.qjournal").string();
  {
    std::ofstream out(foreign_path, std::ios::binary);
    out << std::string(64, '\xee');
  }
  EXPECT_THROW((TaskJournal{foreign_path, header}), Error);
}

// A journal written under the previous layout (v5: kind-tagged records,
// heartbeats) must be refused on open and left untouched — parsed under
// the current framing, its first heartbeat would look like a torn tail,
// and truncating there would silently drop every later task.
TEST(Checkpoint, PreviousVersionJournalIsRefusedUntouched) {
  const fs::path dir = scratch_dir("journal_v5");
  const JournalHeader header = demo_header();
  const std::string path = checkpoint_journal_path(dir.string(), header);
  BlobWriter out;
  out.put_u64(0x514a524e4c000005ULL);  // "QJRNL" + v5
  out.put_u64(header.config_hash);
  out.put_i32(header.shard_count);
  out.put_i32(header.shard_index);
  out.put_bool(header.axis == ShardAxis::kPoints);
  out.put_u64(header.loops);
  out.put_u64(header.points);
  const std::string task = demo_payload(3);
  out.put_i32(1);  // v5 task record
  out.put_string(task);
  out.put_u64(hash_combine(hash64(1), hash_bytes(task)));
  const std::string bytes = out.take();
  { std::ofstream file(path, std::ios::binary); file << bytes; }

  EXPECT_THROW((TaskJournal{path, header}), Error);
  std::ifstream in(path, std::ios::binary);
  const std::string after((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  EXPECT_EQ(after, bytes);
}

TEST(Checkpoint, TaskPayloadCodecRejectsTrailingBytes) {
  const std::string blob = demo_payload(7);
  const TaskPayload payload = decode_task_payload(blob);
  EXPECT_EQ(payload.loop_index, 7u);
  EXPECT_THROW((void)decode_task_payload(blob + "x"), Error);
  EXPECT_THROW((void)decode_task_payload(blob.substr(0, blob.size() - 1)), Error);
}

TEST(Checkpoint, SweepTasksPartitionTheCrossProduct) {
  // Unsharded: every loop owns every point.
  SweepOptions options;
  const std::vector<SweepTask> all = sweep_tasks(options, 5, 3);
  ASSERT_EQ(all.size(), 5u);
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i].loop_index, i);
    EXPECT_EQ(all[i].point_indices.size(), 3u);
  }
  // Sharded over loops: only owned loops appear, with all points.
  options.shard_count = 2;
  options.shard_index = 1;
  const std::vector<SweepTask> odd = sweep_tasks(options, 5, 3);
  ASSERT_EQ(odd.size(), 2u);
  EXPECT_EQ(odd[0].loop_index, 1u);
  EXPECT_EQ(odd[1].loop_index, 3u);
  // Sharded over points: every loop appears with its owned points.
  options.shard_axis = ShardAxis::kPoints;
  const std::vector<SweepTask> points = sweep_tasks(options, 5, 3);
  ASSERT_EQ(points.size(), 5u);
  for (const SweepTask& task : points) {
    ASSERT_EQ(task.point_indices.size(), 1u);
    EXPECT_EQ(task.point_indices[0], 1u);
  }
}

TEST(Checkpoint, CheckpointedSweepMatchesPlainSweepAndReplays) {
  const fs::path dir = scratch_dir("ckpt_sweep");
  const Suite suite = small_suite(7, 101);
  const std::vector<SweepPoint> points = ladder_points();

  const SweepResult plain = serial_sweep(suite.loops, points);

  SweepOptions options;
  options.checkpoint_dir = dir.string();
  options.workers = 1;
  const SweepResult cold = SweepRunner(options).run(suite.loops, points);
  EXPECT_EQ(cold.checkpoint.tasks_replayed, 0u);
  EXPECT_EQ(cold.checkpoint.tasks_executed, suite.loops.size());
  EXPECT_GT(cold.checkpoint.journal_bytes, 0u);
  EXPECT_EQ(sweep_result_fingerprint(cold), sweep_result_fingerprint(plain));

  const SweepResult warm = SweepRunner(options).run(suite.loops, points);
  EXPECT_EQ(warm.checkpoint.tasks_replayed, suite.loops.size());
  EXPECT_EQ(warm.checkpoint.tasks_executed, 0u);
  EXPECT_EQ(sweep_result_fingerprint(warm), sweep_result_fingerprint(plain));
  // Replay restores accounting too, not just outcomes.
  EXPECT_EQ(warm.cache.front_probes, cold.cache.front_probes);
  EXPECT_EQ(warm.cache.front_hits, cold.cache.front_hits);
  EXPECT_EQ(warm.cache.invariant_probes, cold.cache.invariant_probes);
  EXPECT_EQ(warm.pipelines, cold.pipelines);
}

// An interrupted checkpointed run — aborted by an exception after K tasks
// committed — resumes with exactly those K tasks replayed and finishes
// bit-identical to an uninterrupted run.
TEST(Checkpoint, InterruptedRunResumesBitIdentical) {
  const fs::path dir = scratch_dir("ckpt_interrupt");
  const Suite suite = small_suite(8, 103);
  const std::vector<SweepPoint> points = ladder_points();
  constexpr std::uint64_t kAbortAfter = 3;

  SweepOptions interrupted;
  interrupted.checkpoint_dir = dir.string();
  interrupted.workers = 1;  // deterministic task count at the abort
  interrupted.on_task_committed = [](std::uint64_t committed) {
    if (committed == kAbortAfter) fail("test: simulated interruption");
  };
  EXPECT_THROW((void)SweepRunner(interrupted).run(suite.loops, points), Error);

  SweepOptions resume;
  resume.checkpoint_dir = dir.string();
  resume.workers = 1;
  const SweepResult resumed = SweepRunner(resume).run(suite.loops, points);
  EXPECT_EQ(resumed.checkpoint.tasks_replayed, kAbortAfter);
  EXPECT_EQ(resumed.checkpoint.tasks_executed, suite.loops.size() - kAbortAfter);

  const SweepResult oracle = serial_sweep(suite.loops, points);
  EXPECT_EQ(sweep_result_fingerprint(resumed), sweep_result_fingerprint(oracle));
}

// The satellite's drill: fork a worker, SIGKILL it mid-sweep, restart
// from the journal, and the merged result is bit-identical to the
// uninterrupted run.
TEST(Checkpoint, SigkilledWorkerResumesBitIdentical) {
  const fs::path dir = scratch_dir("ckpt_sigkill");
  const Suite suite = small_suite(6, 107);
  const std::vector<SweepPoint> points = ladder_points();
  constexpr std::uint64_t kKillAfter = 2;

  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  const pid_t pid = fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    // Worker: checkpointed single-threaded sweep (a forked child must not
    // touch the parent's thread pool); after kKillAfter committed tasks,
    // signal the parent and block until SIGKILLed.
    close(fds[0]);
    SweepOptions child_options;
    child_options.checkpoint_dir = dir.string();
    child_options.workers = 1;
    child_options.on_task_committed = [&](std::uint64_t committed) {
      if (committed == kKillAfter) {
        const char byte = 'x';
        (void)!write(fds[1], &byte, 1);
        for (;;) pause();
      }
    };
    (void)SweepRunner(child_options).run(suite.loops, points);
    _exit(7);  // unreachable: the parent kills us mid-sweep
  }
  close(fds[1]);
  char byte = 0;
  ASSERT_EQ(read(fds[0], &byte, 1), 1);  // the journal now holds kKillAfter tasks
  close(fds[0]);
  ASSERT_EQ(kill(pid, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);

  // Restart: the committed tasks replay, the rest execute.
  SweepOptions resume;
  resume.checkpoint_dir = dir.string();
  resume.workers = 1;
  const SweepResult resumed = SweepRunner(resume).run(suite.loops, points);
  EXPECT_EQ(resumed.checkpoint.tasks_replayed, kKillAfter);
  EXPECT_EQ(resumed.checkpoint.tasks_executed, suite.loops.size() - kKillAfter);

  const SweepResult oracle = serial_sweep(suite.loops, points);
  EXPECT_EQ(sweep_result_fingerprint(resumed), sweep_result_fingerprint(oracle));
  fs::remove_all(dir);
}

// A checkpointed sweep on worker threads journals through the committer
// thread and stays fingerprint-identical to the serial checkpointed
// sweep; the journal it leaves replays cleanly under a different count.
TEST(Checkpoint, ThreadedCheckpointMatchesSerialAndReplays) {
  const fs::path threaded_dir = scratch_dir("ckpt_threaded");
  const fs::path serial_dir = scratch_dir("ckpt_threaded_serial");
  const Suite suite = small_suite(7, 109);
  const std::vector<SweepPoint> points = ladder_points();

  SweepOptions threaded;
  threaded.checkpoint_dir = threaded_dir.string();
  threaded.workers = 4;
  const SweepResult cold = SweepRunner(threaded).run(suite.loops, points);
  EXPECT_EQ(cold.checkpoint.tasks_executed, suite.loops.size());

  SweepOptions serial;
  serial.checkpoint_dir = serial_dir.string();
  serial.workers = 1;
  const SweepResult serial_cold = SweepRunner(serial).run(suite.loops, points);
  EXPECT_EQ(sweep_result_fingerprint(cold), sweep_result_fingerprint(serial_cold));
  EXPECT_EQ(cold.checkpoint.journal_bytes, serial_cold.checkpoint.journal_bytes);

  // Resume the threaded journal with a *different* worker count.
  SweepOptions resume = threaded;
  resume.workers = 2;
  const SweepResult replayed = SweepRunner(resume).run(suite.loops, points);
  EXPECT_EQ(replayed.checkpoint.tasks_replayed, suite.loops.size());
  EXPECT_EQ(replayed.checkpoint.tasks_executed, 0u);
  EXPECT_EQ(sweep_result_fingerprint(replayed), sweep_result_fingerprint(serial_cold));
  fs::remove_all(threaded_dir);
  fs::remove_all(serial_dir);
}

// A hook exception during a threaded run freezes the ledger after the
// failing commit; the resume replays at least those tasks and finishes
// bit-identical.
TEST(Checkpoint, ThreadedHookAbortResumesBitIdentical) {
  const fs::path dir = scratch_dir("ckpt_threaded_abort");
  const Suite suite = small_suite(8, 113);
  const std::vector<SweepPoint> points = ladder_points();
  constexpr std::uint64_t kAbortAfter = 3;

  SweepOptions interrupted;
  interrupted.checkpoint_dir = dir.string();
  interrupted.workers = 4;
  interrupted.on_task_committed = [](std::uint64_t committed) {
    if (committed == kAbortAfter) fail("test: simulated interruption");
  };
  EXPECT_THROW((void)SweepRunner(interrupted).run(suite.loops, points), Error);

  SweepOptions resume;
  resume.checkpoint_dir = dir.string();
  resume.workers = 2;
  const SweepResult resumed = SweepRunner(resume).run(suite.loops, points);
  EXPECT_GE(resumed.checkpoint.tasks_replayed, kAbortAfter);
  EXPECT_EQ(resumed.checkpoint.tasks_executed,
            suite.loops.size() - resumed.checkpoint.tasks_replayed);

  const SweepResult oracle = serial_sweep(suite.loops, points);
  EXPECT_EQ(sweep_result_fingerprint(resumed), sweep_result_fingerprint(oracle));
  fs::remove_all(dir);
}

// The concurrent variant of the SIGKILL drill: the killed worker runs a
// *multi-threaded* checkpointed sweep, and the resume — under a different
// worker count — replays every journaled task and finishes bit-identical
// to the uninterrupted run.
TEST(Checkpoint, SigkilledConcurrentWorkerResumesBitIdentical) {
  const fs::path dir = scratch_dir("ckpt_sigkill_mt");
  const Suite suite = small_suite(6, 127);
  const std::vector<SweepPoint> points = ladder_points();
  constexpr std::uint64_t kKillAfter = 2;

  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  const pid_t pid = fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    // Worker: 4 worker threads on a pool built inside the child (explicit
    // workers never touch the parent's shared pool).  The hook runs on
    // the committer thread, after its task's journal append: signalling
    // the parent and pausing freezes the ledger at kKillAfter durable
    // tasks while the executor threads keep racing — exactly the state a
    // SIGKILL mid-concurrent-sweep leaves behind.
    close(fds[0]);
    SweepOptions child_options;
    child_options.checkpoint_dir = dir.string();
    child_options.workers = 4;
    child_options.on_task_committed = [&](std::uint64_t committed) {
      if (committed == kKillAfter) {
        const char byte = 'x';
        (void)!write(fds[1], &byte, 1);
        for (;;) pause();
      }
    };
    (void)SweepRunner(child_options).run(suite.loops, points);
    _exit(7);  // unreachable: the parent kills us mid-sweep
  }
  close(fds[1]);
  char byte = 0;
  ASSERT_EQ(read(fds[0], &byte, 1), 1);  // >= kKillAfter tasks are durable
  close(fds[0]);
  ASSERT_EQ(kill(pid, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);

  // Resume under a different worker count: the journal is count-agnostic.
  SweepOptions resume;
  resume.checkpoint_dir = dir.string();
  resume.workers = 2;
  const SweepResult resumed = SweepRunner(resume).run(suite.loops, points);
  EXPECT_GE(resumed.checkpoint.tasks_replayed, kKillAfter);
  EXPECT_EQ(resumed.checkpoint.tasks_executed,
            suite.loops.size() - resumed.checkpoint.tasks_replayed);

  const SweepResult oracle = serial_sweep(suite.loops, points);
  EXPECT_EQ(sweep_result_fingerprint(resumed), sweep_result_fingerprint(oracle));
  fs::remove_all(dir);
}

}  // namespace
}  // namespace qvliw
