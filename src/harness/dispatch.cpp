#include "harness/dispatch.h"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <exception>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>
#include <utility>

#include "harness/checkpoint.h"
#include "support/diagnostics.h"
#include "support/parallel.h"
#include "support/strings.h"

namespace qvliw {

namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::uint64_t file_bytes(const std::string& path) {
  std::error_code ec;
  const std::uintmax_t size = fs::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(size);
}

bool write_file_atomic(const std::string& path, const std::string& bytes) {
  std::error_code ec;
  const fs::path target(path);
  fs::create_directories(target.parent_path(), ec);
  const fs::path temp = target.parent_path() /
                        (target.filename().string() + ".tmp." + std::to_string(::getpid()));
  {
    std::ofstream out(temp, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!out.good()) {
      out.close();
      fs::remove(temp, ec);
      return false;
    }
  }
  fs::rename(temp, target, ec);
  if (ec) {
    fs::remove(temp, ec);
    return false;
  }
  return true;
}

struct ShardState {
  int attempts = 0;              // launches so far
  std::set<int> excluded_slots;  // slots whose attempt on this shard failed
  bool done = false;
};

struct ActiveWorker {
  pid_t pid = -1;
  int shard = -1;
  int attempt = 0;
  int slot = -1;
  Clock::time_point started{};
  Clock::time_point last_progress{};
  std::uint64_t last_journal_bytes = 0;
  bool had_shard_file = false;
};

}  // namespace

std::string dispatch_shard_path(std::string_view dir, int shard_index) {
  return cat(dir, "/shard-", shard_index, ".qshard");
}

int resolved_worker_threads(int requested, int processes) {
  if (requested <= 1) return 1;
  const int procs = std::max(1, processes);
  const int share = static_cast<int>(worker_count()) / procs;
  return std::max(1, std::min(requested, share));
}

DispatchReport dispatch_shards(const DispatchOptions& options, const ShardWorker& worker) {
  check(options.shard_count >= 1, "dispatch_shards: shard_count must be >= 1");
  check(options.max_workers >= 0, "dispatch_shards: max_workers must be >= 0");
  check(options.max_attempts >= 1, "dispatch_shards: max_attempts must be >= 1");
  check(!options.checkpoint_dir.empty(),
        "dispatch_shards: checkpoint_dir is required (journals and shard files live there)");
  check(worker != nullptr, "dispatch_shards: no worker body");
  const int workers = options.max_workers > 0 ? options.max_workers : options.shard_count;

  std::error_code ec;
  fs::create_directories(options.checkpoint_dir, ec);
  if (ec) fail(cat("dispatch_shards: cannot create checkpoint_dir ", options.checkpoint_dir));
  // Shard files are regenerated each dispatch (workers resume from their
  // journals, so regeneration replays rather than recomputes); a stale
  // file would otherwise satisfy the completion check before its worker
  // ran.
  for (int s = 0; s < options.shard_count; ++s) {
    fs::remove(dispatch_shard_path(options.checkpoint_dir, s), ec);
  }

  DispatchReport report;
  report.shards = options.shard_count;
  std::vector<ShardState> states(static_cast<std::size_t>(options.shard_count));
  std::deque<int> queue;
  for (int s = 0; s < options.shard_count; ++s) queue.push_back(s);
  std::vector<ActiveWorker> active;
  std::vector<bool> slot_busy(static_cast<std::size_t>(workers), false);
  std::vector<std::string> failures;
  int done = 0;

  auto journal_bytes_of = [&](int shard) -> std::uint64_t {
    return options.journal_path ? file_bytes(options.journal_path(shard)) : 0;
  };

  // Prefer a free slot the shard has never failed on; fall back to an
  // excluded slot only when no worker is active that could free another
  // (with one slot there is no spare to requeue onto).  -1 = wait.
  auto pick_slot = [&](int shard) -> int {
    int fallback = -1;
    for (int s = 0; s < workers; ++s) {
      if (slot_busy[static_cast<std::size_t>(s)]) continue;
      if (states[static_cast<std::size_t>(shard)].excluded_slots.count(s) == 0) return s;
      if (fallback < 0) fallback = s;
    }
    return active.empty() ? fallback : -1;
  };

  auto spawn = [&](int shard, int slot) {
    ShardWorkerContext ctx;
    ctx.shard_index = shard;
    ctx.attempt = states[static_cast<std::size_t>(shard)].attempts;
    ctx.worker_slot = slot;
    ++states[static_cast<std::size_t>(shard)].attempts;
    const pid_t pid = ::fork();
    check(pid >= 0, "dispatch_shards: fork failed");
    if (pid == 0) {
      // Worker process.  _exit (not exit): the child must not run the
      // parent's atexit handlers or flush its inherited streams.  A
      // throwing worker reports its cause on the inherited stderr before
      // dying — the dispatcher's failure log only sees the exit code.
      int code = 125;
      try {
        code = worker(ctx);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "dispatch worker (shard %d attempt %d): %s\n", ctx.shard_index,
                     ctx.attempt, e.what());
        code = 124;
      } catch (...) {
        code = 124;
      }
      ::_exit(code);
    }
    slot_busy[static_cast<std::size_t>(slot)] = true;
    ActiveWorker aw;
    aw.pid = pid;
    aw.shard = shard;
    aw.attempt = ctx.attempt;
    aw.slot = slot;
    aw.started = aw.last_progress = Clock::now();
    aw.last_journal_bytes = journal_bytes_of(shard);
    aw.had_shard_file = false;
    active.push_back(aw);
    ++report.launches;
  };

  auto requeue = [&](const ActiveWorker& aw, const std::string& why) {
    failures.push_back(cat("shard ", aw.shard, " attempt ", aw.attempt, " on worker ", aw.slot,
                           ": ", why));
    states[static_cast<std::size_t>(aw.shard)].excluded_slots.insert(aw.slot);
    if (states[static_cast<std::size_t>(aw.shard)].attempts >= options.max_attempts) {
      std::ostringstream log;
      for (const std::string& line : failures) log << "\n  " << line;
      fail(cat("dispatch_shards: shard ", aw.shard, " failed after ",
               states[static_cast<std::size_t>(aw.shard)].attempts, " attempt(s):", log.str()));
    }
    ++report.requeues;
    queue.push_back(aw.shard);
  };

  auto finish = [&](ActiveWorker& aw, bool killed, int exit_code) {
    const bool produced = fs::exists(dispatch_shard_path(options.checkpoint_dir, aw.shard));
    DispatchAttempt attempt;
    attempt.shard_index = aw.shard;
    attempt.attempt = aw.attempt;
    attempt.worker_slot = aw.slot;
    attempt.killed = killed;
    attempt.exit_code = exit_code;
    attempt.completed = produced;
    attempt.seconds = seconds_since(aw.started);
    report.attempts.push_back(attempt);
    slot_busy[static_cast<std::size_t>(aw.slot)] = false;
    if (produced) {
      states[static_cast<std::size_t>(aw.shard)].done = true;
      ++done;
    } else if (killed) {
      requeue(aw, cat("no journal progress for ", fixed(options.straggler_deadline_seconds, 1),
                      "s — killed and requeued"));
    } else {
      requeue(aw, cat("exited ", exit_code, " without a shard file"));
    }
  };

  try {
    while (done < options.shard_count) {
      // Launch as many queued shards as slots allow.
      while (!queue.empty()) {
        const int slot = pick_slot(queue.front());
        if (slot < 0) break;
        const int shard = queue.front();
        queue.pop_front();
        spawn(shard, slot);
      }
      QVLIW_ASSERT(!active.empty(), "dispatcher stalled with incomplete shards and no workers");

      std::this_thread::sleep_for(
          std::chrono::duration<double>(options.poll_interval_seconds));

      // Reap exits.
      for (std::size_t w = 0; w < active.size();) {
        int status = 0;
        const pid_t r = ::waitpid(active[w].pid, &status, WNOHANG);
        if (r == active[w].pid) {
          const int code = WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
          finish(active[w], /*killed=*/false, code);
          active.erase(active.begin() + static_cast<std::ptrdiff_t>(w));
        } else {
          ++w;
        }
      }

      // Straggler detection: journal growth (or the shard file appearing)
      // is progress; a worker past the deadline without either is killed
      // and its shard requeued — onto a different slot, its journal
      // intact, so the retry replays the completed tasks.
      for (std::size_t w = 0; w < active.size();) {
        ActiveWorker& aw = active[w];
        const std::uint64_t bytes = journal_bytes_of(aw.shard);
        const bool produced = fs::exists(dispatch_shard_path(options.checkpoint_dir, aw.shard));
        if (bytes != aw.last_journal_bytes || produced != aw.had_shard_file) {
          aw.last_journal_bytes = bytes;
          aw.had_shard_file = produced;
          aw.last_progress = Clock::now();
        }
        if (seconds_since(aw.last_progress) <= options.straggler_deadline_seconds) {
          ++w;
          continue;
        }
        ::kill(aw.pid, SIGKILL);
        int status = 0;
        ::waitpid(aw.pid, &status, 0);
        finish(aw, /*killed=*/true, 0);
        active.erase(active.begin() + static_cast<std::ptrdiff_t>(w));
      }
    }
  } catch (...) {
    // Leave no orphans behind a thrown Error (exhausted attempts, fork
    // failure): the workers' shard files are regenerated next dispatch
    // anyway, and their journals survive for the resume.
    for (const ActiveWorker& aw : active) {
      ::kill(aw.pid, SIGKILL);
      int status = 0;
      ::waitpid(aw.pid, &status, 0);
    }
    throw;
  }

  // Merge the surviving shard files.
  std::vector<SweepShard> shards;
  shards.reserve(static_cast<std::size_t>(options.shard_count));
  for (int s = 0; s < options.shard_count; ++s) {
    const std::string path = dispatch_shard_path(options.checkpoint_dir, s);
    std::ifstream in(path, std::ios::binary);
    if (!in) fail(cat("dispatch_shards: cannot read shard file ", path));
    std::ostringstream buffer;
    buffer << in.rdbuf();
    shards.push_back(decode_sweep_shard(std::move(buffer).str()));
  }
  report.merged = merge_sweep_shards(std::move(shards));
  return report;
}

ShardWorker make_sweep_worker(const std::vector<Loop>& loops,
                              const std::vector<SweepPoint>& points,
                              const DispatchOptions& options) {
  return [&loops, &points, options](const ShardWorkerContext& ctx) -> int {
    SweepOptions sweep_options;
    sweep_options.shard_count = options.shard_count;
    sweep_options.shard_index = ctx.shard_index;
    sweep_options.shard_axis = options.axis;
    sweep_options.store_dir = options.store_dir;
    sweep_options.checkpoint_dir = options.checkpoint_dir;
    // Forked child: the parent's thread pool did not survive the fork, so
    // the child must build its own.  An explicit SweepOptions::workers
    // count does exactly that (a fresh private pool); worker_threads <= 1
    // keeps the historical serial worker where the dispatcher's
    // parallelism is its N processes alone.  The oversubscription guard
    // keeps procs x threads within the machine.
    const int processes = options.max_workers > 0 ? options.max_workers : options.shard_count;
    const int threads = resolved_worker_threads(options.worker_threads, processes);
    sweep_options.workers = threads;
    SweepResult result = SweepRunner(sweep_options).run(loops, points);

    if (options.before_emit) options.before_emit(ctx);

    SweepShard shard;
    shard.header.shard_count = options.shard_count;
    shard.header.shard_index = ctx.shard_index;
    shard.header.axis = options.axis;
    shard.header.loops = loops.size();
    shard.header.points = points.size();
    shard.header.config_hash = sweep_config_hash(loops, points);
    shard.result = std::move(result);
    return write_file_atomic(dispatch_shard_path(options.checkpoint_dir, ctx.shard_index),
                             encode_sweep_shard(shard))
               ? 0
               : 1;
  };
}

DispatchReport dispatch_sweep(const std::vector<Loop>& loops,
                              const std::vector<SweepPoint>& points,
                              const DispatchOptions& options) {
  DispatchOptions resolved = options;
  if (!resolved.journal_path) {
    JournalHeader base;
    base.config_hash = sweep_config_hash(loops, points);
    base.shard_count = resolved.shard_count;
    base.axis = resolved.axis;
    base.loops = loops.size();
    base.points = points.size();
    resolved.journal_path = [dir = resolved.checkpoint_dir, base](int shard) {
      JournalHeader header = base;
      header.shard_index = shard;
      return checkpoint_journal_path(dir, header);
    };
  }
  return dispatch_shards(resolved, make_sweep_worker(loops, points, resolved));
}

}  // namespace qvliw
