// Dispatched multi-process sweep driver.
//
// Runs the perf_micro multi-heuristic sweep through the local dispatcher
// (harness/dispatch.h): N forked shard workers over a shared artifact
// store, each checkpointing into its task journal, with stragglers killed
// past --deadline seconds of journal silence and requeued onto a spare
// worker (their journal replays the completed tasks).  The merged result
// is written as the same canonical JSON `sweep_shard single` emits, so CI
// can diff the two byte-for-byte — including across a forced requeue.
//
//   sweep_dispatch run --shards N --checkpoint DIR --out FILE.json
//       [--workers W] [--threads M] [--store DIR] [--axis loops|points]
//       [--deadline SECONDS] [--max-attempts K]
//       [--delay-shard I [--delay-seconds S]]   # straggler injection (attempt 0)
//   sweep_dispatch --store-stats --store DIR
//
// --workers W is the *process* count; --threads M asks for M worker
// threads inside each forked shard worker (default QVLIW_WORKERS, else
// 1).  The dispatcher's procs x threads oversubscription guard
// (resolved_worker_threads) clamps M to the machine's per-process share,
// so W x M never exceeds the hardware thread count.
//
// --delay-shard makes the named shard's *first* worker sleep after its
// sweep completes but before the shard file is written: the dispatcher
// sees a finished journal that has stopped growing and no shard file,
// kills the worker, and the requeued attempt replays everything from the
// journal — the end-to-end straggler-retry + checkpoint-replay drill CI
// runs.  Suite size follows QVLIW_LOOPS like every bench.
#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "bench_common.h"
#include "harness/dispatch.h"
#include "support/diagnostics.h"

namespace qvliw {
namespace {

struct Args {
  std::string out;
  std::string store;
  std::string checkpoint;
  int shards = 2;
  int workers = 0;  // concurrent processes; 0 = one per shard
  int threads = bench::env_workers();  // worker threads per process; <= 1 = serial
  ShardAxis axis = ShardAxis::kLoops;
  double deadline = 30.0;
  int max_attempts = 3;
  int delay_shard = -1;
  double delay_seconds = 600.0;
  bool store_stats = false;
};

int usage() {
  std::cerr << "usage:\n"
            << "  sweep_dispatch run --shards N --checkpoint DIR --out FILE.json\n"
            << "      [--workers W] [--threads M] [--store DIR] [--axis loops|points]\n"
            << "      [--deadline SECONDS] [--max-attempts K]\n"
            << "      [--delay-shard I [--delay-seconds S]]\n"
            << "  sweep_dispatch --store-stats --store DIR\n";
  return 2;
}

bool parse_args(int argc, char** argv, Args& args) {
  if (argc < 2) return false;
  std::string mode = argv[1];
  if (mode == "--store-stats") {
    args.store_stats = true;
  } else if (mode != "run") {
    return false;
  }
  for (int a = 2; a < argc; ++a) {
    const std::string flag = argv[a];
    auto next = [&]() -> const char* { return a + 1 < argc ? argv[++a] : nullptr; };
    const char* v = nullptr;
    if (flag == "--out") {
      if ((v = next()) == nullptr) return false;
      args.out = v;
    } else if (flag == "--store") {
      if ((v = next()) == nullptr) return false;
      args.store = v;
    } else if (flag == "--checkpoint") {
      if ((v = next()) == nullptr) return false;
      args.checkpoint = v;
    } else if (flag == "--shards") {
      if ((v = next()) == nullptr) return false;
      args.shards = std::atoi(v);
    } else if (flag == "--workers") {
      if ((v = next()) == nullptr) return false;
      args.workers = std::atoi(v);
    } else if (flag == "--threads") {
      if ((v = next()) == nullptr) return false;
      args.threads = std::atoi(v);
    } else if (flag == "--deadline") {
      if ((v = next()) == nullptr) return false;
      args.deadline = std::atof(v);
    } else if (flag == "--max-attempts") {
      if ((v = next()) == nullptr) return false;
      args.max_attempts = std::atoi(v);
    } else if (flag == "--delay-shard") {
      if ((v = next()) == nullptr) return false;
      args.delay_shard = std::atoi(v);
    } else if (flag == "--delay-seconds") {
      if ((v = next()) == nullptr) return false;
      args.delay_seconds = std::atof(v);
    } else if (flag == "--axis") {
      if ((v = next()) == nullptr) return false;
      const std::string axis = v;
      if (axis == "loops") {
        args.axis = ShardAxis::kLoops;
      } else if (axis == "points") {
        args.axis = ShardAxis::kPoints;
      } else {
        return false;
      }
    } else if (flag == "--store-stats") {
      args.store_stats = true;
    } else {
      return false;
    }
  }
  if (args.store_stats) return true;
  return !args.out.empty() && !args.checkpoint.empty() && args.shards >= 1;
}

int run_mode(const Args& args) {
  const Suite suite = bench::make_suite();
  const std::vector<SweepPoint> points = bench::perf_sweep_points();

  DispatchOptions options;
  options.shard_count = args.shards;
  options.max_workers = args.workers;
  options.worker_threads = args.threads;
  options.axis = args.axis;
  options.checkpoint_dir = args.checkpoint;
  options.store_dir = args.store;
  options.straggler_deadline_seconds = args.deadline;
  options.max_attempts = args.max_attempts;
  if (args.delay_shard >= 0) {
    options.before_emit = [delay_shard = args.delay_shard,
                           delay = args.delay_seconds](const ShardWorkerContext& ctx) {
      if (ctx.shard_index == delay_shard && ctx.attempt == 0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(delay));
      }
    };
  }

  const int processes = args.workers > 0 ? args.workers : args.shards;
  std::cout << "dispatching " << args.shards << " shard(s) over " << processes
            << " worker(s) x " << resolved_worker_threads(args.threads, processes)
            << " thread(s) (" << suite.loops.size() << " loops x " << points.size() << " points"
            << (args.store.empty() ? "" : ", shared store ") << args.store
            << ", journals in " << args.checkpoint << ", straggler deadline "
            << fixed(args.deadline, 1) << "s)...\n";
  const DispatchReport report = dispatch_sweep(suite.loops, points, options);

  for (const DispatchAttempt& attempt : report.attempts) {
    std::cout << "  shard " << attempt.shard_index << " attempt " << attempt.attempt
              << " on worker " << attempt.worker_slot << ": "
              << (attempt.completed ? "completed" : "failed")
              << (attempt.killed ? " (killed as straggler)" : "") << " in "
              << fixed(attempt.seconds, 2) << "s\n";
  }
  std::cout << "launches: " << report.launches << "\nrequeues: " << report.requeues << "\n"
            << "merged " << report.merged.pipelines << " pipelines; checkpoint replayed "
            << report.merged.checkpoint.tasks_replayed << " / executed "
            << report.merged.checkpoint.tasks_executed << " task(s), journals "
            << report.merged.checkpoint.journal_bytes << " bytes\n";
  bench::print_store_counters(std::cout, report.merged);

  std::ostringstream json;
  bench::write_results_json(json, points, report.merged);
  std::ofstream out(args.out, std::ios::binary | std::ios::trunc);
  out << json.str();
  if (!out.good()) {
    std::cerr << "cannot write " << args.out << "\n";
    return 1;
  }
  std::cout << "wrote " << args.out << "\n";
  return 0;
}

int run(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) return usage();
  try {
    if (args.store_stats) return bench::print_store_stats(std::cout, args.store);
    return run_mode(args);
  } catch (const Error& e) {
    std::cerr << "sweep_dispatch: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace
}  // namespace qvliw

int main(int argc, char** argv) { return qvliw::run(argc, argv); }
