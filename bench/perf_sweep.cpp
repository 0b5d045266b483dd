// The multi-heuristic perf sweep as a command-line run.
//
// Runs bench::perf_sweep_points() — three cluster heuristics x IMS budget
// 6/12 on one machine — over the suite and writes the canonical results
// JSON (every semantic LoopResult field plus the result fingerprint,
// harness/shard.h; no wall times and no effort provenance), so two runs
// of one sweep write byte-identical files at any worker count.
//
//   perf_sweep --out FILE.json [--store DIR] [--workers M]
//              [--topology ring|mesh|crossbar] [--clusters N] [--verify]
//
// `--store DIR` persists front-end artifacts across runs;
// `--workers M` runs the sweep on M threads (0 or absent: one per hardware
// thread); `--topology`/`--clusters` (defaults: ring, 4) select the swept
// machine; `--verify` runs strict translation validation on every cell.
// Suite size follows QVLIW_LOOPS like every bench.
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "support/diagnostics.h"

namespace qvliw {
namespace {

struct Args {
  std::string out;
  std::string store;
  int workers = 0;  // 0 = one thread per hardware thread
  bench::TopologyChoice topology;
  bool verify = false;  // strict translation validation on every pipeline
};

int usage() {
  std::cerr << "usage: perf_sweep --out FILE.json [--store DIR] [--workers M]"
            << " [--topology ring|mesh|crossbar] [--clusters N] [--verify]\n";
  return 2;
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int a = 1; a < argc; ++a) {
    const std::string flag = argv[a];
    auto next = [&]() -> const char* { return a + 1 < argc ? argv[++a] : nullptr; };
    if (flag == "--out") {
      const char* v = next();
      if (v == nullptr) return false;
      args.out = v;
    } else if (flag == "--store") {
      const char* v = next();
      if (v == nullptr) return false;
      args.store = v;
    } else if (flag == "--workers") {
      const char* v = next();
      if (v == nullptr) return false;
      args.workers = bench::flag_int("--workers", v, 0);
    } else if (flag == "--topology" || flag == "--clusters") {
      if (!args.topology.parse_flag(argc, argv, a)) return false;
    } else if (flag == "--verify") {
      args.verify = true;
    } else {
      return false;
    }
  }
  return !args.out.empty();
}

int sweep(const Args& args) {
  const Suite suite = bench::make_suite();
  const std::vector<SweepPoint> points = bench::perf_sweep_points(args.topology);

  SweepOptions options;
  options.store_dir = args.store;
  options.workers = args.workers;
  if (args.verify) options.verify_mode = SweepVerifyMode::kStrict;
  std::cout << "perf sweep (" << suite.loops.size() << " loops x " << points.size()
            << " points, " << resolved_sweep_workers(options) << " worker(s)"
            << (args.store.empty() ? "" : ", store ") << args.store << ")...\n";
  const SweepResult result = SweepRunner(options).run(suite.loops, points);
  std::cout << "ran " << result.pipelines << " pipelines in " << fixed(result.wall_seconds, 2)
            << " s\n";
  bench::print_store_counters(std::cout, result);

  std::ostringstream json;
  bench::write_results_json(json, points, result);
  std::ofstream out(args.out, std::ios::binary | std::ios::trunc);
  out << json.str();
  if (!out.good()) {
    std::cerr << "cannot write " << args.out << "\n";
    return 1;
  }
  return 0;
}

int run(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) return usage();
  try {
    return sweep(args);
  } catch (const Error& e) {
    std::cerr << "perf_sweep: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace
}  // namespace qvliw

int main(int argc, char** argv) { return qvliw::run(argc, argv); }
