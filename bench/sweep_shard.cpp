// Process-sharded sweep driver.
//
// Runs the multi-heuristic perf sweep as one shard of an N-way
// partition, serialises the shard's SweepResult through the portable
// blob codec, and merges shard files back into the single-process
// result.  All shards of one sweep share the artifact store (--store),
// so front-end artifacts and MII maps persisted by one process are hits
// for the others — the distribution seam the
// ROADMAP's sharding item calls for.
//
//   sweep_shard run    --shards N --shard I --out S.shard [--store DIR] [--axis loops|points] [--workers M]
//   sweep_shard merge  --out merged.json S0.shard S1.shard ...
//   sweep_shard single --out single.json [--store DIR] [--workers M]
//
// `--topology ring|mesh|crossbar` and `--clusters N` (defaults: ring, 4)
// select the swept machine; merge must be invoked with the same choice so
// the canonical JSON carries the right point labels.
//
// `--workers M` (default: one per hardware thread) runs the shard's sweep
// on M threads — sharding and threading compose, and the merged result
// stays fingerprint-identical at any worker count.
//
// `merge` and `single` write byte-identical canonical results JSON when
// the sharded and single-process sweeps agree (CI diffs the two files);
// both embed the result fingerprint (harness/shard.h), which excludes
// wall times and scheduling-effort provenance.  Suite size follows
// QVLIW_LOOPS like every bench.
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "harness/shard.h"
#include "support/artifact_store.h"
#include "support/diagnostics.h"
#include "support/rng.h"

namespace qvliw {
namespace {

struct Args {
  std::string mode;
  std::string out;
  std::string store;
  std::string checkpoint;
  std::vector<std::string> inputs;
  int shards = 1;
  int shard = 0;
  int workers = 0;  // 0 = one thread per hardware thread
  bench::TopologyChoice topology;
  ShardAxis axis = ShardAxis::kLoops;
  bool verify = false;  // strict translation validation on every pipeline
  bool store_stats = false;
};

int usage() {
  std::cerr
      << "usage:\n"
      << "  sweep_shard run    --shards N --shard I --out FILE [--store DIR]"
      << " [--checkpoint DIR] [--axis loops|points] [--workers M]"
      << " [--topology ring|mesh|crossbar] [--clusters N]\n"
      << "  sweep_shard merge  --out FILE.json [--topology T] [--clusters N] SHARD...\n"
      << "  sweep_shard single --out FILE.json [--store DIR] [--checkpoint DIR]"
      << " [--workers M] [--topology ring|mesh|crossbar] [--clusters N] [--verify]\n"
      << "  sweep_shard --store-stats --store DIR   # inspect a shared store directory\n";
  return 2;
}

bool parse_args(int argc, char** argv, Args& args) {
  if (argc < 2) return false;
  args.mode = argv[1];
  int start = 2;
  if (args.mode == "--store-stats") {
    args.store_stats = true;
    args.mode.clear();
  } else if (args.mode.empty() || args.mode[0] == '-') {
    return false;
  }
  for (int a = start; a < argc; ++a) {
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
    } else if (flag == "--checkpoint") {
      const char* v = next();
      if (v == nullptr) return false;
      args.checkpoint = v;
    } else if (flag == "--shards") {
      const char* v = next();
      if (v == nullptr) return false;
      args.shards = std::atoi(v);
    } else if (flag == "--shard") {
      const char* v = next();
      if (v == nullptr) return false;
      args.shard = std::atoi(v);
    } else if (flag == "--workers") {
      const char* v = next();
      if (v == nullptr) return false;
      args.workers = std::atoi(v);
    } else if (flag == "--axis") {
      const char* v = next();
      if (v == nullptr) return false;
      const std::string axis = v;
      if (axis == "loops") {
        args.axis = ShardAxis::kLoops;
      } else if (axis == "points") {
        args.axis = ShardAxis::kPoints;
      } else {
        return false;
      }
    } else if (flag == "--topology" || flag == "--clusters") {
      if (!args.topology.parse_flag(argc, argv, a)) return false;
    } else if (flag == "--verify") {
      args.verify = true;
    } else if (flag == "--store-stats") {
      args.store_stats = true;
    } else if (!flag.empty() && flag[0] != '-') {
      args.inputs.push_back(flag);
    } else {
      return false;
    }
  }
  return args.store_stats || !args.out.empty();
}

int write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out.good()) {
    std::cerr << "cannot write " << path << "\n";
    return 1;
  }
  return 0;
}

int run_mode(const Args& args, bool sharded) {
  const Suite suite = bench::make_suite();
  const std::vector<SweepPoint> points = bench::perf_sweep_points(args.topology);

  SweepOptions options;
  options.store_dir = args.store;
  options.checkpoint_dir = args.checkpoint;
  options.workers = args.workers;
  if (args.verify) options.verify_mode = SweepVerifyMode::kStrict;
  if (sharded) {
    options.shard_count = args.shards;
    options.shard_index = args.shard;
    options.shard_axis = args.axis;
  }
  std::cout << (sharded ? "shard " : "single process ");
  if (sharded) std::cout << args.shard << "/" << args.shards << " ";
  std::cout << "(" << suite.loops.size() << " loops x " << points.size() << " points, "
            << resolved_sweep_workers(options) << " worker(s)"
            << (args.store.empty() ? "" : ", shared store ") << args.store << ")...\n";
  const SweepResult sweep = SweepRunner(options).run(suite.loops, points);
  std::cout << "ran " << sweep.pipelines << " pipelines in " << fixed(sweep.wall_seconds, 2)
            << " s\n";
  if (!args.checkpoint.empty()) {
    std::cout << "checkpoint: " << sweep.checkpoint.tasks_replayed << " task(s) replayed, "
              << sweep.checkpoint.tasks_executed << " executed, journal "
              << sweep.checkpoint.journal_bytes << " bytes\n";
  }
  bench::print_store_counters(std::cout, sweep);

  if (!sharded) {
    std::ostringstream json;
    bench::write_results_json(json, points, sweep);
    return write_file(args.out, json.str());
  }
  SweepShard shard;
  shard.header.shard_count = args.shards;
  shard.header.shard_index = args.shard;
  shard.header.axis = args.axis;
  shard.header.loops = suite.loops.size();
  shard.header.points = points.size();
  shard.header.config_hash = sweep_config_hash(suite.loops, points);
  shard.result = sweep;
  return write_file(args.out, encode_sweep_shard(shard));
}

int merge_mode(const Args& args) {
  if (args.inputs.empty()) {
    std::cerr << "merge: no shard files given\n";
    return 2;
  }
  std::vector<SweepShard> shards;
  for (const std::string& path : args.inputs) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      std::cerr << "cannot read " << path << "\n";
      return 1;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    shards.push_back(decode_sweep_shard(std::move(buffer).str()));
    std::cout << path << ": shard " << shards.back().header.shard_index << "/"
              << shards.back().header.shard_count << ", " << shards.back().result.pipelines
              << " pipelines\n";
  }
  const SweepResult merged = merge_sweep_shards(std::move(shards));
  std::cout << "merged " << merged.pipelines << " pipelines\n";
  bench::print_store_counters(std::cout, merged);

  // Labels for the canonical JSON: the shared perf sweep's points (the
  // config hash already proved the shards came from this sweep).
  std::ostringstream json;
  bench::write_results_json(json, bench::perf_sweep_points(args.topology), merged);
  return write_file(args.out, json.str());
}

int run(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) return usage();
  try {
    if (args.store_stats) return bench::print_store_stats(std::cout, args.store);
    if (args.mode == "run") {
      if (args.shards < 1 || args.shard < 0 || args.shard >= args.shards) return usage();
      return run_mode(args, /*sharded=*/true);
    }
    if (args.mode == "single") return run_mode(args, /*sharded=*/false);
    if (args.mode == "merge") return merge_mode(args);
  } catch (const Error& e) {
    std::cerr << "sweep_shard: " << e.what() << "\n";
    return 1;
  }
  return usage();
}

}  // namespace
}  // namespace qvliw

int main(int argc, char** argv) { return qvliw::run(argc, argv); }
