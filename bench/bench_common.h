// Shared plumbing for the figure-reproduction benches.
//
// Every bench assembles its experiment as a vector of SweepPoints and
// hands the whole cross product to SweepRunner in one call, so points
// sharing an options prefix (same invariants/unroll/copy choices) reuse
// the cached front-end artifacts instead of recomputing them per point.
#pragma once

#include <cerrno>
#include <climits>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>

#include "harness/experiment.h"
#include "harness/report.h"
#include "harness/shard.h"
#include "harness/stage.h"
#include "harness/sweep.h"
#include "support/rng.h"
#include "support/strings.h"
#include "workload/suite.h"

namespace qvliw::bench {

/// The whole of `text` as a base-10 int no smaller than `min_value`;
/// nullopt when it is empty, non-numeric, has trailing characters, or is
/// out of range.  The one integer parser of every bench flag and
/// environment variable.
inline std::optional<int> parse_int(const char* text, int min_value) {
  errno = 0;
  char* end = nullptr;
  const long n = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || n < min_value || n > INT_MAX) {
    return std::nullopt;
  }
  return static_cast<int>(n);
}

/// parse_int for the value of command-line flag `flag`.  A bad value is
/// an error: the bench names the flag and exits with status 2 before
/// doing any work.
inline int flag_int(const char* flag, const char* text, int min_value) {
  const std::optional<int> n = parse_int(text, min_value);
  if (!n.has_value()) {
    std::cerr << flag << " \"" << text << "\" is not an integer >= " << min_value << "\n";
    std::exit(2);
  }
  return *n;
}

/// A positive integer from environment variable `name`, or `fallback`
/// when it is unset.  Any other value (empty, non-numeric, trailing
/// characters, out of range, <= 0) is an error: the bench names the
/// variable and exits with status 2 before doing any work.
inline int env_positive_int(const char* name, int fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr) return fallback;
  const std::optional<int> n = parse_int(env, 1);
  if (!n.has_value()) {
    std::cerr << name << "=\"" << env << "\" is not a positive integer\n";
    std::exit(2);
  }
  return *n;
}

/// Suite size: the paper's 1258 loops by default; override with
/// QVLIW_LOOPS=<n> for quick runs.
inline int suite_size() { return env_positive_int("QVLIW_LOOPS", 1258); }

/// Unroll search bound (QVLIW_MAX_UNROLL, default 8 as in the library).
inline int max_unroll() { return env_positive_int("QVLIW_MAX_UNROLL", 8); }

inline Suite make_suite() {
  SynthConfig config;
  config.loops = suite_size();
  return full_suite(config);
}

/// Short label prefix for a bench machine: "ring-4", "mesh-9", "xbar-4".
inline std::string topology_label(TopologyKind kind, int clusters) {
  return cat(kind == TopologyKind::kCrossbar ? "xbar" : topology_kind_name(kind), "-", clusters);
}

/// Shared `--topology ring|mesh|crossbar` / `--clusters N` parsing for the
/// bench drivers.  Defaults to the paper's 4-cluster ring, so benches run
/// without flags keep their historical labels and fingerprints.
struct TopologyChoice {
  TopologyKind kind = TopologyKind::kRing;
  int clusters = 4;

  [[nodiscard]] MachineConfig machine() const {
    return MachineConfig::topology_machine(kind, clusters);
  }
  [[nodiscard]] std::string label() const { return topology_label(kind, clusters); }

  /// Consumes `--topology`/`--clusters` at argv[a] (advancing `a` past the
  /// value).  Returns false on an unknown flag, a missing value or a bad
  /// topology name; callers fall through to their own flag handling.  A
  /// bad `--clusters` value exits with status 2 (see flag_int).
  bool parse_flag(int argc, char** argv, int& a) {
    const std::string flag = argv[a];
    if (flag == "--topology") {
      if (a + 1 >= argc) return false;
      const auto parsed = parse_topology_kind(argv[++a]);
      if (!parsed.has_value()) return false;
      kind = *parsed;
      return true;
    }
    if (flag == "--clusters") {
      if (a + 1 >= argc) return false;
      clusters = flag_int("--clusters", argv[++a], 1);
      return true;
    }
    return false;
  }
};

/// The multi-heuristic back-end sweep that perf_sweep runs: every point
/// reuses the unrolled/copy-inserted front end of one machine (default:
/// the paper's 4-cluster ring) and differs only in (heuristic, IMS
/// budget), so the points form ascending-budget warm-start ladders per
/// heuristic.
inline std::vector<SweepPoint> perf_sweep_points(const TopologyChoice& choice = {}) {
  PipelineOptions base;
  base.unroll = true;
  base.max_unroll = max_unroll();

  std::vector<SweepPoint> points;
  const MachineConfig machine = choice.machine();
  for (const ClusterHeuristic heuristic :
       {ClusterHeuristic::kAffinity, ClusterHeuristic::kLoadBalance,
        ClusterHeuristic::kFirstFit}) {
    for (const int budget : {6, 12}) {
      PipelineOptions options = base;
      options.scheduler = SchedulerKind::kClustered;
      options.heuristic = heuristic;
      options.ims.budget_ratio = budget;
      points.push_back({cat(choice.label(), "-", cluster_heuristic_name(heuristic), "-", budget,
                            "x"),
                        machine, options});
    }
  }
  return points;
}

inline void print_suite_line(std::ostream& os, const Suite& suite) {
  os << "suite: " << suite.loops.size() << " loops (" << suite.kernel_count
     << " hand-written kernels + " << suite.loops.size() - static_cast<std::size_t>(suite.kernel_count)
     << " calibrated synthetic); override size with QVLIW_LOOPS=<n>\n\n";
}

/// Instrumentation footer: sweep throughput, cache effectiveness and the
/// per-stage wall-time split.
inline void print_sweep_footer(std::ostream& os, const SweepResult& sweep) {
  os << "\n[sweep] " << sweep.pipelines << " pipeline runs in " << fixed(sweep.wall_seconds, 2)
     << " s (" << fixed(sweep.pipelines_per_second(), 1) << " pipelines/s); artifact cache hit rate "
     << percent(sweep.cache.hit_rate()) << " (" << sweep.cache.hits() << "/"
     << sweep.cache.probes() << " probes)\n[sweep] stage time:";
  for (const StageTotal& total : sweep.stage_totals) {
    os << " " << total.stage << " " << fixed(total.seconds, 2) << "s";
  }
  os << "\n";
}

/// One-line artifact-store / sched-memo counter summary (perf_sweep's
/// footer).
inline void print_store_counters(std::ostream& os, const SweepResult& sweep) {
  os << "store: front " << sweep.cache.disk_hits << "/" << sweep.cache.disk_probes
     << "; sched memo " << sweep.cache.sched_memo_hits << "/" << sweep.cache.sched_memo_probes
     << "\n";
}

/// Canonical results-only JSON: every semantic LoopResult field, no
/// timing and no effort provenance, so two runs of one sweep produce
/// byte-identical files at any worker count.
inline void write_results_json(std::ostream& os, const std::vector<SweepPoint>& points,
                               const SweepResult& sweep) {
  os << "{\n  \"bench\": \"perf_sweep\",\n"
     << "  \"points\": " << sweep.by_point.size() << ",\n"
     << "  \"loops\": " << (sweep.by_point.empty() ? 0 : sweep.by_point[0].size()) << ",\n"
     << "  \"fingerprint\": \"" << std::hex << hash_bytes(sweep_result_fingerprint(sweep))
     << std::dec << "\",\n  \"results\": [";
  for (std::size_t p = 0; p < sweep.by_point.size(); ++p) {
    os << (p == 0 ? "" : ",") << "\n    {\"label\": \""
       << (p < points.size() ? points[p].label : std::string("?")) << "\", \"loops\": [";
    for (std::size_t i = 0; i < sweep.by_point[p].size(); ++i) {
      const LoopResult& r = sweep.by_point[p][i];
      os << (i == 0 ? "" : ",") << "\n      {\"name\": \"" << r.name << "\", \"ok\": "
         << (r.ok ? "true" : "false") << ", \"failed_stage\": \"" << r.failed_stage
         << "\", \"ii\": " << r.ii << ", \"mii\": " << r.mii << ", \"stage_count\": "
         << r.stage_count << ", \"unroll\": " << r.unroll_factor << ", \"sched_ops\": "
         << r.sched_ops << ", \"copies\": " << r.copies << ", \"moves\": " << r.moves
         << ", \"queues\": " << r.total_queues << ", \"registers\": " << r.registers
         << ", \"ipc_static\": " << fixed(r.ipc_static, 9) << ", \"ipc_dynamic\": "
         << fixed(r.ipc_dynamic, 9) << ", \"fits\": " << (r.fits_machine_queues ? "true" : "false")
         << ", \"fit_retries\": " << r.queue_fit_retries
         << ", \"verify_checked\": " << (r.verify_checked ? "true" : "false")
         << ", \"verify_violations\": " << r.verify_violations << "}";
    }
    os << "\n    ]}";
  }
  os << "\n  ]\n}\n";
}

}  // namespace qvliw::bench
