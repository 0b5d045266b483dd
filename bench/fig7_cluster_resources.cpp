// Fig. 7 (text) — the basic cluster configuration.
//
// Paper: a cluster of {L/S, ADD, MUL, COPY} with 8 private queues plus a
// ring of 8 queues per direction per segment suffices for (almost) every
// loop of the benchmark on the machines analysed; a small fraction needs
// more.  Beyond the paper, the same resource curves are swept per
// interconnect topology (ring / mesh / crossbar) so the 8/8 budget can be
// compared across interconnects, and the curves are written to a bench
// JSON for plotting.
//
//   fig7_cluster_resources [--topology ring|mesh|crossbar] [--clusters N]
//                          [--out FILE.json]   (default BENCH_fig7.json)
#include <fstream>
#include <iostream>

#include "bench_common.h"
#include "support/stats.h"
#include "support/strings.h"

namespace qvliw {
namespace {

struct Curve {
  TopologyKind kind;
  int clusters;
  std::string label;
  int scheduled = 0;
  double pct_priv = 0.0;       // loops with max private queues <= 8
  double pct_segment = 0.0;    // loops with max segment queues <= 8
  double pct_both = 0.0;
  double p95_priv = 0.0;
  double p95_segment = 0.0;
  double p95_positions = 0.0;
  double max_positions = 0.0;
};

/// Cluster counts swept per topology.  Meshes need composite counts so
/// the grid has two real dimensions; ring and crossbar reuse the paper's
/// 4/5/6 ladder.
std::vector<int> default_sizes(TopologyKind kind) {
  if (kind == TopologyKind::kMesh) return {4, 6, 9};
  return {4, 5, 6};
}

int run(int argc, char** argv) {
  std::vector<TopologyKind> kinds = {TopologyKind::kRing, TopologyKind::kMesh,
                                     TopologyKind::kCrossbar};
  int clusters_override = 0;
  std::string out_path = "BENCH_fig7.json";
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg == "--topology" && a + 1 < argc) {
      const auto kind = parse_topology_kind(argv[++a]);
      if (!kind.has_value()) {
        std::cerr << "bad --topology value\n";
        return 2;
      }
      kinds = {*kind};
    } else if (arg == "--clusters" && a + 1 < argc) {
      clusters_override = bench::flag_int("--clusters", argv[++a], 1);
    } else if (arg == "--out" && a + 1 < argc) {
      out_path = argv[++a];
    } else {
      std::cerr << "usage: fig7_cluster_resources [--topology ring|mesh|crossbar]"
                << " [--clusters N] [--out FILE.json]\n";
      return 2;
    }
  }

  print_banner(std::cout, "Fig. 7 — per-cluster queue resources (8 private + 8 per segment)",
               "the 8/8 cluster covers nearly all loops on every interconnect");
  const Suite suite = bench::make_suite();
  bench::print_suite_line(std::cout, suite);

  std::vector<SweepPoint> points;
  std::vector<Curve> curves;
  for (const TopologyKind kind : kinds) {
    const std::vector<int> sizes =
        clusters_override > 0 ? std::vector<int>{clusters_override} : default_sizes(kind);
    for (const int clusters : sizes) {
      PipelineOptions options;
      options.unroll = true;
      options.max_unroll = bench::max_unroll();
      options.scheduler = SchedulerKind::kClustered;
      Curve curve;
      curve.kind = kind;
      curve.clusters = clusters;
      curve.label = bench::topology_label(kind, clusters);
      curves.push_back(curve);
      points.push_back({curves.back().label, MachineConfig::topology_machine(kind, clusters),
                        options});
    }
  }
  const SweepResult sweep = SweepRunner().run(suite.loops, points);

  TextTable table({"machine", "priv <= 8", "seg <= 8", "both <= 8", "p95 priv", "p95 seg",
                   "p95 positions", "max positions"});
  for (std::size_t c = 0; c < curves.size(); ++c) {
    const std::vector<LoopResult>& results = sweep.by_point[c];
    Curve& curve = curves[c];

    std::vector<double> priv;
    std::vector<double> seg_q;
    std::vector<double> positions;
    int ok_priv = 0;
    int ok_seg = 0;
    int ok_both = 0;
    for (const LoopResult& r : results) {
      if (!r.ok) continue;
      ++curve.scheduled;
      priv.push_back(r.max_private_queues);
      seg_q.push_back(r.max_segment_queues);
      positions.push_back(r.max_positions);
      const bool p = r.max_private_queues <= 8;
      const bool g = r.max_segment_queues <= 8;
      if (p) ++ok_priv;
      if (g) ++ok_seg;
      if (p && g) ++ok_both;
    }
    const double n = curve.scheduled > 0 ? static_cast<double>(curve.scheduled) : 1.0;
    curve.pct_priv = ok_priv / n;
    curve.pct_segment = ok_seg / n;
    curve.pct_both = ok_both / n;
    curve.p95_priv = percentile(priv, 95);
    curve.p95_segment = percentile(seg_q, 95);
    curve.p95_positions = percentile(positions, 95);
    curve.max_positions = positions.empty() ? 0.0 : percentile(positions, 100);
    table.add_row({curve.label, percent(curve.pct_priv), percent(curve.pct_segment),
                   percent(curve.pct_both), curve.p95_priv, curve.p95_segment,
                   curve.p95_positions, static_cast<std::int64_t>(curve.max_positions)});
  }
  table.render(std::cout);
  bench::print_sweep_footer(std::cout, sweep);

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  out << "{\n  \"bench\": \"fig7_cluster_resources\",\n"
      << "  \"suite_loops\": " << suite.loops.size() << ",\n  \"curves\": [";
  for (std::size_t c = 0; c < curves.size(); ++c) {
    const Curve& curve = curves[c];
    out << (c == 0 ? "" : ",") << "\n    {\"topology\": \"" << topology_kind_name(curve.kind)
        << "\", \"clusters\": " << curve.clusters << ", \"label\": \"" << curve.label
        << "\", \"scheduled\": " << curve.scheduled
        << ", \"pct_private_le8\": " << fixed(curve.pct_priv, 6)
        << ", \"pct_segment_le8\": " << fixed(curve.pct_segment, 6)
        << ", \"pct_both_le8\": " << fixed(curve.pct_both, 6)
        << ", \"p95_private\": " << fixed(curve.p95_priv, 3)
        << ", \"p95_segment\": " << fixed(curve.p95_segment, 3)
        << ", \"p95_positions\": " << fixed(curve.p95_positions, 3)
        << ", \"max_positions\": " << fixed(curve.max_positions, 1) << "}";
  }
  out << "\n  ]\n}\n";
  std::cout << "\nwrote " << out_path << "\n";
  return 0;
}

}  // namespace
}  // namespace qvliw

int main(int argc, char** argv) { return qvliw::run(argc, argv); }
