#include "sched/backend.h"

#include <utility>

#include "cluster/route.h"
#include "support/diagnostics.h"
#include "support/rng.h"

namespace qvliw {

std::string_view scheduler_kind_name(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kSingleCluster:
      return "single-cluster";
    case SchedulerKind::kClustered:
      return "clustered";
    case SchedulerKind::kClusteredMoves:
      return "clustered-moves";
  }
  QVLIW_ASSERT(false, "bad SchedulerKind");
}

bool scheduler_rewrites_loop(SchedulerKind kind) {
  return kind == SchedulerKind::kClusteredMoves;
}

std::uint64_t scheduler_cache_key(SchedulerKind kind, ClusterHeuristic heuristic,
                                  const ImsOptions& ims) {
  std::uint64_t key = hash_bytes(scheduler_kind_name(kind));
  // The heuristic steers cluster choice only; a one-cluster schedule is
  // independent of it, so points differing only there share slots.
  if (kind != SchedulerKind::kSingleCluster) {
    key = hash_combine(key, hash64(static_cast<std::uint64_t>(heuristic)));
  }
  key = hash_combine(key, hash64(static_cast<std::uint64_t>(ims.start_ii)));
  key = hash_combine(key, hash64(static_cast<std::uint64_t>(ims.max_ii)));
  key = hash_combine(key, hash64(static_cast<std::uint64_t>(ims.max_ii_attempts)));
  return hash_combine(key, hash64(static_cast<std::uint64_t>(ims.ii_limit + 1)));
}

ScheduleOutcome schedule(SchedulerKind kind, const ScheduleRequest& request) {
  ScheduleOutcome outcome;
  if (kind == SchedulerKind::kSingleCluster) {
    outcome.ims = ims_schedule(*request.loop, *request.graph, *request.machine, request.ims,
                               /*assigner=*/nullptr, request.seed);
    return outcome;
  }
  PartitionOptions options;
  options.heuristic = request.heuristic;
  options.ims = request.ims;
  if (kind == SchedulerKind::kClustered) {
    outcome.ims = partition_schedule(*request.loop, *request.graph, *request.machine, options,
                                     request.seed);
    return outcome;
  }
  RouteResult routed = partition_with_moves(*request.loop, *request.machine, options);
  if (!routed.ok) {
    outcome.ims.failure = std::move(routed.failure);
    return outcome;
  }
  outcome.ims = std::move(routed.ims);
  outcome.rewrote = true;
  outcome.moves_added = routed.moves_added;
  outcome.rewritten_graph =
      std::make_shared<const Ddg>(Ddg::build(routed.loop, request.machine->latency));
  outcome.rewritten_loop = std::move(routed.loop);
  return outcome;
}

}  // namespace qvliw
