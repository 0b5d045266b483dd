// The pipeline's three scheduling modes behind one dispatch function.
//
// `schedule(kind, request)` runs single-cluster IMS, the paper's
// partitioned IMS, or partitioned IMS with move routing on a
// `ScheduleRequest`.  The two facts the sweep runner needs about a kind
// are free functions too:
//
//  - `scheduler_cache_key(kind, heuristic, ims)`: the kind's contribution
//    to any cache slot holding one of its schedules.  It folds the kind
//    plus every option that changes which schedules are *reachable* — but
//    not `budget_ratio`, the effort axis a budget ladder deliberately
//    spans.  Slots derived from different contributions never alias (a
//    regression test enforces this).
//  - `scheduler_rewrites_loop(kind)`: the moves router inserts relay ops
//    and reschedules the rewritten loop internally, so neither MII bounds
//    precomputed for the request's loop (ImsOptions::known_mii) nor a
//    sibling point's schedule (`ScheduleRequest::seed`) applies to it.
//
// Warm starts: a request may carry the MII-optimal schedule a sibling
// sweep point accepted (same loop/DDG/machine, smaller budget) as a
// `WarmStartSeed`.  The non-rewriting kinds forward it to IMS, which
// verifies the seed and uses it to cap the II ladder — never changing the
// final II relative to a cold run on an ascending-budget ladder, only
// skipping the search that would rediscover it.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>

#include "cluster/partition.h"
#include "sched/ims.h"

namespace qvliw {

/// The scheduling modes.
enum class SchedulerKind {
  kSingleCluster,   // classic IMS, machine treated as one cluster
  kClustered,       // the paper's partitioned IMS (adjacent-only comm)
  kClusteredMoves,  // extension: multi-hop routing via move ops
};

/// The kind's report name ("single-cluster", "clustered",
/// "clustered-moves"), recorded in LoopResult::backend.
[[nodiscard]] std::string_view scheduler_kind_name(SchedulerKind kind);

/// Everything one scheduling run consumes.  Non-owning: the caller keeps
/// loop/graph/machine (and the optional seed) alive for the call.
struct ScheduleRequest {
  const Loop* loop = nullptr;
  const Ddg* graph = nullptr;
  const MachineConfig* machine = nullptr;

  /// IMS knobs, including the II window and — for kinds that do not
  /// rewrite the loop — the precomputed MII in `ims.known_mii`.
  ImsOptions ims;

  /// Cluster-choice heuristic (consulted by the partitioned kinds).
  ClusterHeuristic heuristic = ClusterHeuristic::kAffinity;

  /// Optional warm start: a ladder sibling's accepted MII-optimal schedule.
  const WarmStartSeed* seed = nullptr;
};

/// What a scheduling run hands back.  The moves router returns the
/// rewritten loop and its DDG so the caller can adopt them; `rewrote` is
/// false for the kinds that schedule the request's loop as-is.
struct ScheduleOutcome {
  ImsResult ims;

  bool rewrote = false;
  Loop rewritten_loop;                         // valid when rewrote
  std::shared_ptr<const Ddg> rewritten_graph;  // valid when rewrote
  int moves_added = 0;
};

/// Schedules `request` with the scheduler of `kind`.
[[nodiscard]] ScheduleOutcome schedule(SchedulerKind kind, const ScheduleRequest& request);

/// Contribution of `kind` to cache slots holding its schedules (the
/// sweep's MII-optimality memo): the kind, the heuristic when the kind
/// partitions, and the II window and attempt cap — NOT budget_ratio or
/// known_mii.
[[nodiscard]] std::uint64_t scheduler_cache_key(SchedulerKind kind, ClusterHeuristic heuristic,
                                                const ImsOptions& ims);

/// True when the scheduler rewrites the loop (the moves router): such a
/// kind ignores injected MII bounds and warm-start seeds.
[[nodiscard]] bool scheduler_rewrites_loop(SchedulerKind kind);

}  // namespace qvliw
