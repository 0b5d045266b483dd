// Pinned digest of the cycle-accurate simulator's observable output.
//
// Every SimResult field — ok, failure text, final memory image, cycle,
// issue, push and pop counts, peak occupancy, dynamic IPC — is hashed over
// a fixed matrix: the full 1258-loop paper suite compiled for the 4-cluster
// ring (affinity heuristic, unroll on), simulated at the loop's trip_hint
// and at trip 1 with depth enforcement off and on, plus two deterministic
// sabotaged allocations per loop (two queues merged, two lifetimes'
// queues swapped) and a run on the same machine with every queue clamped
// to depth 1.  These fail in port, FIFO-order and depth checks at varied
// cycles, so the pin also covers the partial counters and the memory image
// a failing run stops with.
//
// A change to the simulator's event core must leave this digest unchanged.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>

#include "harness/stage.h"
#include "sim/vliwsim.h"
#include "support/artifact_store.h"
#include "support/rng.h"
#include "workload/suite.h"

namespace qvliw {
namespace {

/// Digest of the matrix below, computed with the map-based simulator the
/// flat-calendar core replaced, with the matrix's run count and the
/// number of those runs that fail.
constexpr const char* kPinnedDigest = "d96ea1f0c0213054";
constexpr int kPinnedRuns = 8804;
constexpr int kPinnedFailures = 2512;

struct Compiled {
  Loop loop;
  std::shared_ptr<const Ddg> graph;
  Schedule schedule;
  QueueAllocation allocation;
};

PipelineOptions ring4_options() {
  PipelineOptions options;
  options.unroll = true;
  options.max_unroll = 8;
  options.scheduler = SchedulerKind::kClustered;
  options.heuristic = ClusterHeuristic::kAffinity;
  return options;
}

std::uint64_t digest_of(const SimResult& r) {
  BlobWriter out;
  out.put_bool(r.ok);
  out.put_string(r.failure);
  out.put_i64(r.cycles);
  out.put_i64(r.issues);
  out.put_i64(r.useful_issues);
  out.put_i64(r.pushes);
  out.put_i64(r.pops);
  out.put_i32(r.max_queue_occupancy);
  out.put_f64(r.dynamic_ipc);
  out.put_i32(r.memory.arrays());
  out.put_i64(r.memory.elements());
  for (int a = 0; a < r.memory.arrays(); ++a) {
    for (long long i = -MemoryImage::kPad; i < r.memory.elements() + MemoryImage::kPad; ++i) {
      out.put_i64(r.memory.load(a, i));
    }
  }
  return hash_bytes(out.take());
}

/// Lifetimes of queue `from` move into queue `into`.
QueueAllocation merge_queues(QueueAllocation allocation, int into, int from) {
  for (int& q : allocation.queue_of) {
    if (q == from) q = into;
  }
  auto& members = allocation.queues[static_cast<std::size_t>(into)].members;
  for (int m : allocation.queues[static_cast<std::size_t>(from)].members) members.push_back(m);
  allocation.queues[static_cast<std::size_t>(from)].members.clear();
  return allocation;
}

/// Lifetimes `a` and `b` trade queues (the simulator reads only queue_of).
QueueAllocation swap_queues(QueueAllocation allocation, std::size_t a, std::size_t b) {
  std::swap(allocation.queue_of[a], allocation.queue_of[b]);
  return allocation;
}

TEST(SimGolden, FullSuiteDigestPinned) {
  const Suite suite = full_suite();
  ASSERT_EQ(suite.loops.size(), 1258u);
  const MachineConfig machine = MachineConfig::topology_machine(TopologyKind::kRing, 4);
  const PipelineOptions options = ring4_options();
  MachineConfig shallow = machine;
  for (ClusterConfig& cluster : shallow.clusters) cluster.queue_depth = 1;
  shallow.segment.queue_depth = 1;

  std::uint64_t digest = 0;
  int runs = 0;
  int failures = 0;
  const auto record = [&](const Compiled& c, const MachineConfig& on,
                          const QueueAllocation& allocation, long long trip, bool enforce_depth) {
    SimOptions sim_options;
    sim_options.enforce_depth = enforce_depth;
    const SimResult r = simulate(c.loop, *c.graph, on, c.schedule, allocation, trip, sim_options);
    digest = hash_combine(digest, digest_of(r));
    ++runs;
    if (!r.ok) ++failures;
  };

  for (std::size_t k = 0; k < suite.loops.size(); ++k) {
    PipelineContext ctx(suite.loops[k], machine, options);
    run_stages(ctx, full_stage_plan());
    ASSERT_TRUE(ctx.result.ok) << suite.loops[k].name << ": " << ctx.result.failure;
    const Compiled c{ctx.loop, ctx.graph, ctx.sched.schedule, ctx.allocation};
    const long long trip_hint = std::max(1, c.loop.trip_hint);

    for (const long long trip : {trip_hint, 1LL}) {
      for (const bool enforce_depth : {false, true}) {
        record(c, machine, c.allocation, trip, enforce_depth);
      }
    }
    record(c, shallow, c.allocation, trip_hint, true);

    const int queues = static_cast<int>(c.allocation.queues.size());
    if (queues >= 2) {
      const int into = static_cast<int>(k % static_cast<std::size_t>(queues));
      record(c, machine, merge_queues(c.allocation, into, (into + 1) % queues), trip_hint, false);
    }
    const std::size_t lifetimes = c.allocation.lifetimes.size();
    if (lifetimes >= 2) {
      const std::size_t a = k % lifetimes;
      std::size_t b = (a + lifetimes / 2) % lifetimes;
      for (std::size_t step = 0; step < lifetimes && c.allocation.queue_of[a] ==
                                                         c.allocation.queue_of[b];
           ++step) {
        b = (b + 1) % lifetimes;
      }
      record(c, machine, swap_queues(c.allocation, a, b), trip_hint, true);
    }
  }

  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(digest));
  EXPECT_EQ(runs, kPinnedRuns);
  EXPECT_EQ(failures, kPinnedFailures);
  EXPECT_EQ(std::string(hex), kPinnedDigest);
}

}  // namespace
}  // namespace qvliw
