// End-to-end oracle tests: every kernel, scheduled and queue-allocated on
// several machines, must execute on the cycle-accurate QRF simulator with
// perfect FIFO discipline and reproduce the reference interpreter's memory
// bit for bit.
#include <gtest/gtest.h>

#include <vector>

#include "ir/parser.h"
#include "qrf/lifetime.h"
#include "qrf/queue_alloc.h"
#include "sched/ims.h"
#include "sim/interp.h"
#include "sim/vliwsim.h"
#include "support/strings.h"
#include "workload/kernels.h"
#include "xform/copy_insert.h"
#include "xform/invariants.h"

namespace qvliw {
namespace {

struct Prepared {
  Loop loop;
  Ddg graph{0};
  MachineConfig machine;
  ImsResult sched;
  QueueAllocation allocation;
};

Prepared prepare(const Loop& source, int fus) {
  Prepared p;
  p.loop = insert_copies(source).loop;
  p.machine = MachineConfig::single_cluster_machine(fus);
  p.graph = Ddg::build(p.loop, p.machine.latency);
  p.sched = ims_schedule(p.loop, p.graph, p.machine);
  EXPECT_TRUE(p.sched.ok) << source.name << ": " << p.sched.failure;
  p.allocation = allocate_queues(p.loop, p.graph, p.machine, p.sched.schedule);
  return p;
}

TEST(VliwSim, DaxpyMatchesReference) {
  const Prepared p = prepare(kernel_by_name("daxpy"), 6);
  const CheckedSim r = simulate_and_check(p.loop, p.graph, p.machine, p.sched.schedule,
                                          p.allocation, 50);
  EXPECT_TRUE(r.ok) << r.failure;
  EXPECT_GT(r.sim.pops, 0);
  EXPECT_GT(r.sim.pushes, 0);
}

TEST(VliwSim, CyclesMatchAnalyticModel) {
  const Prepared p = prepare(kernel_by_name("fir4"), 6);
  const SimResult r =
      simulate(p.loop, p.graph, p.machine, p.sched.schedule, p.allocation, 40);
  ASSERT_TRUE(r.ok) << r.failure;
  EXPECT_EQ(r.cycles, p.sched.schedule.total_cycles(p.loop, p.machine.latency, 40));
}

TEST(VliwSim, IssueCountsAreExact) {
  const Prepared p = prepare(kernel_by_name("dot"), 6);
  const long long trip = 30;
  const SimResult r = simulate(p.loop, p.graph, p.machine, p.sched.schedule, p.allocation, trip);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.issues, static_cast<long long>(p.loop.op_count()) * trip);
  EXPECT_EQ(r.useful_issues, static_cast<long long>(useful_op_count(p.loop)) * trip);
  EXPECT_GT(r.dynamic_ipc, 0.0);
}

TEST(VliwSim, ObservedOccupancyWithinAllocatorPrediction) {
  for (const char* name : {"fir8", "cmul_acc", "rec2", "stencil3_reuse"}) {
    const Prepared p = prepare(kernel_by_name(name), 6);
    const SimResult r =
        simulate(p.loop, p.graph, p.machine, p.sched.schedule, p.allocation, 60);
    ASSERT_TRUE(r.ok) << name << ": " << r.failure;
    int predicted = 0;
    for (const AllocatedQueue& q : p.allocation.queues) {
      predicted = std::max(predicted, q.max_occupancy);
    }
    EXPECT_LE(r.max_queue_occupancy, predicted) << name;
    EXPECT_GE(r.max_queue_occupancy, 1) << name;
  }
}

TEST(VliwSim, WholeCorpusOnThreeMachines) {
  for (const Loop& source : kernel_corpus()) {
    for (int fus : {3, 6, 12}) {
      const Prepared p = prepare(source, fus);
      const CheckedSim r = simulate_and_check(p.loop, p.graph, p.machine, p.sched.schedule,
                                              p.allocation, 24);
      EXPECT_TRUE(r.ok) << source.name << " on " << fus << " FUs: " << r.failure;
    }
  }
}

TEST(VliwSim, ShortTripsExerciseLiveIns) {
  // trip 1 and trip 2 stress the live-in injection paths of deep
  // recurrences (fir8 reads x@7 at iteration 0).
  for (long long trip : {1, 2, 3}) {
    const Prepared p = prepare(kernel_by_name("fir8"), 6);
    const CheckedSim r = simulate_and_check(p.loop, p.graph, p.machine, p.sched.schedule,
                                            p.allocation, trip);
    EXPECT_TRUE(r.ok) << "trip " << trip << ": " << r.failure;
  }
}

TEST(VliwSim, DepthEnforcementTriggers) {
  Prepared p = prepare(kernel_by_name("fir8"), 3);
  // Clamp depth below what the allocation needs and demand enforcement.
  MachineConfig strict = p.machine;
  strict.clusters[0].queue_depth = 1;
  SimOptions options;
  options.enforce_depth = true;
  const SimResult r =
      simulate(p.loop, p.graph, strict, p.sched.schedule, p.allocation, 40, options);
  // fir8's delay line needs >1 position; must be caught.
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.failure.find("depth"), std::string::npos);
}

TEST(VliwSim, WrongQueueAssignmentIsCaught) {
  // Sabotage: merge two incompatible lifetimes into one queue and verify
  // the simulator detects the FIFO/port violation.
  Prepared p = prepare(kernel_by_name("vadd"), 6);
  ASSERT_GE(p.allocation.queues.size(), 2u);
  // Move every lifetime into queue 0.
  QueueAllocation sabotaged = p.allocation;
  sabotaged.queues[0].members.clear();
  for (std::size_t lt = 0; lt < sabotaged.lifetimes.size(); ++lt) {
    sabotaged.queue_of[lt] = 0;
    sabotaged.queues[0].members.push_back(static_cast<int>(lt));
  }
  for (std::size_t q = 1; q < sabotaged.queues.size(); ++q) sabotaged.queues[q].members.clear();
  const SimResult r =
      simulate(p.loop, p.graph, p.machine, p.sched.schedule, sabotaged, 20);
  EXPECT_FALSE(r.ok);
}

TEST(VliwSim, TamperedScheduleFailsChecks) {
  // A schedule edited to violate a dependence must be caught by the
  // validators (the simulator itself assumes a validated schedule).
  Prepared p = prepare(kernel_by_name("vscale"), 6);
  Schedule bad = p.sched.schedule;
  // Find the fmul and drag it to cycle 0 (before its load's latency).
  for (int op = 0; op < p.loop.op_count(); ++op) {
    if (p.loop.ops[static_cast<std::size_t>(op)].opcode == Opcode::kFMul) {
      Placement placement = bad.place(op);
      placement.cycle = 0;
      bad.set(op, placement);
    }
  }
  EXPECT_FALSE(verify_schedule(p.loop, p.graph, p.machine, bad).empty());
}

TEST(VliwSim, RecirculatedInvariantsSimulate) {
  // Full stack: recirculation + copies + schedule + queues + sim.  The
  // recirculating copies carry invariant live-ins through the queues, so
  // this exercises the init_invariant injection path end to end.
  const Loop source = kernel_by_name("lk1_hydro");
  const Loop loop =
      insert_copies(materialize_invariants(source, InvariantStrategy::kRecirculate)).loop;
  const MachineConfig machine = MachineConfig::single_cluster_machine(6);
  const Ddg graph = Ddg::build(loop, machine.latency);
  const ImsResult sched = ims_schedule(loop, graph, machine);
  ASSERT_TRUE(sched.ok) << sched.failure;
  const QueueAllocation allocation = allocate_queues(loop, graph, machine, sched.schedule);
  const CheckedSim r =
      simulate_and_check(loop, graph, machine, sched.schedule, allocation, 30);
  EXPECT_TRUE(r.ok) << r.failure;
  // And the result must equal the *source* kernel's semantics too.
  const InterpResult source_ref = interpret(source, 30, SimOptions{}.seed);
  EXPECT_TRUE(source_ref.memory == r.sim.memory);
}

// --- one hand-made mutant per failure class -------------------------------
//
// Each run below is a tiny loop with hand-picked issue cycles, unit
// latencies, and every lifetime in a queue of its own; one targeted edit
// (a merged queue, an illegal cycle, a moved live-in or drain, a shallow
// queue) then breaks exactly one rule, and the diagnostic is pinned.

/// v0 feeds v1 one iteration later: one live-in and one drain pop per run.
constexpr const char* kCarried = R"(
  loop carried {
    trip 4;
    v0 = load A0[i];
    v1 = add v0@1, 1;
    store A1[i], v1;
  }
)";

/// Two loads feed one add in the same iteration.
constexpr const char* kJoin = R"(
  loop join {
    trip 4;
    v0 = load A0[i];
    v1 = load A1[i];
    v2 = add v0, v1;
    store A2[i], v2;
  }
)";

struct HandRun {
  Loop loop;
  MachineConfig machine;
  Ddg graph{0};
  Schedule schedule;
  QueueAllocation allocation;

  /// Index of the lifetime of the flow producer -> consumer.
  [[nodiscard]] std::size_t find(int producer, int consumer) const {
    for (std::size_t lt = 0; lt < allocation.lifetimes.size(); ++lt) {
      const Lifetime& lifetime = allocation.lifetimes[lt];
      if (lifetime.producer == producer && lifetime.consumer == consumer) return lt;
    }
    ADD_FAILURE() << "no lifetime " << producer << " -> " << consumer;
    return 0;
  }
  [[nodiscard]] Lifetime& lifetime(int producer, int consumer) {
    return allocation.lifetimes[find(producer, consumer)];
  }
  [[nodiscard]] int queue(int producer, int consumer) const {
    return allocation.queue_of[find(producer, consumer)];
  }

  /// Lifetimes of `from`'s queue move into `into`'s queue.
  void merge_queues(int into, int from) {
    for (int& q : allocation.queue_of) {
      if (q == from) q = into;
    }
  }

  [[nodiscard]] std::string failure(long long trip, SimOptions options = {}) const {
    const SimResult r = simulate(loop, graph, machine, schedule, allocation, trip, options);
    EXPECT_FALSE(r.ok);
    return r.failure;
  }
};

HandRun hand_run(const char* source, int ii, const std::vector<int>& cycles) {
  HandRun run;
  run.loop = parse_loop(source);
  run.machine = MachineConfig::single_cluster_machine(6);
  run.machine.latency = LatencyModel::unit();
  run.graph = Ddg::build(run.loop, run.machine.latency);
  run.schedule = Schedule(run.loop.op_count(), ii);
  for (int op = 0; op < run.loop.op_count(); ++op) {
    run.schedule.set(op, {cycles[static_cast<std::size_t>(op)], 0, 0});
  }
  run.allocation.ii = ii;
  run.allocation.lifetimes = extract_lifetimes(run.loop, run.graph, run.machine, run.schedule);
  for (std::size_t lt = 0; lt < run.allocation.lifetimes.size(); ++lt) {
    run.allocation.queue_of.push_back(static_cast<int>(lt));
    AllocatedQueue queue;
    queue.domain = run.allocation.lifetimes[lt].domain;
    queue.members = {static_cast<int>(lt)};
    run.allocation.queues.push_back(queue);
  }
  return run;
}

TEST(VliwSimFailure, HandRunsAreCleanBeforeMutation) {
  for (HandRun run : {hand_run(kCarried, 1, {0, 1, 2}), hand_run(kJoin, 2, {0, 1, 2, 3})}) {
    for (long long trip : {1, 4}) {
      const CheckedSim r = simulate_and_check(run.loop, run.graph, run.machine, run.schedule,
                                              run.allocation, trip);
      EXPECT_TRUE(r.ok) << run.loop.name << " trip " << trip << ": " << r.failure;
    }
  }
}

TEST(VliwSimFailure, TwoPushesIntoOneQueue) {
  // Both loads land at cycle 1; sharing a queue, they collide on its write port.
  HandRun run = hand_run(kJoin, 2, {0, 0, 1, 3});
  const int q0 = run.queue(0, 2);
  run.merge_queues(q0, run.queue(1, 2));
  EXPECT_EQ(run.failure(4), cat("two pushes into queue ", q0, " at cycle 1"));
}

TEST(VliwSimFailure, TwoPopsFromOneQueue) {
  // Pushes at cycles 1 and 2 are fine; v2 then pops both operands of the
  // shared queue in cycle 2 (the first in order, the second on a used port).
  HandRun run = hand_run(kJoin, 2, {0, 1, 2, 3});
  const int q0 = run.queue(0, 2);
  run.merge_queues(q0, run.queue(1, 2));
  EXPECT_EQ(run.failure(4), cat("two pops from queue ", q0, " at cycle 2"));
}

TEST(VliwSimFailure, PopOfEmptyQueue) {
  // The add is moved into its operands' issue cycle, before v0's result
  // lands.
  HandRun run = hand_run(kJoin, 2, {0, 0, 1, 3});
  run.schedule.set(2, {0, 0, 0});
  const int q = run.queue(0, 2);
  EXPECT_EQ(run.failure(4), cat("op 2 iteration 0 popped empty queue ", q, " at cycle 0"));
}

TEST(VliwSimFailure, FifoOrderBroken) {
  // The live-in (v0, -1) is moved after v1's first read, which then finds
  // iteration 0's value at the head of the queue.
  HandRun run = hand_run(kCarried, 1, {0, 1, 2});
  Lifetime& carried = run.lifetime(0, 1);
  carried.push = 3;
  const int q = run.queue(0, 1);
  EXPECT_EQ(run.failure(1), cat("FIFO order broken in queue ", q,
                                ": op 1 iteration 0 expected (0,-1) but popped (0,0)"));
}

TEST(VliwSimFailure, DepthExceeded) {
  // The live-in and iteration 0's value coexist at cycle 1: two positions.
  HandRun run = hand_run(kCarried, 1, {0, 1, 2});
  run.machine.clusters[0].queue_depth = 1;
  SimOptions options;
  options.enforce_depth = true;
  const int q = run.queue(0, 1);
  EXPECT_EQ(run.failure(4, options), cat("queue ", q, " exceeded depth 1 at cycle 1"));
  EXPECT_TRUE(simulate(run.loop, run.graph, run.machine, run.schedule, run.allocation, 4).ok);
}

TEST(VliwSimFailure, TwoPopsFromOneQueueDuringDrain) {
  // The drain of (v0, 0) moved into cycle 1, where v1 already popped.
  HandRun run = hand_run(kCarried, 1, {0, 1, 2});
  run.lifetime(0, 1).pop = 1;
  const int q = run.queue(0, 1);
  EXPECT_EQ(run.failure(1), cat("two pops from queue ", q, " at cycle 1 (drain)"));
}

TEST(VliwSimFailure, DrainPopOfEmptyQueue) {
  // The live-in lands at cycle 1 and the drain runs at cycle 0, before it.
  HandRun run = hand_run(kCarried, 1, {0, 1, 2});
  Lifetime& carried = run.lifetime(0, 1);
  carried.push = 2;
  carried.pop = 0;
  const int q = run.queue(0, 1);
  EXPECT_EQ(run.failure(1), cat("drain pop on empty queue ", q, " at cycle 0"));
}

TEST(VliwSimFailure, FifoOrderBrokenDuringDrain) {
  // The drain of (v0, 0) moved to cycle 0, where only the live-in is queued.
  HandRun run = hand_run(kCarried, 1, {0, 1, 2});
  run.lifetime(0, 1).pop = 0;
  const int q = run.queue(0, 1);
  EXPECT_EQ(run.failure(1), cat("FIFO order broken in queue ", q,
                                " during drain at cycle 0: expected (0,0) but popped (0,-1)"));
}

}  // namespace
}  // namespace qvliw
