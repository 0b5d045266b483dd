#include "sim/vliwsim.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <tuple>

#include "sim/eval.h"
#include "sim/interp.h"
#include "support/diagnostics.h"
#include "support/strings.h"

namespace qvliw {

namespace {

struct QueueEntry {
  int producer = -1;
  long long iteration = 0;
  std::int64_t value = 0;
};

struct PushEvent {
  int queue = -1;
  QueueEntry entry;
};

struct LiveIn {
  long long when = 0;
  PushEvent event;
};

struct DrainPop {
  long long when = 0;
  int queue = -1;
  int producer = -1;
  long long iteration = 0;
};

/// Per-op facts the issue loop reads, resolved once per run.
struct OpPlan {
  int residue = 0;  // sigma mod II
  int stage = 0;    // floor(sigma / II)
  int latency = 0;
  int arg_queue[2] = {-1, -1};  // value operands: the queue they pop
  int dest_begin = 0;           // [dest_begin, dest_end) in dest_queues_
  int dest_end = 0;
};

/// One queue's contents: a flat buffer with a head index.  The consumed
/// prefix is dropped once it is at least half the buffer, so pops stay
/// amortised O(1) and the buffer at most twice the occupancy.
class Fifo {
 public:
  [[nodiscard]] bool empty() const { return head_ == items_.size(); }
  [[nodiscard]] int size() const { return static_cast<int>(items_.size() - head_); }

  void push(const QueueEntry& entry) { items_.push_back(entry); }

  QueueEntry pop() {
    const QueueEntry front = items_[head_++];
    if (2 * head_ >= items_.size()) {
      items_.erase(items_.begin(), items_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
    return front;
  }

 private:
  std::vector<QueueEntry> items_;
  std::size_t head_ = 0;
};

/// `value` mod `m` in [0, m).
long long floor_mod(long long value, long long m) { return ((value % m) + m) % m; }

class Simulator {
 public:
  Simulator(const Loop& loop, const Ddg& graph, const MachineConfig& machine,
            const Schedule& schedule, const QueueAllocation& allocation, long long trip,
            const SimOptions& options)
      : loop_(loop),
        graph_(graph),
        machine_(machine),
        schedule_(schedule),
        allocation_(allocation),
        trip_(trip),
        options_(options),
        result_{} {
    result_.memory = MemoryImage(static_cast<int>(loop.arrays.size()),
                                 memory_elements(loop, trip), options.seed);
  }

  SimResult run() {
    check(trip_ >= 1, "simulate: trip must be >= 1");
    check(schedule_.complete(), "simulate: incomplete schedule");
    check(loop_.op_count() == graph_.node_count(), "simulate: loop/DDG mismatch");

    build_op_plans();
    schedule_live_ins();
    schedule_drain_pops();
    build_issue_lists();

    const std::size_t queues = allocation_.queues.size();
    queues_.assign(queues, {});
    depth_limit_.assign(queues, 0);
    last_push_.assign(queues, std::numeric_limits<long long>::min());
    last_pop_.assign(queues, std::numeric_limits<long long>::min());
    for (std::size_t q = 0; q < queues; ++q) {
      const QueueDomain& domain = allocation_.queues[q].domain;
      depth_limit_[q] = domain.kind == QueueDomain::Kind::kPrivate
                            ? machine_.cluster(domain.index).queue_depth
                            : machine_.segment.queue_depth;
    }

    const int ii = schedule_.ii();
    int residue = static_cast<int>(floor_mod(t_min_, ii));
    long long round = (t_min_ - residue) / ii;  // t == round * ii + residue
    int ring_slot = static_cast<int>(floor_mod(t_min_, static_cast<long long>(ring_.size())));
    for (long long t = t_min_; t <= t_max_ && failure_.empty(); ++t) {
      step(t, residue, round, ring_slot);
      if (++residue == ii) {
        residue = 0;
        ++round;
      }
      if (++ring_slot == static_cast<int>(ring_.size())) ring_slot = 0;
    }

    const LatencyModel& lat = machine_.latency;
    result_.cycles = schedule_.total_cycles(loop_, lat, trip_);
    result_.dynamic_ipc = result_.cycles > 0
                              ? static_cast<double>(result_.useful_issues) /
                                    static_cast<double>(result_.cycles)
                              : 0.0;
    result_.ok = failure_.empty();
    result_.failure = failure_;
    return std::move(result_);
  }

 private:
  void fail_sim(std::string message) {
    if (failure_.empty()) failure_ = std::move(message);
  }

  /// Flow edge -> queue, then per op: the queue each value operand pops,
  /// the queues its result is pushed into (out-edge order), and the push
  /// ring's width (largest latency + 1).
  void build_op_plans() {
    const int queues = static_cast<int>(allocation_.queues.size());
    queue_of_edge_.assign(static_cast<std::size_t>(graph_.edge_count()), -1);
    for (std::size_t lt = 0; lt < allocation_.lifetimes.size(); ++lt) {
      const Lifetime& lifetime = allocation_.lifetimes[lt];
      queue_of_edge_[static_cast<std::size_t>(lifetime.edge)] = allocation_.queue_of[lt];
    }
    plans_.assign(static_cast<std::size_t>(loop_.op_count()), {});
    for (int e = 0; e < graph_.edge_count(); ++e) {
      const DepEdge& edge = graph_.edge(e);
      if (!edge.is_value_flow()) continue;
      const int q = queue_of_edge_[static_cast<std::size_t>(e)];
      check(q >= 0, "simulate: flow edge without an allocated queue");
      check(q < queues, "simulate: queue id out of range");
      plans_[static_cast<std::size_t>(edge.dst)].arg_queue[edge.dst_arg] = q;
    }

    int max_latency = 0;
    for (int v = 0; v < loop_.op_count(); ++v) {
      const Op& op = loop_.ops[static_cast<std::size_t>(v)];
      OpPlan& plan = plans_[static_cast<std::size_t>(v)];
      const int sigma = schedule_.cycle(v);
      plan.residue = static_cast<int>(floor_mod(sigma, schedule_.ii()));
      plan.stage = (sigma - plan.residue) / schedule_.ii();
      plan.latency = machine_.latency.of(op.opcode);
      check(plan.latency >= 1, "simulate: op latency below 1 cycle");
      max_latency = std::max(max_latency, plan.latency);
      plan.dest_begin = static_cast<int>(dest_queues_.size());
      if (op.defines_value()) {
        for (int e : graph_.out_edges(v)) {
          if (graph_.edge(e).is_value_flow()) {
            dest_queues_.push_back(queue_of_edge_[static_cast<std::size_t>(e)]);
          }
        }
      }
      plan.dest_end = static_cast<int>(dest_queues_.size());
    }
    ring_.assign(static_cast<std::size_t>(max_latency) + 1, {});
  }

  [[nodiscard]] std::int64_t init_value(int op) const {
    const int inv = loop_.ops[static_cast<std::size_t>(op)].init_invariant;
    return inv >= 0 ? invariant_value(options_.seed, inv) : 0;
  }

  /// Live-ins in (cycle, lifetime, iteration) order: within a cycle they
  /// land before any kernel push.
  void schedule_live_ins() {
    const int ii = schedule_.ii();
    t_min_ = 0;
    t_max_ = schedule_.total_cycles(loop_, machine_.latency, trip_);
    for (const Lifetime& lifetime : allocation_.lifetimes) {
      const DepEdge& edge = graph_.edge(lifetime.edge);
      for (int k = -edge.distance; k < 0; ++k) {
        const long long when = lifetime.push + static_cast<long long>(k) * ii;
        t_min_ = std::min(t_min_, when);
        live_ins_.push_back({when,
                             {queue_of_edge_[static_cast<std::size_t>(lifetime.edge)],
                              {edge.src, k, init_value(edge.src)}}});
      }
    }
    std::stable_sort(live_ins_.begin(), live_ins_.end(),
                     [](const LiveIn& a, const LiveIn& b) { return a.when < b.when; });
  }

  /// Epilogue reads: consumer instances j in [trip, trip+d) pop producer
  /// instance j-d (possibly a live-in) and discard the value.
  void schedule_drain_pops() {
    const int ii = schedule_.ii();
    for (const Lifetime& lifetime : allocation_.lifetimes) {
      const DepEdge& edge = graph_.edge(lifetime.edge);
      for (long long j = trip_; j < trip_ + edge.distance; ++j) {
        const long long k = j - edge.distance;
        const long long when = lifetime.pop + k * ii;
        t_max_ = std::max(t_max_, when);
        drains_.push_back({when, queue_of_edge_[static_cast<std::size_t>(lifetime.edge)],
                           edge.src, k});
      }
    }
    std::stable_sort(drains_.begin(), drains_.end(),
                     [](const DrainPop& a, const DrainPop& b) { return a.when < b.when; });
    // A drain before the first simulated cycle never executes.
    while (next_drain_ < drains_.size() && drains_[next_drain_].when < t_min_) ++next_drain_;
  }

  /// Ops grouped by residue, each group sorted by (stage descending, op
  /// ascending).  At cycle t = round * II + r the ops of group r issue
  /// iteration round - stage, so walking a group issues in (iteration, op)
  /// order.
  void build_issue_lists() {
    issue_order_.resize(static_cast<std::size_t>(loop_.op_count()));
    std::iota(issue_order_.begin(), issue_order_.end(), 0);
    const auto key = [&](int v) {
      const OpPlan& plan = plans_[static_cast<std::size_t>(v)];
      return std::tuple(plan.residue, -plan.stage, v);
    };
    std::sort(issue_order_.begin(), issue_order_.end(),
              [&](int a, int b) { return key(a) < key(b); });
    residue_begin_.assign(static_cast<std::size_t>(schedule_.ii()) + 1, 0);
    for (const OpPlan& plan : plans_) ++residue_begin_[static_cast<std::size_t>(plan.residue) + 1];
    std::partial_sum(residue_begin_.begin(), residue_begin_.end(), residue_begin_.begin());
  }

  /// Appends `entry` to `queue`, tracking occupancy; false on a depth
  /// violation.
  bool push(int queue, const QueueEntry& entry, long long t) {
    Fifo& fifo = queues_[static_cast<std::size_t>(queue)];
    fifo.push(entry);
    ++result_.pushes;
    const int occupancy = fifo.size();
    result_.max_queue_occupancy = std::max(result_.max_queue_occupancy, occupancy);
    const int limit = depth_limit_[static_cast<std::size_t>(queue)];
    if (options_.enforce_depth && occupancy > limit) {
      fail_sim(cat("queue ", queue, " exceeded depth ", limit, " at cycle ", t));
      return false;
    }
    return true;
  }

  /// Claims `queue`'s pop port for cycle t; false when already used.
  bool claim_pop_port(int queue, long long t) {
    long long& last = last_pop_[static_cast<std::size_t>(queue)];
    if (last == t) return false;
    last = t;
    return true;
  }

  void step(long long t, int residue, long long round, int ring_slot) {
    // Pushes land at the start of the cycle: live-ins (exempt from the
    // write port), then kernel pushes in the order they were issued.
    for (; next_live_in_ < live_ins_.size() && live_ins_[next_live_in_].when == t;
         ++next_live_in_) {
      const PushEvent& event = live_ins_[next_live_in_].event;
      if (!push(event.queue, event.entry, t)) return;
    }
    std::vector<PushEvent>& bucket = ring_[static_cast<std::size_t>(ring_slot)];
    for (const PushEvent& event : bucket) {
      long long& last = last_push_[static_cast<std::size_t>(event.queue)];
      if (last == t) {
        fail_sim(cat("two pushes into queue ", event.queue, " at cycle ", t));
        return;
      }
      last = t;
      if (!push(event.queue, event.entry, t)) return;
    }
    bucket.clear();

    // Issues pop operands at the end of the cycle and compute.
    const int end = residue_begin_[static_cast<std::size_t>(residue) + 1];
    for (int i = residue_begin_[static_cast<std::size_t>(residue)]; i < end; ++i) {
      const int v = issue_order_[static_cast<std::size_t>(i)];
      const long long j = round - plans_[static_cast<std::size_t>(v)].stage;
      if (j < 0) continue;
      if (j >= trip_) break;
      issue(v, j, t, ring_slot);
      if (!failure_.empty()) return;
    }

    // Epilogue drain reads share the cycle's pop ports.
    for (; next_drain_ < drains_.size() && drains_[next_drain_].when == t; ++next_drain_) {
      const auto& [when, queue, producer, iteration] = drains_[next_drain_];
      if (!claim_pop_port(queue, t)) {
        fail_sim(cat("two pops from queue ", queue, " at cycle ", t, " (drain)"));
        return;
      }
      Fifo& fifo = queues_[static_cast<std::size_t>(queue)];
      if (fifo.empty()) {
        fail_sim(cat("drain pop on empty queue ", queue, " at cycle ", t));
        return;
      }
      const QueueEntry front = fifo.pop();
      ++result_.pops;
      if (front.producer != producer || front.iteration != iteration) {
        fail_sim(cat("FIFO order broken in queue ", queue, " during drain at cycle ", t,
                     ": expected (", producer, ",", iteration, ") but popped (", front.producer,
                     ",", front.iteration, ")"));
        return;
      }
    }
  }

  void issue(int v, long long j, long long t, int ring_slot) {
    const Op& op = loop_.ops[static_cast<std::size_t>(v)];
    const OpPlan& plan = plans_[static_cast<std::size_t>(v)];

    std::int64_t in[2] = {0, 0};
    for (std::size_t a = 0; a < op.args.size(); ++a) {
      const Operand& arg = op.args[a];
      switch (arg.kind) {
        case Operand::Kind::kValue: {
          const int q = plan.arg_queue[a];
          QVLIW_ASSERT(q >= 0, "value operand without a flow edge");
          if (!claim_pop_port(q, t)) {
            fail_sim(cat("two pops from queue ", q, " at cycle ", t));
            return;
          }
          Fifo& fifo = queues_[static_cast<std::size_t>(q)];
          if (fifo.empty()) {
            fail_sim(cat("op ", v, " iteration ", j, " popped empty queue ", q, " at cycle ", t));
            return;
          }
          const QueueEntry front = fifo.pop();
          ++result_.pops;
          if (front.producer != arg.value_op || front.iteration != j - arg.distance) {
            fail_sim(cat("FIFO order broken in queue ", q, ": op ", v, " iteration ", j,
                         " expected (", arg.value_op, ",", j - arg.distance, ") but popped (",
                         front.producer, ",", front.iteration, ")"));
            return;
          }
          in[a] = front.value;
          break;
        }
        case Operand::Kind::kInvariant:
          in[a] = invariant_value(options_.seed, arg.invariant);
          break;
        case Operand::Kind::kImmediate:
          in[a] = arg.imm;
          break;
        case Operand::Kind::kIndex:
          in[a] = static_cast<std::int64_t>(loop_.stride) * j + arg.index_offset;
          break;
      }
    }

    std::int64_t value = 0;
    switch (op.opcode) {
      case Opcode::kLoad:
        value = result_.memory.load(op.array, static_cast<long long>(loop_.stride) * j + op.mem_offset);
        break;
      case Opcode::kStore:
        result_.memory.store(op.array, static_cast<long long>(loop_.stride) * j + op.mem_offset,
                             in[0]);
        break;
      case Opcode::kCopy:
      case Opcode::kMove:
        value = in[0];
        break;
      default:
        value = eval_arith(op.opcode, in[0], in[1]);
    }

    ++result_.issues;
    if (op.opcode != Opcode::kCopy && op.opcode != Opcode::kMove) ++result_.useful_issues;

    // Hardware pushes every instance, even one whose consumer iteration
    // lies past the trip (the epilogue drains it).  plan.latency < ring
    // width, so the target slot is never the one being processed.
    if (plan.dest_begin == plan.dest_end) return;
    int slot = ring_slot + plan.latency;
    if (slot >= static_cast<int>(ring_.size())) slot -= static_cast<int>(ring_.size());
    std::vector<PushEvent>& bucket = ring_[static_cast<std::size_t>(slot)];
    for (int d = plan.dest_begin; d < plan.dest_end; ++d) {
      bucket.push_back({dest_queues_[static_cast<std::size_t>(d)], {v, j, value}});
    }
  }

  const Loop& loop_;
  const Ddg& graph_;
  const MachineConfig& machine_;
  const Schedule& schedule_;
  const QueueAllocation& allocation_;
  const long long trip_;
  const SimOptions options_;

  SimResult result_;
  std::string failure_;
  long long t_min_ = 0;
  long long t_max_ = 0;
  std::vector<int> queue_of_edge_;
  std::vector<OpPlan> plans_;
  std::vector<int> dest_queues_;
  // Issue calendar: ops of residue r are issue_order_[residue_begin_[r],
  // residue_begin_[r + 1]).
  std::vector<int> issue_order_;
  std::vector<int> residue_begin_;
  // Kernel pushes due at cycle t wait in ring_[t mod ring_.size()].
  std::vector<std::vector<PushEvent>> ring_;
  std::vector<LiveIn> live_ins_;
  std::size_t next_live_in_ = 0;
  std::vector<DrainPop> drains_;
  std::size_t next_drain_ = 0;
  std::vector<Fifo> queues_;
  std::vector<int> depth_limit_;
  // Port discipline: the last cycle each queue was pushed / popped.
  std::vector<long long> last_push_;
  std::vector<long long> last_pop_;
};

}  // namespace

SimResult simulate(const Loop& loop, const Ddg& graph, const MachineConfig& machine,
                   const Schedule& schedule, const QueueAllocation& allocation, long long trip,
                   const SimOptions& options) {
  Simulator simulator(loop, graph, machine, schedule, allocation, trip, options);
  return simulator.run();
}

CheckedSim simulate_and_check(const Loop& loop, const Ddg& graph, const MachineConfig& machine,
                              const Schedule& schedule, const QueueAllocation& allocation,
                              long long trip, const SimOptions& options) {
  CheckedSim out;
  out.sim = simulate(loop, graph, machine, schedule, allocation, trip, options);
  if (!out.sim.ok) {
    out.failure = cat("simulation failed: ", out.sim.failure);
    return out;
  }
  const InterpResult reference = interpret(loop, trip, options.seed);
  if (!(reference.memory == out.sim.memory)) {
    const auto [array, index] = reference.memory.first_difference(out.sim.memory);
    out.failure = cat("memory mismatch vs reference at array ", array, " index ", index);
    return out;
  }
  out.ok = true;
  return out;
}

}  // namespace qvliw
