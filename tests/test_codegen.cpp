#include <gtest/gtest.h>

#include "cluster/partition.h"
#include "ir/parser.h"
#include "qrf/queue_alloc.h"
#include "support/diagnostics.h"
#include "sched/ims.h"
#include "sim/codegen.h"
#include "support/strings.h"
#include "workload/kernels.h"
#include "xform/copy_insert.h"

namespace qvliw {
namespace {

struct Lowered {
  Loop loop;
  Ddg graph{0};
  MachineConfig machine;
  ImsResult sched;
  QueueAllocation allocation;
  VliwProgram program;
};

Lowered lower(const Loop& source, int fus) {
  Lowered l;
  l.loop = insert_copies(source).loop;
  l.machine = MachineConfig::single_cluster_machine(fus);
  l.graph = Ddg::build(l.loop, l.machine.latency);
  l.sched = ims_schedule(l.loop, l.graph, l.machine);
  EXPECT_TRUE(l.sched.ok) << l.sched.failure;
  l.allocation = allocate_queues(l.loop, l.graph, l.machine, l.sched.schedule);
  l.program = generate_program(l.loop, l.graph, l.machine, l.sched.schedule, l.allocation);
  return l;
}

TEST(Codegen, SectionSizes) {
  const Lowered l = lower(kernel_by_name("daxpy"), 3);
  EXPECT_EQ(static_cast<int>(l.program.kernel.size()), l.sched.ii);
  const int ramp = (l.program.stage_count - 1) * l.sched.ii;
  EXPECT_EQ(static_cast<int>(l.program.prologue.size()), ramp);
  EXPECT_EQ(static_cast<int>(l.program.epilogue.size()), ramp);
}

TEST(Codegen, KernelHoldsEveryOpExactlyOnce) {
  const Lowered l = lower(kernel_by_name("fir4"), 6);
  std::vector<int> seen(static_cast<std::size_t>(l.loop.op_count()), 0);
  for (const WideInstruction& inst : l.program.kernel) {
    for (const SlotOp& slot : inst.slots) ++seen[static_cast<std::size_t>(slot.op)];
  }
  for (int op = 0; op < l.loop.op_count(); ++op) EXPECT_EQ(seen[static_cast<std::size_t>(op)], 1);
}

TEST(Codegen, ProloguePlusEpilogueEqualsStagedKernel) {
  // Instance accounting: over prologue + N kernels + epilogue, each op
  // appears N times; equivalently, prologue occurrences + epilogue
  // occurrences == (SC - 1) per op.
  const Lowered l = lower(kernel_by_name("cmul_acc"), 6);
  std::vector<int> ramp_count(static_cast<std::size_t>(l.loop.op_count()), 0);
  for (const WideInstruction& inst : l.program.prologue) {
    for (const SlotOp& slot : inst.slots) ++ramp_count[static_cast<std::size_t>(slot.op)];
  }
  for (const WideInstruction& inst : l.program.epilogue) {
    for (const SlotOp& slot : inst.slots) ++ramp_count[static_cast<std::size_t>(slot.op)];
  }
  for (int op = 0; op < l.loop.op_count(); ++op) {
    EXPECT_EQ(ramp_count[static_cast<std::size_t>(op)], l.program.stage_count - 1) << op;
  }
}

TEST(Codegen, PrologueStagesRampUp) {
  const Lowered l = lower(kernel_by_name("fir8"), 6);
  const int ii = l.sched.ii;
  for (const WideInstruction& inst : l.program.prologue) {
    for (const SlotOp& slot : inst.slots) {
      EXPECT_LE(slot.stage, inst.cycle / ii);
    }
  }
  for (const WideInstruction& inst : l.program.epilogue) {
    for (const SlotOp& slot : inst.slots) {
      EXPECT_GE(slot.stage, inst.cycle / ii + 1);
    }
  }
}

TEST(Codegen, QueueOperandsResolved) {
  const Lowered l = lower(kernel_by_name("daxpy"), 6);
  const std::string listing = format_program(l.program, l.machine);
  // Every value flow must appear as a queue operand.
  EXPECT_NE(listing.find("q0"), std::string::npos);
  EXPECT_NE(listing.find("load"), std::string::npos);
  EXPECT_NE(listing.find("store"), std::string::npos);
  EXPECT_NE(listing.find("%a"), std::string::npos);  // invariant operand
  EXPECT_NE(listing.find("kernel"), std::string::npos);
}

TEST(Codegen, CopyShowsTwoDestinations) {
  const Loop source = parse_loop("loop t { x = load X[i]; s = fmul x, x; store Y[i], s; }");
  const Lowered l = lower(source, 3);
  const std::string listing = format_program(l.program, l.machine);
  // The copy writes two queues: "copy  qA -> qB, qC".
  const auto pos = listing.find("copy");
  ASSERT_NE(pos, std::string::npos);
  const std::string line = listing.substr(pos, listing.find('\n', pos) - pos);
  EXPECT_NE(line.find(','), std::string::npos) << line;
}

TEST(Codegen, DeadValueMarkedUnused) {
  const Loop source = parse_loop("loop t { x = load X[i]; y = load Y[i]; store Z[i], y; }");
  const Lowered l = lower(source, 6);
  const std::string listing = format_program(l.program, l.machine);
  EXPECT_NE(listing.find("(unused)"), std::string::npos);
}

TEST(Codegen, UtilizationBounds) {
  for (const char* name : {"daxpy", "fir8", "wide8"}) {
    const Lowered l = lower(kernel_by_name(name), 6);
    const double util = l.program.kernel_utilization(l.machine);
    EXPECT_GT(util, 0.0) << name;
    EXPECT_LE(util, 1.0) << name;
  }
}

TEST(Codegen, TightKernelDense) {
  // 4 ops on 3 compute FUs + copies: at II=2+ utilization is meaningful.
  const Lowered l = lower(kernel_by_name("daxpy"), 3);
  EXPECT_GT(l.program.kernel_utilization(l.machine), 0.3);
}

TEST(Codegen, SlotsNeverCollide) {
  // No two slots of one instruction may name the same FU instance.
  const Lowered l = lower(kernel_by_name("fir8"), 6);
  auto check_section = [&](const std::vector<WideInstruction>& section) {
    for (const WideInstruction& inst : section) {
      for (std::size_t a = 0; a < inst.slots.size(); ++a) {
        for (std::size_t b = a + 1; b < inst.slots.size(); ++b) {
          const bool same = inst.slots[a].cluster == inst.slots[b].cluster &&
                            inst.slots[a].fu_kind == inst.slots[b].fu_kind &&
                            inst.slots[a].fu == inst.slots[b].fu;
          EXPECT_FALSE(same) << "cycle " << inst.cycle;
        }
      }
    }
  };
  check_section(l.program.prologue);
  check_section(l.program.kernel);
  check_section(l.program.epilogue);
}

TEST(Codegen, ClusteredProgramNamesClusters) {
  const Loop loop = insert_copies(kernel_by_name("fir8")).loop;
  const MachineConfig machine = MachineConfig::clustered_machine(4);
  const Ddg graph = Ddg::build(loop, machine.latency);
  const ImsResult sched = partition_schedule(loop, graph, machine);
  ASSERT_TRUE(sched.ok);
  const QueueAllocation allocation = allocate_queues(loop, graph, machine, sched.schedule);
  const VliwProgram program = generate_program(loop, graph, machine, sched.schedule, allocation);
  const std::string listing = format_program(program, machine);
  bool beyond_cluster0 = false;
  for (int c = 1; c < 4; ++c) {
    if (listing.find(cat("c", c, ".")) != std::string::npos) beyond_cluster0 = true;
  }
  EXPECT_TRUE(beyond_cluster0);
}

TEST(Codegen, RequiresCompleteSchedule) {
  const Loop loop = insert_copies(kernel_by_name("daxpy")).loop;
  const MachineConfig machine = MachineConfig::single_cluster_machine(6);
  const Ddg graph = Ddg::build(loop, machine.latency);
  Schedule incomplete(loop.op_count(), 2);
  QueueAllocation empty;
  EXPECT_THROW((void)generate_program(loop, graph, machine, incomplete, empty), Error);
}

}  // namespace
}  // namespace qvliw
