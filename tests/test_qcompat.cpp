// Theorem 1.1: the O(1) compatibility test must agree with brute-force
// FIFO simulation on an exhaustive grid of lifetime shapes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <deque>
#include <map>
#include <utility>
#include <vector>

#include "qrf/qcompat.h"
#include "support/diagnostics.h"
#include "support/rng.h"

namespace qvliw {
namespace {

/// Ground-truth oracle: simulates the two lifetimes sharing one FIFO from
/// an empty queue over enough periods to reach steady state, checking
/// FIFO pop order and the one-push/one-pop-per-cycle port limits.
/// Quadratic in the number of simulated instances.
bool q_compatible_bruteforce(int push_a, int pop_a, int push_b, int pop_b, int ii) {
  check(ii >= 1, "q_compatible_bruteforce: ii must be >= 1");
  check(pop_a >= push_a && pop_b >= push_b, "q_compatible_bruteforce: pop before push");
  // Enough periods that every instance-pair phase interaction occurs even
  // when the representatives' push times are far apart (deep pipelines).
  const int max_len = std::max(pop_a - push_a, pop_b - push_b);
  const int skew = std::abs(push_a - push_b);
  const int periods = (max_len + skew) / ii + 8;

  // Tag = (lifetime id, iteration). Gather push/pop events per cycle.
  struct Events {
    std::vector<std::pair<int, int>> pushes;
    std::vector<std::pair<int, int>> pops;
  };
  std::map<long long, Events> timeline;
  for (int k = 0; k < periods; ++k) {
    timeline[static_cast<long long>(push_a) + static_cast<long long>(k) * ii].pushes.push_back({0, k});
    timeline[static_cast<long long>(pop_a) + static_cast<long long>(k) * ii].pops.push_back({0, k});
    timeline[static_cast<long long>(push_b) + static_cast<long long>(k) * ii].pushes.push_back({1, k});
    timeline[static_cast<long long>(pop_b) + static_cast<long long>(k) * ii].pops.push_back({1, k});
  }

  std::deque<std::pair<int, int>> fifo;
  for (auto& [cycle, events] : timeline) {
    (void)cycle;
    if (events.pushes.size() > 1) return false;  // one write port per queue
    if (events.pops.size() > 1) return false;    // one read port per queue
    // Pushes land at the start of the cycle, pops read at the end, so a
    // zero-length lifetime passes through within its cycle.
    for (const auto& tag : events.pushes) fifo.push_back(tag);
    for (const auto& tag : events.pops) {
      if (fifo.empty() || fifo.front() != tag) return false;  // FIFO order broken
      fifo.pop_front();
    }
  }
  return true;
}

TEST(QCompat, IdenticalLifetimesConflict) {
  // Same push/pop pattern: simultaneous pushes every iteration.
  EXPECT_FALSE(q_compatible(0, 3, 0, 3, 4));
}

TEST(QCompat, DisjointPhasesCompatible) {
  // push 0 pop 1 vs push 2 pop 3 with II 4: never interleave badly.
  EXPECT_TRUE(q_compatible(0, 1, 2, 3, 4));
}

TEST(QCompat, EqualLengthDifferentPhaseCompatible) {
  // Equal lengths always pop in push order; only exact phase ties break.
  EXPECT_TRUE(q_compatible(0, 5, 1, 6, 3));
  EXPECT_FALSE(q_compatible(0, 5, 3, 8, 3));  // pushes coincide mod 3
}

TEST(QCompat, LongerFirstOrderViolation) {
  // a pushed first but lives much longer: b pops before a -> LIFO, illegal.
  EXPECT_FALSE(q_compatible(0, 10, 1, 2, 4));
}

TEST(QCompat, PopCollisionIllegal) {
  // Pops land on the same cycle (x == La - Lb case).
  EXPECT_FALSE(q_compatible(0, 4, 2, 4, 8));
}

TEST(QCompat, SymmetricInArguments) {
  for (int ii = 1; ii <= 5; ++ii) {
    for (int pa = 0; pa < 4; ++pa) {
      for (int la = 0; la < 6; ++la) {
        for (int pb = 0; pb < 4; ++pb) {
          for (int lb = 0; lb < 6; ++lb) {
            EXPECT_EQ(q_compatible(pa, pa + la, pb, pb + lb, ii),
                      q_compatible(pb, pb + lb, pa, pa + la, ii));
          }
        }
      }
    }
  }
}

TEST(QCompat, LengthGapBeyondIiAlwaysIllegal) {
  // If La - Lb >= II some instance pair always collides.
  EXPECT_FALSE(q_compatible(0, 7, 1, 2, 4));   // gap 6 >= 4
  EXPECT_FALSE(q_compatible(0, 4, 1, 1, 3));   // gap 4 >= 3
}

TEST(QCompat, ZeroLengthPassThrough) {
  // Zero-residency values conflict only on exact phase ties.
  EXPECT_TRUE(q_compatible(0, 0, 1, 1, 2));
  EXPECT_FALSE(q_compatible(0, 0, 2, 2, 2));
  EXPECT_TRUE(q_compatible(0, 0, 1, 3, 4));
}

TEST(QCompat, PrecondtionChecks) {
  EXPECT_THROW((void)q_compatible(0, 1, 2, 3, 0), Error);   // ii < 1
  EXPECT_THROW((void)q_compatible(3, 1, 0, 0, 2), Error);   // pop before push
}

// --- the equivalence property ------------------------------------------------

struct Grid {
  int ii;
};

class TheoremEquivalence : public ::testing::TestWithParam<Grid> {};

TEST_P(TheoremEquivalence, MatchesBruteForceOnFullGrid) {
  const int ii = GetParam().ii;
  // Exhaustive: pushes in [0, 2*ii), lengths in [0, 2*ii + 2).
  for (int pa = 0; pa < 2 * ii; ++pa) {
    for (int la = 0; la <= 2 * ii + 2; ++la) {
      for (int pb = 0; pb < 2 * ii; ++pb) {
        for (int lb = 0; lb <= 2 * ii + 2; ++lb) {
          const bool fast = q_compatible(pa, pa + la, pb, pb + lb, ii);
          const bool slow = q_compatible_bruteforce(pa, pa + la, pb, pb + lb, ii);
          ASSERT_EQ(fast, slow) << "pa=" << pa << " la=" << la << " pb=" << pb << " lb=" << lb
                                << " ii=" << ii;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllSmallIIs, TheoremEquivalence,
                         ::testing::Values(Grid{1}, Grid{2}, Grid{3}, Grid{4}, Grid{5}, Grid{6},
                                           Grid{7}),
                         [](const ::testing::TestParamInfo<Grid>& info) {
                           return "ii" + std::to_string(info.param.ii);
                         });

TEST(TheoremEquivalenceRandom, SeededSweepAcrossScales) {
  // Randomised lifetimes across a wide range of IIs and spans.
  Rng rng(20260611);
  for (int trial = 0; trial < 4000; ++trial) {
    const int ii = rng.uniform_int(1, 24);
    const int pa = rng.uniform_int(0, 60);
    const int la = rng.uniform_int(0, 50);
    const int pb = rng.uniform_int(0, 60);
    const int lb = rng.uniform_int(0, 50);
    ASSERT_EQ(q_compatible(pa, pa + la, pb, pb + lb, ii),
              q_compatible_bruteforce(pa, pa + la, pb, pb + lb, ii))
        << "pa=" << pa << " la=" << la << " pb=" << pb << " lb=" << lb << " ii=" << ii;
  }
}

TEST(TheoremEquivalenceLarge, SpotChecksAtBigOffsets) {
  // Representatives far from zero must behave identically (shift
  // invariance of the mod-II condition).
  for (int shift : {16, 49, 128}) {
    for (int pa = 0; pa < 5; ++pa) {
      for (int la = 0; la < 12; ++la) {
        for (int pb = 0; pb < 5; ++pb) {
          for (int lb = 0; lb < 12; ++lb) {
            EXPECT_EQ(q_compatible(pa + shift, pa + shift + la, pb, pb + lb, 5),
                      q_compatible_bruteforce(pa + shift, pa + shift + la, pb, pb + lb, 5));
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace qvliw
