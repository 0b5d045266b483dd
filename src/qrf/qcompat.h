// The paper's Q-Compatibility test (Theorem 1.1).
//
// Two periodic lifetimes may share one FIFO queue iff their instances are
// always pushed and popped in the same relative order, with no two pushes
// (or pops) of the queue in the same cycle.
//
// Derivation used here (tests/test_qcompat.cpp proves it equivalent to
// brute-force FIFO simulation): take production times Pa, Pb and residency lengths
// La = Ca - Pa >= Lb = Cb - Pb.  A conflicting pair of instances exists
// iff some integer x with x ≡ (Pb - Pa) (mod II) lies in [0, La - Lb]:
//   x = 0         -> simultaneous pushes;
//   x = La - Lb   -> simultaneous pops;
//   0 < x < La-Lb -> b's instance is pushed after a's but popped before it
//                    (FIFO order violated).
// Hence the lifetimes are Q-compatible iff
//
//     (Pb - Pa) mod II  >  La - Lb,
//
// the compatibility equation of Theorem 1.1 expressed on production times.
#pragma once

#include "qrf/lifetime.h"

namespace qvliw {

/// O(1) compatibility test on (push, pop) representatives.
[[nodiscard]] bool q_compatible(int push_a, int pop_a, int push_b, int pop_b, int ii);

/// Convenience overload on lifetimes (domains are not inspected).
[[nodiscard]] bool q_compatible(const Lifetime& a, const Lifetime& b, int ii);

}  // namespace qvliw
