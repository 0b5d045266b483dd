#include "qrf/qcompat.h"

#include <utility>

#include "support/diagnostics.h"

namespace qvliw {

bool q_compatible(int push_a, int pop_a, int push_b, int pop_b, int ii) {
  check(ii >= 1, "q_compatible: ii must be >= 1");
  check(pop_a >= push_a && pop_b >= push_b, "q_compatible: pop before push");
  // Order so that a has the longer residency.
  if (pop_a - push_a < pop_b - push_b) {
    std::swap(push_a, push_b);
    std::swap(pop_a, pop_b);
  }
  const int d = (pop_a - push_a) - (pop_b - push_b);
  if (d >= ii) return false;  // some instance pair always collides
  const int x = ((push_b - push_a) % ii + ii) % ii;
  return x > d;
}

bool q_compatible(const Lifetime& a, const Lifetime& b, int ii) {
  return q_compatible(a.push, a.pop, b.push, b.pop, ii);
}

}  // namespace qvliw
