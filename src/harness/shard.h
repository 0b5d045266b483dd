// The canonical result fingerprint of a sweep.
//
// `sweep_result_fingerprint` is the canonical byte string of a sweep's
// *outcomes* — every semantic LoopResult field, excluding wall times and
// scheduling-effort/provenance fields (stage_times, ImsStats,
// warm_started), which record how results were obtained, not what they
// are.  Two sweeps are result-identical iff their fingerprints are equal
// bytes; the worker-count and store-backed golden tests compare exactly
// this.
//
// The header keeps its historical name because the benchmark
// (perfbench/qvliw_bench.cpp) includes it as `harness/shard.h`.
#pragma once

#include <string>

#include "harness/sweep.h"

namespace qvliw {

/// Canonical bytes of the sweep's outcomes (see file comment).
[[nodiscard]] std::string sweep_result_fingerprint(const SweepResult& result);

}  // namespace qvliw
