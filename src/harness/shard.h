// Sweep sharding: serialised shard results and the merge that stitches
// them back together.
//
// A sharded sweep runs the same (loop x point) cross product as a
// single-process sweep, but each process computes only the cells its
// shard owns under the deterministic `shard_owns` partition
// (harness/sweep.h), all of them sharing one artifact-store directory as
// the persistence seam.  Each process serialises its SweepResult through
// the portable blob codec into a *shard file*; `merge_sweep_shards`
// validates that the shards belong to one sweep (same dimensions, same
// partition, same config hash, complete index coverage) and reassembles
// the single-process SweepResult — bit-identical results, summed
// cache/stage accounting (a golden test enforces the former).
//
// `sweep_result_fingerprint` is the canonical byte string of a sweep's
// *outcomes* — every semantic LoopResult field, excluding wall times and
// scheduling-effort/provenance fields (stage_times, ImsStats,
// warm_started), which record how results were obtained, not what they
// are.  Two sweeps are result-identical iff their fingerprints are equal
// bytes; the shard-merge and store-backed golden tests compare exactly
// this.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/sweep.h"
#include "support/artifact_store.h"

namespace qvliw {

/// One LoopResult through the blob codec, every field in declaration
/// order.  `provenance` selects whether the how-it-was-obtained fields
/// (ImsStats, warm_started, stage_times) are included: shard files and
/// checkpoint journals carry them, the result fingerprint deliberately
/// does not.  The decoder always reads the full (provenance) layout —
/// only complete records are ever decoded.  Any layout change here must
/// bump BOTH the shard file magic and the checkpoint journal magic
/// (harness/checkpoint.cpp): the two formats share this record.
void serialize_loop_result(BlobWriter& out, const LoopResult& result, bool provenance);
[[nodiscard]] LoopResult deserialize_loop_result(BlobReader& in);

/// SweepCacheStats through the blob codec (shared by shard files and
/// checkpoint journals; same bump-both-magics rule as above).
void serialize_cache_stats(BlobWriter& out, const SweepCacheStats& stats);
[[nodiscard]] SweepCacheStats deserialize_cache_stats(BlobReader& in);

/// Identity of one emitted shard: which slice of which sweep it holds.
struct ShardHeader {
  int shard_count = 1;
  int shard_index = 0;
  ShardAxis axis = ShardAxis::kLoops;
  std::uint64_t loops = 0;   // full cross-product dimensions, not the slice
  std::uint64_t points = 0;
  /// Caller-supplied hash of the sweep's inputs (see sweep_config_hash);
  /// merging refuses shards whose hashes disagree — they were cut from
  /// different sweeps.
  std::uint64_t config_hash = 0;
};

struct SweepShard {
  ShardHeader header;
  SweepResult result;
};

/// Identity hash of a sweep's inputs: every loop's content hash plus
/// every point's label, option-prefix keys, backend contribution and
/// budget.  Equal hashes mean the shards were cut from interchangeable
/// invocations.
[[nodiscard]] std::uint64_t sweep_config_hash(const std::vector<Loop>& loops,
                                              const std::vector<SweepPoint>& points);

/// Serialises header + full SweepResult (including timing and effort
/// accounting) through the portable blob format, under a magic/version
/// prefix.
[[nodiscard]] std::string encode_sweep_shard(const SweepShard& shard);

/// Inverse of encode_sweep_shard; throws Error on a bad magic/version,
/// any truncation, or trailing bytes.
[[nodiscard]] SweepShard decode_sweep_shard(const std::string& blob);

/// Reassembles the single-process SweepResult from one complete shard
/// set: every cell is taken from the shard owning it, cache/checkpoint
/// stats and stage totals are summed, wall time is summed (aggregate
/// compute, not elapsed).  Throws Error when the shards disagree on
/// dimensions, partition, or config hash, do not cover every shard index
/// exactly once, or *overlap* — a shard whose index is out of range,
/// whose cell count disagrees with its slice of the partition, or that
/// holds results outside the cells it owns is rejected with a diagnostic
/// rather than silently double-counting.
[[nodiscard]] SweepResult merge_sweep_shards(std::vector<SweepShard> shards);

/// Canonical bytes of the sweep's outcomes (see file comment).
[[nodiscard]] std::string sweep_result_fingerprint(const SweepResult& result);

}  // namespace qvliw
