#include "harness/shard.h"

#include <map>
#include <utility>

#include "support/diagnostics.h"
#include "support/rng.h"
#include "support/strings.h"

namespace qvliw {

namespace {

// Magic + layout version of the shard file.  Bump on any codec change:
// a shard file is exchanged between processes that are expected to run
// the same build, so version skew is an error, not a silent miss.
// v3: CheckpointStats joined the result accounting.
// v4: verify_checked/verify_violations joined LoopResult's semantic fields.
// v5: verify/alloc artifact-memo counters joined SweepCacheStats.
// v6: search telemetry (forced/budget_spent/mii_optimal) joined the
//     sched_stats provenance; sched-memo counters joined SweepCacheStats.
// v7: the warm-start seeding counters left SweepCacheStats.
constexpr std::uint64_t kShardMagic = 0x5153484152440007ULL;  // "QSHARD" + v7

}  // namespace

void serialize_loop_result(BlobWriter& out, const LoopResult& r, bool provenance) {
  out.put_string(r.name);
  out.put_bool(r.ok);
  out.put_string(r.failure);
  out.put_string(r.failed_stage);
  out.put_i32(r.src_ops);
  out.put_i32(r.sched_ops);
  out.put_i32(r.copies);
  out.put_i32(r.moves);
  out.put_i32(r.unroll_factor);
  out.put_i32(r.res_mii);
  out.put_i32(r.rec_mii);
  out.put_i32(r.mii);
  out.put_i32(r.ii);
  out.put_i32(r.stage_count);
  out.put_f64(r.ii_per_source);
  out.put_f64(r.ipc_static);
  out.put_f64(r.ipc_dynamic);
  out.put_i32(r.total_queues);
  out.put_i32(r.max_private_queues);
  out.put_i32(r.max_segment_queues);
  out.put_i32(r.max_positions);
  out.put_i32(r.registers);
  out.put_bool(r.fits_machine_queues);
  out.put_i32(r.queue_fit_retries);
  out.put_bool(r.sim_ok);
  out.put_i64(r.sim_cycles);
  out.put_bool(r.verify_checked);
  out.put_i32(r.verify_violations);
  out.put_string(r.backend);
  if (!provenance) return;
  out.put_i32(r.sched_stats.placements);
  out.put_i32(r.sched_stats.evictions);
  out.put_i32(r.sched_stats.ii_attempts);
  out.put_i32(r.sched_stats.forced);
  out.put_i32(r.sched_stats.budget_spent);
  out.put_bool(r.sched_stats.mii_optimal);
  out.put_bool(r.warm_started);
  out.put_u64(r.stage_times.size());
  for (const StageTiming& t : r.stage_times) {
    out.put_string(t.stage);
    out.put_f64(t.seconds);
  }
}

LoopResult deserialize_loop_result(BlobReader& in) {
  LoopResult r;
  r.name = in.get_string();
  r.ok = in.get_bool();
  r.failure = in.get_string();
  r.failed_stage = in.get_string();
  r.src_ops = in.get_i32();
  r.sched_ops = in.get_i32();
  r.copies = in.get_i32();
  r.moves = in.get_i32();
  r.unroll_factor = in.get_i32();
  r.res_mii = in.get_i32();
  r.rec_mii = in.get_i32();
  r.mii = in.get_i32();
  r.ii = in.get_i32();
  r.stage_count = in.get_i32();
  r.ii_per_source = in.get_f64();
  r.ipc_static = in.get_f64();
  r.ipc_dynamic = in.get_f64();
  r.total_queues = in.get_i32();
  r.max_private_queues = in.get_i32();
  r.max_segment_queues = in.get_i32();
  r.max_positions = in.get_i32();
  r.registers = in.get_i32();
  r.fits_machine_queues = in.get_bool();
  r.queue_fit_retries = in.get_i32();
  r.sim_ok = in.get_bool();
  r.sim_cycles = in.get_i64();
  r.verify_checked = in.get_bool();
  r.verify_violations = in.get_i32();
  r.backend = in.get_string();
  r.sched_stats.placements = in.get_i32();
  r.sched_stats.evictions = in.get_i32();
  r.sched_stats.ii_attempts = in.get_i32();
  r.sched_stats.forced = in.get_i32();
  r.sched_stats.budget_spent = in.get_i32();
  r.sched_stats.mii_optimal = in.get_bool();
  r.warm_started = in.get_bool();
  const std::uint64_t timings = in.get_u64();
  check(timings <= 1u << 20, "shard blob: implausible stage_times count");
  r.stage_times.reserve(timings);
  for (std::uint64_t t = 0; t < timings; ++t) {
    StageTiming timing;
    timing.stage = in.get_string();
    timing.seconds = in.get_f64();
    r.stage_times.push_back(std::move(timing));
  }
  return r;
}

void serialize_cache_stats(BlobWriter& out, const SweepCacheStats& c) {
  for (const std::uint64_t v :
       {c.invariant_probes, c.invariant_hits, c.unroll_probes, c.unroll_hits, c.front_probes,
        c.front_hits, c.mii_probes, c.mii_hits, c.disk_probes, c.disk_hits, c.mii_disk_probes,
        c.mii_disk_hits, c.probe_factors, c.probe_fallbacks, c.verify_memo_probes,
        c.verify_memo_hits, c.alloc_memo_probes, c.alloc_memo_hits, c.sched_memo_probes,
        c.sched_memo_hits, c.fallback_runs}) {
    out.put_u64(v);
  }
}

SweepCacheStats deserialize_cache_stats(BlobReader& in) {
  SweepCacheStats c;
  for (std::uint64_t* v :
       {&c.invariant_probes, &c.invariant_hits, &c.unroll_probes, &c.unroll_hits,
        &c.front_probes, &c.front_hits, &c.mii_probes, &c.mii_hits, &c.disk_probes,
        &c.disk_hits, &c.mii_disk_probes, &c.mii_disk_hits, &c.probe_factors,
        &c.probe_fallbacks, &c.verify_memo_probes, &c.verify_memo_hits, &c.alloc_memo_probes,
        &c.alloc_memo_hits, &c.sched_memo_probes, &c.sched_memo_hits, &c.fallback_runs}) {
    *v = in.get_u64();
  }
  return c;
}

std::uint64_t sweep_config_hash(const std::vector<Loop>& loops,
                                const std::vector<SweepPoint>& points) {
  std::uint64_t h = hash64(0xc0f16ULL);
  h = hash_combine(h, hash64(loops.size()));
  for (const Loop& loop : loops) h = hash_combine(h, loop.content_hash());
  h = hash_combine(h, hash64(points.size()));
  for (const SweepPoint& point : points) {
    const SweepPrefixKeys keys = sweep_prefix_keys(point);
    h = hash_combine(h, hash_bytes(point.label));
    h = hash_combine(h, hash_combine(keys.front, hash_combine(keys.machine, keys.backend)));
    h = hash_combine(h, hash64(static_cast<std::uint64_t>(point.options.ims.budget_ratio)));
  }
  return h;
}

std::string encode_sweep_shard(const SweepShard& shard) {
  BlobWriter out;
  out.put_u64(kShardMagic);
  out.put_i32(shard.header.shard_count);
  out.put_i32(shard.header.shard_index);
  out.put_bool(shard.header.axis == ShardAxis::kPoints);
  out.put_u64(shard.header.loops);
  out.put_u64(shard.header.points);
  out.put_u64(shard.header.config_hash);

  const SweepResult& r = shard.result;
  serialize_cache_stats(out, r.cache);
  out.put_u64(r.checkpoint.tasks_replayed);
  out.put_u64(r.checkpoint.tasks_executed);
  out.put_u64(r.checkpoint.journal_bytes);
  out.put_u64(r.stage_totals.size());
  for (const StageTotal& total : r.stage_totals) {
    out.put_string(total.stage);
    out.put_f64(total.seconds);
  }
  out.put_f64(r.wall_seconds);
  out.put_u64(r.pipelines);
  out.put_u64(r.by_point.size());
  for (const std::vector<LoopResult>& results : r.by_point) {
    out.put_u64(results.size());
    for (const LoopResult& result : results) {
      serialize_loop_result(out, result, /*provenance=*/true);
    }
  }
  return out.take();
}

SweepShard decode_sweep_shard(const std::string& blob) {
  BlobReader in(blob);
  check(in.get_u64() == kShardMagic, "shard blob: bad magic/version (rebuilt with another format?)");
  SweepShard shard;
  shard.header.shard_count = in.get_i32();
  shard.header.shard_index = in.get_i32();
  shard.header.axis = in.get_bool() ? ShardAxis::kPoints : ShardAxis::kLoops;
  shard.header.loops = in.get_u64();
  shard.header.points = in.get_u64();
  shard.header.config_hash = in.get_u64();
  check(shard.header.shard_count >= 1, "shard blob: shard_count < 1");
  check(shard.header.shard_index >= 0 && shard.header.shard_index < shard.header.shard_count,
        "shard blob: shard_index out of range");

  SweepResult& r = shard.result;
  r.cache = deserialize_cache_stats(in);
  r.checkpoint.tasks_replayed = in.get_u64();
  r.checkpoint.tasks_executed = in.get_u64();
  r.checkpoint.journal_bytes = in.get_u64();
  const std::uint64_t totals = in.get_u64();
  check(totals <= 1u << 20, "shard blob: implausible stage-total count");
  for (std::uint64_t t = 0; t < totals; ++t) {
    StageTotal total;
    total.stage = in.get_string();
    total.seconds = in.get_f64();
    r.stage_totals.push_back(std::move(total));
  }
  r.wall_seconds = in.get_f64();
  r.pipelines = in.get_u64();
  const std::uint64_t point_count = in.get_u64();
  check(point_count == shard.header.points, "shard blob: by_point size disagrees with header");
  // Bound the dimensions by the bytes left before allocating anything:
  // every row carries an 8-byte loop count and every cell at least one
  // byte, so inflated header fields fail here instead of in the allocator.
  const std::uint64_t remaining = blob.size() - in.cursor();
  check(point_count <= remaining / 8 &&
            (point_count == 0 || shard.header.loops <= remaining / point_count),
        "shard blob: dimensions exceed the blob size");
  r.by_point.resize(point_count);
  for (std::uint64_t p = 0; p < point_count; ++p) {
    const std::uint64_t loop_count = in.get_u64();
    check(loop_count == shard.header.loops, "shard blob: loop count disagrees with header");
    r.by_point[p].reserve(loop_count);
    for (std::uint64_t i = 0; i < loop_count; ++i) {
      r.by_point[p].push_back(deserialize_loop_result(in));
    }
  }
  in.require_exhausted("shard blob");
  return shard;
}

SweepResult merge_sweep_shards(std::vector<SweepShard> shards) {
  check(!shards.empty(), "merge_sweep_shards: no shards");
  const ShardHeader& first = shards.front().header;
  if (static_cast<std::size_t>(first.shard_count) != shards.size()) {
    fail(cat("merge_sweep_shards: header says ", first.shard_count, " shard(s), got ",
             shards.size()));
  }
  std::vector<bool> seen(shards.size(), false);
  for (const SweepShard& shard : shards) {
    const ShardHeader& h = shard.header;
    check(h.shard_count == first.shard_count && h.axis == first.axis && h.loops == first.loops &&
              h.points == first.points,
          "merge_sweep_shards: shards disagree on dimensions or partition");
    check(h.config_hash == first.config_hash,
          "merge_sweep_shards: config hashes disagree — shards were cut from different sweeps");
    // Range-check before using the index anywhere (decoded shards are
    // already validated, but in-memory shard sets arrive unchecked).
    if (h.shard_index < 0 || h.shard_index >= h.shard_count) {
      fail(cat("merge_sweep_shards: shard_index ", h.shard_index, " out of range for ",
               h.shard_count, " shard(s)"));
    }
    if (seen[static_cast<std::size_t>(h.shard_index)]) {
      fail(cat("merge_sweep_shards: duplicate shard index ", h.shard_index));
    }
    seen[static_cast<std::size_t>(h.shard_index)] = true;
  }

  SweepResult merged;
  merged.by_point.resize(first.points);
  for (std::vector<LoopResult>& row : merged.by_point) row.resize(first.loops);
  std::map<std::string, double, std::less<>> totals;
  for (SweepShard& shard : shards) {
    // Overlap validation: a shard must hold results for exactly the cells
    // its partition slice owns.  A shard that ran more than its slice
    // (e.g. an unsharded run relabelled as a slice, or a worker launched
    // with the wrong shard_index) would silently double-count cache
    // stats, stage totals and pipelines when summed below — reject it
    // with a diagnostic instead.
    if (shard.result.by_point.size() != first.points) {
      fail(cat("merge_sweep_shards: shard ", shard.header.shard_index,
               " result dimensions disagree with its header"));
    }
    for (const std::vector<LoopResult>& row : shard.result.by_point) {
      if (row.size() != first.loops) {
        fail(cat("merge_sweep_shards: shard ", shard.header.shard_index,
                 " result dimensions disagree with its header"));
      }
    }
    std::uint64_t owned = 0;
    for (std::uint64_t p = 0; p < first.points; ++p) {
      for (std::uint64_t i = 0; i < first.loops; ++i) {
        if (shard_owns(first.axis, shard.header.shard_count, shard.header.shard_index, i, p)) {
          ++owned;
          continue;
        }
        const LoopResult& cell = shard.result.by_point[p][i];
        if (!cell.name.empty() || cell.ok) {
          fail(cat("merge_sweep_shards: shard ", shard.header.shard_index,
                   " holds a result at (loop ", i, ", point ", p,
                   ") outside its partition slice — overlapping shards would double-count"));
        }
      }
    }
    if (owned != shard.result.pipelines) {
      fail(cat("merge_sweep_shards: shard ", shard.header.shard_index, " reports ",
               shard.result.pipelines, " pipelines but its slice owns ", owned,
               " cells — overlapping or mis-partitioned shard set would double-count"));
    }

    merged.cache += shard.result.cache;
    merged.checkpoint += shard.result.checkpoint;
    merged.wall_seconds += shard.result.wall_seconds;
    merged.pipelines += shard.result.pipelines;
    for (const StageTotal& total : shard.result.stage_totals) {
      totals[total.stage] += total.seconds;
    }
    for (std::uint64_t p = 0; p < first.points; ++p) {
      for (std::uint64_t i = 0; i < first.loops; ++i) {
        if (!shard_owns(first.axis, shard.header.shard_count, shard.header.shard_index, i, p)) {
          continue;
        }
        merged.by_point[p][i] = std::move(shard.result.by_point[p][i]);
      }
    }
  }
  merged.stage_totals = ordered_stage_totals(std::move(totals));
  check(merged.pipelines == first.loops * first.points,
        "merge_sweep_shards: merged cell count does not cover the cross product");
  return merged;
}

std::string sweep_result_fingerprint(const SweepResult& result) {
  BlobWriter out;
  out.put_u64(result.by_point.size());
  for (const std::vector<LoopResult>& results : result.by_point) {
    out.put_u64(results.size());
    for (const LoopResult& r : results) serialize_loop_result(out, r, /*provenance=*/false);
  }
  return out.take();
}

}  // namespace qvliw
