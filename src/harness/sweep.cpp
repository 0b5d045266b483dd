#include "harness/sweep.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <map>
#include <memory>
#include <utility>

#include "harness/stage.h"
#include "sched/mii.h"
#include "support/artifact_store.h"
#include "support/diagnostics.h"
#include "support/parallel.h"
#include "support/rng.h"
#include "support/strings.h"
#include "xform/unroll.h"

namespace qvliw {

double SweepCacheStats::hit_rate() const {
  const std::uint64_t p = probes();
  return p == 0 ? 0.0 : static_cast<double>(hits()) / static_cast<double>(p);
}

SweepCacheStats& SweepCacheStats::operator+=(const SweepCacheStats& other) {
  invariant_probes += other.invariant_probes;
  invariant_hits += other.invariant_hits;
  unroll_probes += other.unroll_probes;
  unroll_hits += other.unroll_hits;
  front_probes += other.front_probes;
  front_hits += other.front_hits;
  mii_probes += other.mii_probes;
  mii_hits += other.mii_hits;
  disk_probes += other.disk_probes;
  disk_hits += other.disk_hits;
  mii_disk_probes += other.mii_disk_probes;
  mii_disk_hits += other.mii_disk_hits;
  probe_factors += other.probe_factors;
  probe_fallbacks += other.probe_fallbacks;
  verify_memo_probes += other.verify_memo_probes;
  verify_memo_hits += other.verify_memo_hits;
  alloc_memo_probes += other.alloc_memo_probes;
  alloc_memo_hits += other.alloc_memo_hits;
  sched_memo_probes += other.sched_memo_probes;
  sched_memo_hits += other.sched_memo_hits;
  fallback_runs += other.fallback_runs;
  return *this;
}

double SweepResult::pipelines_per_second() const {
  return wall_seconds > 0.0 ? static_cast<double>(pipelines) / wall_seconds : 0.0;
}

double SweepResult::stage_seconds(std::string_view stage) const {
  for (const StageTotal& total : stage_totals) {
    if (total.stage == stage) return total.seconds;
  }
  return 0.0;
}

std::uint64_t SweepResult::verify_checked() const {
  std::uint64_t checked = 0;
  for (const auto& row : by_point) {
    for (const LoopResult& result : row) {
      if (result.verify_checked) ++checked;
    }
  }
  return checked;
}

std::uint64_t SweepResult::verify_violations() const {
  std::uint64_t violations = 0;
  for (const auto& row : by_point) {
    for (const LoopResult& result : row) {
      violations += static_cast<std::uint64_t>(result.verify_violations);
    }
  }
  return violations;
}

std::string_view sweep_verify_mode_name(SweepVerifyMode mode) {
  switch (mode) {
    case SweepVerifyMode::kOff:
      return "off";
    case SweepVerifyMode::kSample:
      return "sample";
    case SweepVerifyMode::kFull:
      return "full";
    case SweepVerifyMode::kStrict:
      return "strict";
  }
  return "unknown";
}

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// --- prefix keys -----------------------------------------------------------
//
// A sweep point's front-end artifacts are a pure function of the options
// *prefix* (plus the machine where the prefix consults it), hashed level
// by level so points sharing a shorter prefix still share the shallower
// artifacts.
//
// Every branch hashes its tag and its parameters as *separate* combine
// steps.  Additive salts (e.g. 0x3300 + factor vs 0x4400 + max_unroll)
// let one branch's parameter walk into another branch's tag range, so two
// structurally different prefixes could share one cache slot; a
// regression test drives the old aliasing pair through these keys.

std::uint64_t invariant_key(const PipelineOptions& options) {
  return hash_combine(hash64(0x11u), hash64(static_cast<std::uint64_t>(options.invariants)));
}

std::uint64_t unroll_key(std::uint64_t k1, const PipelineOptions& options,
                         const MachineConfig& machine) {
  if (!options.unroll) return hash_combine(k1, hash64(0x22u));
  if (options.forced_unroll >= 1) {
    return hash_combine(hash_combine(k1, hash64(0x33u)),
                        hash64(static_cast<std::uint64_t>(options.forced_unroll)));
  }
  // The policy factor (select_unroll_factor) consults the machine.
  return hash_combine(hash_combine(hash_combine(k1, hash64(0x44u)),
                                   hash64(static_cast<std::uint64_t>(options.max_unroll))),
                      machine.signature());
}

std::uint64_t front_key(std::uint64_t k2, const PipelineOptions& options,
                        const MachineConfig& machine) {
  const std::uint64_t copies =
      options.insert_copies ? 1 + static_cast<std::uint64_t>(options.copy_shape) : 0;
  // The DDG (built with the copy-inserted loop) depends on latencies only.
  return hash_combine(hash_combine(hash_combine(k2, hash64(0x55u)), hash64(copies)),
                      latency_signature(machine.latency));
}

// --- per-loop artifact cache ----------------------------------------------

struct UnrollEntry {
  std::shared_ptr<const Loop> loop;
  int factor = 1;
  std::shared_ptr<const Ddg> graph;  // the unrolled loop's DDG, when the
                                     // factor probe already built it
};

struct FrontEntry {
  bool ok = false;   // false: a transform failed; `failed_result` replays
                     // the canonical failing LoopResult for every point
  Loop loop;         // copy-inserted scheduler input
  int copies = 0;
  int factor = 1;
  std::shared_ptr<const Ddg> graph;
  std::map<std::uint64_t, MiiInfo> mii;  // machine signature -> bounds
  LoopResult failed_result;  // when !ok: bit-identical to what the
                             // monolithic pipeline reports (stage_times
                             // cleared; its cost is charged once)
};

struct LoopCache {
  std::map<std::uint64_t, std::shared_ptr<const Loop>> invariant;
  std::map<std::uint64_t, UnrollEntry> unrolled;
  std::map<std::uint64_t, FrontEntry> front;
};

// Front-end wall time indexed as: invariants, unroll, copy_insert, mii.
using FrontSeconds = std::array<double, 4>;

// --- on-disk persistence ---------------------------------------------------
//
// A FrontEntry is a pure function of (source loop contents, front prefix
// key); the prefix key already folds in every machine input the front end
// consults.  Entries are serialised with the portable blob format and end
// with a checksum of the bytes before it.
//
// Bump the version whenever a warm store could replay entries the current
// code would not reproduce: blob-layout changes AND any behavioral change
// to a front-end transform (invariant materialisation, unroll's rewrite
// or factor policy, copy insertion) or to memory-dependence derivation.
// The key changes with the version, so stale entries are simply never
// read again.  (Loop-serialization layout changes are self-invalidating:
// Loop::content_hash is derived from the serialized bytes.)
//
// The store holds front entries only; MII bounds and schedules are never
// persisted, so back-end changes need no bump.  Stores written by older
// builds may also hold entries that nothing reads any more (schedules,
// MII maps, v2 front entries); deleting the directory reclaims them.
//
// v3: a front entry ends with hash_bytes of its payload, so a flipped bit
// that would still decode to a valid loop is rejected instead of
// replayed.

constexpr std::uint64_t kStoreFormatVersion = 3;

std::uint64_t store_key(std::uint64_t loop_content_hash, std::uint64_t front_key_value) {
  return hash_combine(hash_combine(hash64(kStoreFormatVersion), loop_content_hash),
                      front_key_value);
}

std::string encode_front_entry(const FrontEntry& entry) {
  BlobWriter out;
  out.put_bool(entry.ok);
  if (entry.ok) {
    serialize_loop(out, entry.loop);
    out.put_i32(entry.copies);
    out.put_i32(entry.factor);
  } else {
    const LoopResult& r = entry.failed_result;
    out.put_string(r.failure);
    out.put_string(r.failed_stage);
    out.put_i32(r.unroll_factor);
    out.put_i32(r.copies);
  }
  std::string blob = out.take();
  BlobWriter checksum;
  checksum.put_u64(hash_bytes(blob));
  return blob + checksum.take();
}

/// Reconstructs a FrontEntry from `blob`; throws Error on a checksum
/// mismatch, truncation or any structural problem (the caller treats that
/// as a store miss).  The DDG is rebuilt from the decoded loop —
/// Ddg::build is deterministic and validates the loop.
FrontEntry decode_front_entry(const std::string& blob, const Loop& source,
                              const MachineConfig& machine) {
  check(blob.size() >= 8, "front entry blob: truncated checksum");
  const std::string_view payload = std::string_view(blob).substr(0, blob.size() - 8);
  BlobReader checksum(std::string_view(blob).substr(payload.size()));
  check(checksum.get_u64() == hash_bytes(payload), "front entry blob: checksum mismatch");
  BlobReader in(payload);
  FrontEntry entry;
  entry.ok = in.get_bool();
  if (entry.ok) {
    entry.loop = deserialize_loop(in);
    entry.copies = in.get_i32();
    entry.factor = in.get_i32();
    entry.graph = std::make_shared<const Ddg>(Ddg::build(entry.loop, machine.latency));
  } else {
    LoopResult& r = entry.failed_result;
    r.name = source.name;
    r.src_ops = source.op_count();
    r.failure = in.get_string();
    r.failed_stage = in.get_string();
    r.unroll_factor = in.get_i32();
    r.copies = in.get_i32();
  }
  in.require_exhausted("front entry blob");
  return entry;
}

FrontEntry& front_for(const Loop& source, const SweepPoint& point, const SweepPrefixKeys& keys,
                      LoopCache& cache, const ArtifactStore* store, std::uint64_t disk_key,
                      SweepCacheStats& stats, FrontSeconds& seconds) {
  ++stats.front_probes;
  if (auto it = cache.front.find(keys.front); it != cache.front.end()) {
    ++stats.front_hits;
    return it->second;
  }

  // Second-level cache: the persistent store.
  if (store != nullptr) {
    ++stats.disk_probes;
    std::string blob;
    if (store->load(disk_key, blob)) {
      try {
        FrontEntry entry = decode_front_entry(blob, source, point.machine);
        ++stats.disk_hits;
        return cache.front.emplace(keys.front, std::move(entry)).first->second;
      } catch (const Error&) {
        // Corrupt or stale entry: fall through and recompute (the save
        // below overwrites it).
      }
    }
  }

  FrontEntry entry;
  try {
    // Invariants.
    std::shared_ptr<const Loop> after_invariants;
    ++stats.invariant_probes;
    if (auto it = cache.invariant.find(keys.invariant); it != cache.invariant.end()) {
      ++stats.invariant_hits;
      after_invariants = it->second;
    } else {
      const Clock::time_point start = Clock::now();
      after_invariants = std::make_shared<const Loop>(
          materialize_invariants(source, point.options.invariants));
      seconds[0] += seconds_since(start);
      cache.invariant.emplace(keys.invariant, after_invariants);
    }

    // Unroll.
    UnrollEntry unrolled;
    ++stats.unroll_probes;
    if (auto it = cache.unrolled.find(keys.unroll); it != cache.unrolled.end()) {
      ++stats.unroll_hits;
      unrolled = it->second;
    } else {
      const Clock::time_point start = Clock::now();
      unrolled.loop = after_invariants;
      if (point.options.unroll) {
        if (point.options.forced_unroll >= 1) {
          unrolled.factor = point.options.forced_unroll;
          unrolled.loop = std::make_shared<const Loop>(unroll(*after_invariants, unrolled.factor));
        } else {
          // The probe hands back the winner it already materialised (and
          // its DDG on the naive path) — nothing is unrolled twice.
          UnrollProbe probe =
              probe_unroll_factor(*after_invariants, point.machine, point.options.max_unroll);
          stats.probe_factors += static_cast<std::uint64_t>(probe.factors_probed);
          if (!probe.incremental) ++stats.probe_fallbacks;
          unrolled.factor = probe.choice.factor;
          if (probe.loop != nullptr) unrolled.loop = std::move(probe.loop);
          unrolled.graph = std::move(probe.graph);
        }
      }
      seconds[1] += seconds_since(start);
      cache.unrolled.emplace(keys.unroll, unrolled);
    }

    // Copy insertion + the DDG.
    const Clock::time_point start = Clock::now();
    entry.factor = unrolled.factor;
    if (point.options.insert_copies) {
      // Fused rewrite + incremental DDG derivation (see
      // insert_copies_with_graph): same loop and graph as the two-step
      // path, without recomputing memory dependences on the bigger loop.
      CopyInsertWithGraph fused =
          insert_copies_with_graph(*unrolled.loop, point.machine.latency, point.options.copy_shape);
      entry.copies = fused.rewrite.copies_added;
      entry.loop = std::move(fused.rewrite.loop);
      entry.graph = std::make_shared<const Ddg>(std::move(fused.graph));
    } else {
      entry.loop = *unrolled.loop;
      // No copies inserted: the probe's DDG (same loop, same latencies) is
      // the scheduler's graph already.
      entry.graph = unrolled.graph != nullptr
                        ? unrolled.graph
                        : std::make_shared<const Ddg>(Ddg::build(entry.loop, point.machine.latency));
    }
    entry.ok = true;
    seconds[2] += seconds_since(start);
  } catch (const Error&) {
    // Canonicalise the failure once by replaying the front stage plan —
    // the exact code path the monolithic pipeline takes — so every point
    // sharing this prefix replays a bit-identical LoopResult instead of
    // re-running the whole uncached pipeline.  The replay genuinely
    // re-executes the front stages (including ones the try block above
    // already ran and charged), so folding its stage times below reports
    // real CPU spent, paid once per failing prefix.
    PipelineContext failed(source, point.machine, point.options);
    run_stages(failed, front_stage_plan());
    QVLIW_ASSERT(!failed.result.ok, "front prefix failed outside the stage plan");
    for (const StageTiming& timing : failed.result.stage_times) {
      if (timing.stage == kStageInvariants) seconds[0] += timing.seconds;
      if (timing.stage == kStageUnroll) seconds[1] += timing.seconds;
      if (timing.stage == kStageCopyInsert) seconds[2] += timing.seconds;
    }
    failed.result.stage_times.clear();  // charged once via FrontSeconds
    entry = FrontEntry{};
    entry.failed_result = std::move(failed.result);
  }
  if (store != nullptr) store->save(disk_key, encode_front_entry(entry));
  return cache.front.emplace(keys.front, std::move(entry)).first->second;
}

MiiInfo mii_for(FrontEntry& front, const SweepPoint& point, const SweepPrefixKeys& keys,
                SweepCacheStats& stats, FrontSeconds& seconds) {
  ++stats.mii_probes;
  if (auto it = front.mii.find(keys.machine); it != front.mii.end()) {
    ++stats.mii_hits;
    return it->second;
  }
  const Clock::time_point start = Clock::now();
  const MiiInfo mii = compute_mii(front.loop, *front.graph, point.machine);
  seconds[3] += seconds_since(start);
  front.mii.emplace(keys.machine, mii);
  return mii;
}

}  // namespace

SweepPrefixKeys sweep_prefix_keys(const SweepPoint& point) {
  SweepPrefixKeys keys;
  keys.invariant = invariant_key(point.options);
  keys.unroll = unroll_key(keys.invariant, point.options, point.machine);
  keys.front = front_key(keys.unroll, point.options, point.machine);
  keys.machine = point.machine.signature();
  keys.scheduler =
      scheduler_cache_key(point.options.scheduler, point.options.heuristic, point.options.ims);
  return keys;
}

std::vector<StageTotal> ordered_stage_totals(std::map<std::string, double, std::less<>> totals) {
  static constexpr std::string_view kOrder[] = {kStageInvariants, kStageUnroll, kStageCopyInsert,
                                                "mii",            kStageSchedule, kStageQueueAlloc,
                                                kStageSim,        kStageVerify};
  std::vector<StageTotal> out;
  for (std::string_view stage : kOrder) {
    if (auto it = totals.find(stage); it != totals.end()) {
      out.push_back({it->first, it->second});
      totals.erase(it);
    }
  }
  for (const auto& [stage, seconds] : totals) out.push_back({stage, seconds});
  return out;
}

int resolved_sweep_workers(const SweepOptions& options) {
  if (options.pool != nullptr) return static_cast<int>(options.pool->workers());
  if (options.workers > 0) return options.workers;
  return static_cast<int>(worker_count());
}

SweepRunner::SweepRunner(SweepOptions options) : options_(options) {}

SweepResult SweepRunner::run(const std::vector<Loop>& loops,
                             const std::vector<SweepPoint>& points) const {
  const Clock::time_point sweep_start = Clock::now();

  SweepResult sweep;
  sweep.by_point.assign(points.size(), std::vector<LoopResult>(loops.size()));
  sweep.pipelines = loops.size() * points.size();

  std::vector<SweepPrefixKeys> keys(points.size());
  for (std::size_t p = 0; p < points.size(); ++p) keys[p] = sweep_prefix_keys(points[p]);

  const bool persist = options_.use_cache && !options_.store_dir.empty();
  const ArtifactStore disk_store(options_.store_dir);
  const ArtifactStore* store = persist ? &disk_store : nullptr;

  // Effective per-cell verify policy: the sweep mode can only strengthen
  // what the point itself asked for.  The kSample subset hashes the cell
  // coordinates, so it is identical at every worker count.
  auto verify_policy_for = [&](std::size_t loop_index, std::size_t point_index,
                               VerifyPolicy base) -> VerifyPolicy {
    switch (options_.verify_mode) {
      case SweepVerifyMode::kOff:
        return base;
      case SweepVerifyMode::kSample: {
        const std::uint64_t rate =
            static_cast<std::uint64_t>(std::max(1, options_.verify_sample_rate));
        const std::uint64_t cell = hash_combine(hash64(static_cast<std::uint64_t>(loop_index)),
                                                hash64(static_cast<std::uint64_t>(point_index)));
        return cell % rate == 0 ? std::max(base, VerifyPolicy::kAudit) : base;
      }
      case SweepVerifyMode::kFull:
        return std::max(base, VerifyPolicy::kAudit);
      case SweepVerifyMode::kStrict:
        return VerifyPolicy::kStrict;
    }
    return base;
  };

  // Each task's accounting, in its own slot: written only by the worker
  // running that task, read only after the pool drains.
  struct TaskTally {
    SweepCacheStats stats;
    FrontSeconds seconds{};
  };
  std::vector<TaskTally> tallies(loops.size());

  // Executes task i: loop i across every point.  Runs on any worker
  // thread: everything it touches is either task-local (LoopCache,
  // TaskMemo, its tally), read-only sweep state (keys, the store), or
  // loop i's own by_point cells — disjoint from every other task's.
  auto execute_task = [&](std::size_t i) {
    LoopCache cache;
    TaskMemo memo;  // back-end artifact memo: one verify/alloc per unique bundle
    TaskTally& tally = tallies[i];
    const std::uint64_t loop_hash = loops[i].content_hash();

    for (std::size_t p = 0; p < points.size(); ++p) {
      const SweepPoint& point = points[p];
      // The override copy must outlive the PipelineContext referencing it.
      const VerifyPolicy cell_policy = verify_policy_for(i, p, point.options.verify);
      PipelineOptions verified_options;
      const PipelineOptions* cell_options = &point.options;
      if (cell_policy != point.options.verify) {
        verified_options = point.options;
        verified_options.verify = cell_policy;
        cell_options = &verified_options;
      }
      LoopResult out;
      bool produced = false;
      if (options_.use_cache) {
        try {
          const std::uint64_t disk_key = persist ? store_key(loop_hash, keys[p].front) : 0;
          FrontEntry& front = front_for(loops[i], point, keys[p], cache, store, disk_key,
                                        tally.stats, tally.seconds);
          if (front.ok) {
            PipelineContext ctx(loops[i], point.machine, *cell_options);
            ctx.memo = &memo;
            ctx.loop = front.loop;
            ctx.graph = front.graph;
            ctx.result.unroll_factor = front.factor;
            ctx.result.copies = front.copies;
            const bool rewrites = scheduler_rewrites_loop(point.options.scheduler);
            if (!rewrites) {
              ctx.known_mii = mii_for(front, point, keys[p], tally.stats, tally.seconds);
            }
            // MII-optimality short-circuit: a sibling budget-ladder point
            // of this task already proved an II == MII schedule for the
            // same (loop, front prefix, machine, budget-less scheduler key).
            // Any point with at least the publisher's budget installs it —
            // the cold search at MII is deterministic and completes within
            // the publisher's budget, so installing is bit-identical to
            // searching.
            const std::uint64_t sched_memo_key =
                hash_combine(hash_combine(hash64(loop_hash), keys[p].front),
                             hash_combine(keys[p].machine, keys[p].scheduler));
            WarmStartSeed memo_seed;
            bool memo_seeded = false;
            if (!rewrites) {
              ++memo.sched_probes;
              if (auto it = memo.sched.find(sched_memo_key);
                  it != memo.sched.end() &&
                  point.options.ims.budget_ratio >= it->second.budget_ratio) {
                memo_seed.schedule = it->second.schedule;
                memo_seed.ii = it->second.ii;
                ctx.seed = &memo_seed;
                memo_seeded = true;
              }
            }
            run_stages(ctx, back_stage_plan());
            if (memo_seeded && ctx.result.warm_started) ++memo.sched_hits;
            // Publish a proven-optimal accepted schedule (II == MII, post
            // queue-fit escalation) for this task's later ladder siblings,
            // keeping the smallest budget that proved it.
            if (!rewrites && ctx.sched.ok && ctx.sched.stats.mii_optimal) {
              auto [entry, added] = memo.sched.try_emplace(sched_memo_key);
              if (added || point.options.ims.budget_ratio < entry->second.budget_ratio) {
                entry->second.schedule = ctx.sched.schedule;
                entry->second.ii = ctx.sched.ii;
                entry->second.budget_ratio = point.options.ims.budget_ratio;
              }
            }
            out = std::move(ctx.result);
          } else {
            // The canonical failing result, computed once for the prefix.
            out = front.failed_result;
          }
          produced = true;
        } catch (const Error&) {
          // compute_mii (in mii_for) runs outside run_stages and can throw
          // Error (QVLIW_ASSERT in rec_mii); the uncached pipeline turns the
          // same throw into its canonical failure, so re-run it for parity.
        }
        if (!produced) ++tally.stats.fallback_runs;
      }
      if (!produced) out = run_pipeline(loops[i], point.machine, *cell_options);
      sweep.by_point[p][i] = std::move(out);
    }

    tally.stats.verify_memo_probes += memo.verify_probes;
    tally.stats.verify_memo_hits += memo.verify_hits;
    tally.stats.alloc_memo_probes += memo.alloc_probes;
    tally.stats.alloc_memo_hits += memo.alloc_hits;
    tally.stats.sched_memo_probes += memo.sched_probes;
    tally.stats.sched_memo_hits += memo.sched_hits;
  };

  ThreadPool* pool = options_.pool;
  std::unique_ptr<ThreadPool> private_pool;
  if (pool == nullptr) {
    if (options_.workers > 0) {
      // An explicit count means exactly that many threads, even above the
      // core count — determinism tests depend on it.  ThreadPool(1)
      // spawns nothing and runs every task on this thread.
      private_pool = std::make_unique<ThreadPool>(static_cast<std::size_t>(options_.workers));
      pool = private_pool.get();
    } else {
      pool = &ThreadPool::shared();
    }
  }
  // Grain 1: tasks are whole loops (many pipeline runs each), so per-claim
  // overhead is noise and load balancing wins.
  parallel_for_on(*pool, loops.size(), 1, execute_task);

  // Fold the tallies in loop order, so the accounting (and the float sums
  // of front-end seconds) do not depend on which worker finished first.
  FrontSeconds front_seconds{};
  for (const TaskTally& tally : tallies) {
    sweep.cache += tally.stats;
    for (std::size_t k = 0; k < front_seconds.size(); ++k) front_seconds[k] += tally.seconds[k];
  }

  // Aggregate per-stage wall time: per-run stage_times plus the front-end
  // work the cache performed outside any single run.
  std::map<std::string, double, std::less<>> totals;
  for (const std::vector<LoopResult>& results : sweep.by_point) {
    for (const LoopResult& result : results) {
      for (const StageTiming& timing : result.stage_times) totals[timing.stage] += timing.seconds;
    }
  }
  totals[std::string(kStageInvariants)] += front_seconds[0];
  totals[std::string(kStageUnroll)] += front_seconds[1];
  totals[std::string(kStageCopyInsert)] += front_seconds[2];
  if (front_seconds[3] > 0.0) totals["mii"] += front_seconds[3];
  sweep.stage_totals = ordered_stage_totals(std::move(totals));

  sweep.wall_seconds = seconds_since(sweep_start);
  return sweep;
}

SweepResult SweepRunner::run(const std::vector<Loop>& loops, const MachineConfig& machine,
                             const std::vector<PipelineOptions>& options_points) const {
  std::vector<SweepPoint> points;
  points.reserve(options_points.size());
  for (std::size_t p = 0; p < options_points.size(); ++p) {
    points.push_back({cat("point-", p), machine, options_points[p]});
  }
  return run(loops, points);
}

}  // namespace qvliw
