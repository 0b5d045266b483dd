#include "harness/sweep.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <map>
#include <memory>
#include <utility>

#include "harness/checkpoint.h"
#include "harness/shard.h"
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

CheckpointStats& CheckpointStats::operator+=(const CheckpointStats& other) {
  tasks_replayed += other.tasks_replayed;
  tasks_executed += other.tasks_executed;
  journal_bytes += other.journal_bytes;
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
// consults.  Entries are serialised with the portable blob format; the
// per-machine MII maps are persisted under their own keys (mii_store_key).
//
// Bump the version whenever a warm store could replay entries the current
// code would not reproduce: blob-layout changes AND any behavioral change
// to a front-end transform (invariant materialisation, unroll's rewrite
// or factor policy, copy insertion) or to memory-dependence derivation.
// The key changes with the version, so stale entries are simply never
// read again.  (Loop-serialization layout changes are self-invalidating:
// Loop::content_hash is derived from the serialized bytes.)
//
// The store holds front entries and MII maps only; schedules are never
// persisted (the task-local MII-optimality memo is the only schedule
// seeding path), so back-end search changes need no bump.  Stores written
// by older builds may also hold schedule entries under a key domain that
// nothing reads any more.
//
// v2: decoders uniformly reject trailing bytes (require_exhausted at
// every decode site); entries written by v1 code are retired wholesale
// rather than trusting v1's laxer acceptance.

constexpr std::uint64_t kStoreFormatVersion = 2;

std::uint64_t store_key(std::uint64_t loop_content_hash, std::uint64_t front_key_value) {
  return hash_combine(hash_combine(hash64(kStoreFormatVersion), loop_content_hash),
                      front_key_value);
}

// MII bounds are a pure function of (front loop, machine); the front loop
// is (source loop contents, front prefix key), so the key folds the loop
// content hash, the front key, and the machine signature, under a salt
// that keeps the MII key domain disjoint from front-entry keys.
std::uint64_t mii_store_key(std::uint64_t loop_content_hash, std::uint64_t front_key_value,
                            std::uint64_t machine_signature) {
  return hash_combine(hash_combine(hash_combine(hash64(kStoreFormatVersion), hash64(0x4d4949u)),
                                   hash_combine(loop_content_hash, front_key_value)),
                      machine_signature);
}

std::string encode_mii(const MiiInfo& mii) {
  BlobWriter out;
  out.put_bool(mii.feasible);
  out.put_i32(mii.res_mii);
  out.put_i32(mii.rec_mii);
  out.put_i32(mii.mii);
  return out.take();
}

/// Throws Error on truncation/trailing bytes; the caller treats that as a
/// store miss and recomputes.
MiiInfo decode_mii(const std::string& blob) {
  BlobReader in(blob);
  MiiInfo mii;
  mii.feasible = in.get_bool();
  mii.res_mii = in.get_i32();
  mii.rec_mii = in.get_i32();
  mii.mii = in.get_i32();
  in.require_exhausted("mii blob");
  return mii;
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
  return out.take();
}

/// Reconstructs a FrontEntry from `blob`; throws Error on any truncation
/// or structural problem (the caller treats that as a store miss).  The
/// DDG is rebuilt from the decoded loop — Ddg::build is deterministic and
/// validates the loop, so a corrupt blob cannot smuggle in a bad input.
FrontEntry decode_front_entry(const std::string& blob, const Loop& source,
                              const MachineConfig& machine) {
  BlobReader in(blob);
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
                const ArtifactStore* store, std::uint64_t loop_hash, SweepCacheStats& stats,
                FrontSeconds& seconds) {
  ++stats.mii_probes;
  if (auto it = front.mii.find(keys.machine); it != front.mii.end()) {
    ++stats.mii_hits;
    return it->second;
  }

  // Second-level cache: the persistent per-machine MII map.
  const std::uint64_t disk_key =
      store != nullptr ? mii_store_key(loop_hash, keys.front, keys.machine) : 0;
  if (store != nullptr) {
    ++stats.mii_disk_probes;
    std::string blob;
    if (store->load(disk_key, blob)) {
      try {
        const MiiInfo mii = decode_mii(blob);
        ++stats.mii_disk_hits;
        front.mii.emplace(keys.machine, mii);
        return mii;
      } catch (const Error&) {
        // Corrupt or stale entry: recompute (the save below overwrites it).
      }
    }
  }

  const Clock::time_point start = Clock::now();
  const MiiInfo mii = compute_mii(front.loop, *front.graph, point.machine);
  seconds[3] += seconds_since(start);
  if (store != nullptr) store->save(disk_key, encode_mii(mii));
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
  const SchedulerBackend* backend =
      find_scheduler_backend(point.options.scheduler, point.options.backend);
  if (backend != nullptr) {
    keys.backend = backend->cache_key(point.options.heuristic, point.options.ims);
    keys.consumes_cached_mii = backend->consumes_cached_mii();
    keys.supports_warm_start = backend->supports_warm_start();
  } else {
    // Unknown backend override: the point fails in the schedule stage;
    // hash the name so distinct unknown names still occupy distinct slots.
    keys.backend = hash_combine(hash64(0xbadbac0deull), hash_bytes(point.options.backend));
    keys.consumes_cached_mii = false;
  }
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

bool shard_owns(ShardAxis axis, int shard_count, int shard_index, std::size_t loop_index,
                std::size_t point_index) {
  check(shard_count >= 1, "shard_owns: shard_count must be >= 1");
  check(shard_index >= 0 && shard_index < shard_count, "shard_owns: shard_index out of range");
  const std::size_t owner = axis == ShardAxis::kLoops
                                ? loop_index % static_cast<std::size_t>(shard_count)
                                : point_index % static_cast<std::size_t>(shard_count);
  return owner == static_cast<std::size_t>(shard_index);
}

std::string_view shard_axis_name(ShardAxis axis) {
  return axis == ShardAxis::kLoops ? "loops" : "points";
}

std::vector<SweepTask> sweep_tasks(const SweepOptions& options, std::size_t loops,
                                   std::size_t points) {
  check(options.shard_count >= 1, "sweep_tasks: shard_count must be >= 1");
  check(options.shard_index >= 0 && options.shard_index < options.shard_count,
        "sweep_tasks: shard_index out of range");
  std::vector<SweepTask> tasks;
  for (std::size_t i = 0; i < loops; ++i) {
    SweepTask task;
    task.loop_index = i;
    for (std::size_t p = 0; p < points; ++p) {
      if (shard_owns(options.shard_axis, options.shard_count, options.shard_index, i, p)) {
        task.point_indices.push_back(p);
      }
    }
    if (!task.point_indices.empty()) tasks.push_back(std::move(task));
  }
  return tasks;
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

  check(options_.shard_count >= 1, "SweepRunner: shard_count must be >= 1");
  check(options_.shard_index >= 0 && options_.shard_index < options_.shard_count,
        "SweepRunner: shard_index out of range");

  SweepResult sweep;
  sweep.by_point.assign(points.size(), std::vector<LoopResult>(loops.size()));

  // The explicit work queue: one task per loop with owned cells under the
  // shard partition (every loop with all points when unsharded).  Cells no
  // task owns stay default LoopResults for merge_sweep_shards to fill
  // from their owner.
  const std::vector<SweepTask> tasks = sweep_tasks(options_, loops.size(), points.size());
  sweep.pipelines = 0;
  for (const SweepTask& task : tasks) sweep.pipelines += task.point_indices.size();

  std::vector<SweepPrefixKeys> keys(points.size());
  for (std::size_t p = 0; p < points.size(); ++p) keys[p] = sweep_prefix_keys(points[p]);

  const bool persist = options_.use_cache && !options_.store_dir.empty();
  const ArtifactStore disk_store(options_.store_dir);
  const ArtifactStore* store = persist ? &disk_store : nullptr;
  // Record the key-domain version this writer uses, so store maintenance
  // (ArtifactStore::stats) can report a shared directory's version mix.
  if (persist) disk_store.mark_version(kStoreFormatVersion);

  // Merged on the committer thread (workers > 1) or inline (serial) —
  // never touched by two threads at once.
  FrontSeconds front_seconds{};

  // Checkpoint ledger: open (or resume) this runner's journal, replay the
  // tasks it already holds, and queue only the remainder.
  std::unique_ptr<TaskJournal> journal;
  std::vector<const SweepTask*> pending;
  pending.reserve(tasks.size());
  if (!options_.checkpoint_dir.empty()) {
    JournalHeader header;
    header.config_hash = sweep_config_hash(loops, points);
    // Verification strictness changes what a cell can report (strict
    // fails loops on violations), so a resumed sweep must verify exactly
    // as the crashed one did; journals written with verify off keep
    // their pre-verifier hashes.
    if (options_.verify_mode != SweepVerifyMode::kOff) {
      header.config_hash = hash_combine(header.config_hash, hash64(0x7e81f7ULL));
      header.config_hash = hash_combine(
          header.config_hash, hash64(static_cast<std::uint64_t>(options_.verify_mode)));
      if (options_.verify_mode == SweepVerifyMode::kSample) {
        header.config_hash = hash_combine(
            header.config_hash, hash64(static_cast<std::uint64_t>(options_.verify_sample_rate)));
      }
    }
    header.shard_count = options_.shard_count;
    header.shard_index = options_.shard_index;
    header.axis = options_.shard_axis;
    header.loops = loops.size();
    header.points = points.size();
    journal = std::make_unique<TaskJournal>(
        checkpoint_journal_path(options_.checkpoint_dir, header), header);
  }
  for (const SweepTask& task : tasks) {
    bool replayed = false;
    if (journal != nullptr) {
      if (auto it = journal->completed().find(task.loop_index);
          it != journal->completed().end()) {
        try {
          TaskPayload payload = decode_task_payload(it->second);
          QVLIW_ASSERT(payload.loop_index == task.loop_index,
                       "journal payload filed under the wrong task id");
          for (const auto& [p, result] : payload.cells) {
            check(p < points.size(), "journal payload: point index out of range");
          }
          for (auto& [p, result] : payload.cells) {
            sweep.by_point[p][task.loop_index] = std::move(result);
          }
          sweep.cache += payload.stats;
          for (std::size_t k = 0; k < front_seconds.size(); ++k) {
            front_seconds[k] += payload.front_seconds[k];
          }
          ++sweep.checkpoint.tasks_replayed;
          replayed = true;
        } catch (const Error&) {
          // The record checksum makes this near-impossible, but a payload
          // that fails to decode is simply re-executed; the fresh record
          // appended below supersedes it on the next replay.
        }
      }
    }
    if (!replayed) pending.push_back(&task);
  }

  // Effective per-cell verify policy: the sweep mode can only strengthen
  // what the point itself asked for.  The kSample subset hashes the cell
  // coordinates, so it is identical at every worker count, shard
  // partition, and resume.
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

  // Executes one task and returns its commit record.  Runs on any worker
  // thread: everything it touches is either task-local (LoopCache,
  // TaskMemo, stats, seconds), read-only sweep state (keys, the store's
  // striped index), or this task's own by_point cells — disjoint from
  // every other task's.
  auto execute_task = [&](const SweepTask& task) -> TaskCommit {
    const std::size_t i = task.loop_index;
    LoopCache cache;
    TaskMemo memo;  // back-end artifact memo: one verify/alloc per unique bundle
    SweepCacheStats local_stats;
    FrontSeconds local_seconds{};
    const std::uint64_t loop_hash = loops[i].content_hash();

    for (const std::size_t p : task.point_indices) {
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
                                        local_stats, local_seconds);
          if (front.ok) {
            PipelineContext ctx(loops[i], point.machine, *cell_options);
            ctx.memo = &memo;
            ctx.loop = front.loop;
            ctx.graph = front.graph;
            ctx.result.unroll_factor = front.factor;
            ctx.result.copies = front.copies;
            if (keys[p].consumes_cached_mii) {
              ctx.known_mii =
                  mii_for(front, point, keys[p], store, loop_hash, local_stats, local_seconds);
            }
            // MII-optimality short-circuit: a sibling budget-ladder point
            // of this task already proved an II == MII schedule for the
            // same (loop, front prefix, machine, budget-less backend key).
            // Any point with at least the publisher's budget installs it —
            // the cold search at MII is deterministic and completes within
            // the publisher's budget, so installing is bit-identical to
            // searching.
            const std::uint64_t sched_memo_key =
                hash_combine(hash_combine(hash64(loop_hash), keys[p].front),
                             hash_combine(keys[p].machine, keys[p].backend));
            WarmStartSeed memo_seed;
            bool memo_seeded = false;
            if (keys[p].supports_warm_start) {
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
            if (keys[p].supports_warm_start && ctx.sched.ok && ctx.sched.stats.mii_optimal) {
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
          // Fall through to the uncached path for exact failure parity.
        }
        if (!produced) ++local_stats.fallback_runs;
      }
      if (!produced) out = run_pipeline(loops[i], point.machine, *cell_options);
      sweep.by_point[p][i] = std::move(out);
    }

    // Fold the memo counters into the task's stats *before* the journal
    // payload is built, so checkpoint replay restores identical accounting.
    local_stats.verify_memo_probes += memo.verify_probes;
    local_stats.verify_memo_hits += memo.verify_hits;
    local_stats.alloc_memo_probes += memo.alloc_probes;
    local_stats.alloc_memo_hits += memo.alloc_hits;
    local_stats.sched_memo_probes += memo.sched_probes;
    local_stats.sched_memo_hits += memo.sched_hits;

    TaskCommit commit;
    commit.task_id = i;
    commit.stats = local_stats;
    commit.front_seconds = local_seconds;
    if (journal != nullptr) {
      // The journal record: this task's cells plus the accounting deltas,
      // so a replay restores both exactly.
      TaskPayload payload;
      payload.loop_index = i;
      payload.cells.reserve(task.point_indices.size());
      for (const std::size_t p : task.point_indices) {
        payload.cells.emplace_back(p, sweep.by_point[p][i]);
      }
      payload.stats = local_stats;
      payload.front_seconds = local_seconds;
      commit.payload = encode_task_payload(payload);
    }
    return commit;
  };

  // Merges one commit into the sweep.  Single-threaded by construction:
  // the committer thread is its only caller in the threaded path, the
  // executing thread in the serial one.
  auto apply_commit = [&](const TaskCommit& commit) {
    sweep.cache += commit.stats;
    for (std::size_t k = 0; k < front_seconds.size(); ++k) {
      front_seconds[k] += commit.front_seconds[k];
    }
    if (journal != nullptr) {
      ++sweep.checkpoint.tasks_executed;
      if (options_.on_task_committed) options_.on_task_committed(sweep.checkpoint.tasks_executed);
    }
  };

  const int workers = resolved_sweep_workers(options_);
  if (!pending.empty()) {
    if (workers <= 1) {
      // Serial: execute, append, merge inline — a hook exception aborts
      // between tasks with exactly the committed prefix journaled.
      for (const SweepTask* task : pending) {
        TaskCommit commit = execute_task(*task);
        if (journal != nullptr) journal->append_task(commit.task_id, commit.payload);
        apply_commit(commit);
      }
    } else {
      // Threaded: workers execute tasks and submit commits; the committer
      // thread serialises journal appends + merges.  Channel capacity
      // 2x workers bounds the completed-but-uncommitted backlog while
      // keeping the journal fed.
      TaskCommitter committer(
          journal.get(), static_cast<std::size_t>(workers) * 2,
          [&](const TaskCommit& commit, std::uint64_t) { apply_commit(commit); });
      ThreadPool* pool = options_.pool;
      std::unique_ptr<ThreadPool> private_pool;
      if (pool == nullptr) {
        if (options_.workers > 0) {
          // An explicit count means exactly that many threads, even
          // above the core count — determinism tests depend on it.
          private_pool = std::make_unique<ThreadPool>(static_cast<std::size_t>(workers));
          pool = private_pool.get();
        } else {
          pool = &ThreadPool::shared();
        }
      }
      // Grain 1: tasks are whole loops (many pipeline runs each), so
      // per-claim overhead is noise and load balancing wins.
      parallel_for_on(*pool, pending.size(), 1,
                      [&](std::size_t t) { committer.submit(execute_task(*pending[t])); });
      committer.finish();  // rethrows the first journal/hook error
    }
  }
  if (journal != nullptr) sweep.checkpoint.journal_bytes = journal->bytes();

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
