#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "harness/shard.h"
#include "support/artifact_store.h"
#include "support/diagnostics.h"
#include "support/strings.h"
#include "workload/suite.h"

namespace qvliw {
namespace {

// The perf-sweep shape: one clustered machine, heuristic x budget
// back ends sharing a front prefix, so memoised budget ladders form.
std::vector<SweepPoint> ladder_points() {
  std::vector<SweepPoint> points;
  const MachineConfig ring = MachineConfig::clustered_machine(4);
  for (const ClusterHeuristic heuristic :
       {ClusterHeuristic::kAffinity, ClusterHeuristic::kLoadBalance}) {
    for (const int budget : {6, 12}) {
      SweepPoint point{cat(cluster_heuristic_name(heuristic), "-", budget), ring, {}};
      point.options.unroll = true;
      point.options.scheduler = SchedulerKind::kClustered;
      point.options.heuristic = heuristic;
      point.options.ims.budget_ratio = budget;
      points.push_back(point);
    }
  }
  return points;
}

SweepShard run_shard(const std::vector<Loop>& loops, const std::vector<SweepPoint>& points,
                     SweepOptions options, int shard_count, int shard_index, ShardAxis axis) {
  options.shard_count = shard_count;
  options.shard_index = shard_index;
  options.shard_axis = axis;
  SweepShard shard;
  shard.header.shard_count = shard_count;
  shard.header.shard_index = shard_index;
  shard.header.axis = axis;
  shard.header.loops = loops.size();
  shard.header.points = points.size();
  shard.header.config_hash = sweep_config_hash(loops, points);
  shard.result = SweepRunner(options).run(loops, points);
  return shard;
}

TEST(Shard, EveryCellOwnedByExactlyOneShard) {
  for (const ShardAxis axis : {ShardAxis::kLoops, ShardAxis::kPoints}) {
    for (const int count : {1, 2, 3, 5}) {
      for (std::size_t i = 0; i < 11; ++i) {
        for (std::size_t p = 0; p < 7; ++p) {
          int owners = 0;
          for (int s = 0; s < count; ++s) {
            if (shard_owns(axis, count, s, i, p)) ++owners;
          }
          EXPECT_EQ(owners, 1) << shard_axis_name(axis) << " " << count << " " << i << "," << p;
        }
      }
    }
  }
  EXPECT_THROW((void)shard_owns(ShardAxis::kLoops, 0, 0, 0, 0), Error);
  EXPECT_THROW((void)shard_owns(ShardAxis::kLoops, 2, 2, 0, 0), Error);
  EXPECT_THROW((void)shard_owns(ShardAxis::kLoops, 2, -1, 0, 0), Error);
}

TEST(Shard, CodecRoundTripsEverything) {
  const Suite suite = small_suite(5, 41);
  const std::vector<SweepPoint> points = ladder_points();
  const SweepShard shard =
      run_shard(suite.loops, points, SweepOptions{}, 2, 1, ShardAxis::kLoops);

  const std::string bytes = encode_sweep_shard(shard);
  const SweepShard copy = decode_sweep_shard(bytes);

  EXPECT_EQ(copy.header.shard_count, shard.header.shard_count);
  EXPECT_EQ(copy.header.shard_index, shard.header.shard_index);
  EXPECT_EQ(copy.header.axis, shard.header.axis);
  EXPECT_EQ(copy.header.loops, shard.header.loops);
  EXPECT_EQ(copy.header.points, shard.header.points);
  EXPECT_EQ(copy.header.config_hash, shard.header.config_hash);
  EXPECT_EQ(copy.result.pipelines, shard.result.pipelines);
  EXPECT_EQ(copy.result.wall_seconds, shard.result.wall_seconds);
  EXPECT_EQ(copy.result.cache.front_probes, shard.result.cache.front_probes);
  EXPECT_EQ(copy.result.cache.sched_memo_hits, shard.result.cache.sched_memo_hits);
  ASSERT_EQ(copy.result.stage_totals.size(), shard.result.stage_totals.size());
  for (std::size_t t = 0; t < shard.result.stage_totals.size(); ++t) {
    EXPECT_EQ(copy.result.stage_totals[t].stage, shard.result.stage_totals[t].stage);
    EXPECT_EQ(copy.result.stage_totals[t].seconds, shard.result.stage_totals[t].seconds);
  }
  EXPECT_EQ(sweep_result_fingerprint(copy.result), sweep_result_fingerprint(shard.result));
  // The full codec also carries provenance (effort stats, stage times).
  ASSERT_EQ(copy.result.by_point.size(), shard.result.by_point.size());
  for (std::size_t p = 0; p < shard.result.by_point.size(); ++p) {
    for (std::size_t i = 0; i < shard.result.by_point[p].size(); ++i) {
      const LoopResult& a = copy.result.by_point[p][i];
      const LoopResult& b = shard.result.by_point[p][i];
      EXPECT_EQ(a.sched_stats.placements, b.sched_stats.placements);
      EXPECT_EQ(a.warm_started, b.warm_started);
      EXPECT_EQ(a.stage_times.size(), b.stage_times.size());
    }
  }
}

TEST(Shard, DecodeRejectsTrailingBytesAndBadMagic) {
  const Suite suite = small_suite(3, 43);
  const std::vector<SweepPoint> points = ladder_points();
  const SweepShard shard =
      run_shard(suite.loops, points, SweepOptions{}, 1, 0, ShardAxis::kLoops);
  const std::string bytes = encode_sweep_shard(shard);

  EXPECT_THROW((void)decode_sweep_shard(bytes + "x"), Error);
  EXPECT_THROW((void)decode_sweep_shard(bytes.substr(0, bytes.size() - 1)), Error);
  std::string corrupt = bytes;
  corrupt[0] = static_cast<char>(corrupt[0] ^ 1);  // magic mismatch
  EXPECT_THROW((void)decode_sweep_shard(corrupt), Error);
}

// Overwrites the little-endian u64 at `offset` of an encoded blob.
void patch_u64(std::string& bytes, std::size_t offset, std::uint64_t value) {
  BlobWriter out;
  out.put_u64(value);
  bytes.replace(offset, 8, out.take());
}

// Inflated dimensions never size an allocation: decode rejects them with
// Error instead of surfacing std::bad_alloc, and merge sizes nothing from
// a loop count that has no cells.
TEST(Shard, InflatedDimensionsNeverReachTheAllocator) {
  SweepShard shard;
  shard.header.loops = 0;
  shard.header.points = 1;
  shard.result.by_point.resize(1);  // one empty row
  const std::string bytes = encode_sweep_shard(shard);
  ASSERT_NO_THROW((void)decode_sweep_shard(bytes));

  // Header layout: magic u64, count i32, index i32, axis bool, then
  // loops u64 at 17 and points u64 at 25.  The blob ends with the body's
  // point count and the single row's loop count.
  constexpr std::size_t kLoopsAt = 8 + 4 + 4 + 1;
  constexpr std::size_t kPointsAt = kLoopsAt + 8;
  const std::size_t row_loops_at = bytes.size() - 8;
  const std::size_t body_points_at = bytes.size() - 16;
  constexpr std::uint64_t kHuge = 1ULL << 40;

  std::string loops = bytes;
  patch_u64(loops, kLoopsAt, kHuge);
  patch_u64(loops, row_loops_at, kHuge);
  EXPECT_THROW((void)decode_sweep_shard(loops), Error);

  std::string points = bytes;
  patch_u64(points, kPointsAt, kHuge);
  patch_u64(points, body_points_at, kHuge);
  EXPECT_THROW((void)decode_sweep_shard(points), Error);

  // With zero points there are no cells, so any loop count decodes; the
  // merge must not size anything from it either.
  SweepShard empty;
  std::string no_points = encode_sweep_shard(empty);
  patch_u64(no_points, kLoopsAt, kHuge);
  std::vector<SweepShard> shards;
  shards.push_back(decode_sweep_shard(no_points));
  EXPECT_TRUE(merge_sweep_shards(std::move(shards)).by_point.empty());
}

// The tentpole golden test: the merged N-shard sweep is bit-identical to
// the single-process sweep on both shard axes, with the cells stitched
// from the shard that owns them and the accounting summed.
TEST(Shard, MergedShardsBitIdenticalToSingleProcess) {
  const Suite suite = small_suite(9, 47);
  const std::vector<SweepPoint> points = ladder_points();

  const SweepOptions options;
  const SweepResult single = SweepRunner(options).run(suite.loops, points);
  const std::string want = sweep_result_fingerprint(single);
  EXPECT_GT(single.cache.sched_memo_hits, 0u);

  for (const ShardAxis axis : {ShardAxis::kLoops, ShardAxis::kPoints}) {
    for (const int count : {2, 3}) {
      std::vector<SweepShard> shards;
      std::uint64_t cells = 0;
      for (int s = 0; s < count; ++s) {
        shards.push_back(run_shard(suite.loops, points, options, count, s, axis));
        cells += shards.back().result.pipelines;
      }
      EXPECT_EQ(cells, suite.loops.size() * points.size());

      const SweepResult merged = merge_sweep_shards(std::move(shards));
      const std::string where = cat(shard_axis_name(axis), " x", count);
      EXPECT_EQ(sweep_result_fingerprint(merged), want) << where;
      EXPECT_EQ(merged.pipelines, single.pipelines) << where;
      // Loop-axis shards keep whole loops (caches and ladders intact),
      // so even the cache accounting reassembles exactly.
      if (axis == ShardAxis::kLoops) {
        EXPECT_EQ(merged.cache.front_probes, single.cache.front_probes) << where;
        EXPECT_EQ(merged.cache.front_hits, single.cache.front_hits) << where;
        EXPECT_EQ(merged.cache.sched_memo_probes, single.cache.sched_memo_probes) << where;
        EXPECT_EQ(merged.cache.sched_memo_hits, single.cache.sched_memo_hits) << where;
      }
    }
  }
}

TEST(Shard, MergeRejectsInconsistentShardSets) {
  const Suite suite = small_suite(4, 53);
  const std::vector<SweepPoint> points = ladder_points();
  SweepOptions options;

  std::vector<SweepShard> shards;
  shards.push_back(run_shard(suite.loops, points, options, 2, 0, ShardAxis::kLoops));
  shards.push_back(run_shard(suite.loops, points, options, 2, 1, ShardAxis::kLoops));

  // Missing shard.
  EXPECT_THROW((void)merge_sweep_shards({shards[0]}), Error);
  // Duplicate index.
  EXPECT_THROW((void)merge_sweep_shards({shards[0], shards[0]}), Error);
  // Mismatched partition.
  {
    std::vector<SweepShard> mixed = shards;
    mixed[1].header.axis = ShardAxis::kPoints;
    EXPECT_THROW((void)merge_sweep_shards(std::move(mixed)), Error);
  }
  // Mismatched sweep identity.
  {
    std::vector<SweepShard> mixed = shards;
    mixed[1].header.config_hash ^= 1;
    EXPECT_THROW((void)merge_sweep_shards(std::move(mixed)), Error);
  }
  // The untampered pair merges fine.
  const SweepResult merged = merge_sweep_shards(std::move(shards));
  EXPECT_EQ(merged.pipelines, suite.loops.size() * points.size());
}

TEST(Shard, MergeRejectsOutOfRangeShardIndex) {
  const Suite suite = small_suite(4, 149);
  const std::vector<SweepPoint> points = ladder_points();
  std::vector<SweepShard> shards;
  shards.push_back(run_shard(suite.loops, points, SweepOptions{}, 2, 0, ShardAxis::kLoops));
  shards.push_back(run_shard(suite.loops, points, SweepOptions{}, 2, 1, ShardAxis::kLoops));
  // A hand-constructed (never-decoded) shard with a rogue index used to
  // index the duplicate-tracking vector out of bounds; now it is a clear
  // diagnostic.
  shards[1].header.shard_index = 5;
  try {
    (void)merge_sweep_shards(std::move(shards));
    FAIL() << "merge should reject an out-of-range shard index";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("out of range"), std::string::npos) << e.what();
  }
}

// The double-count regression: shard sets whose members hold more cells
// than their partition slice owns must be rejected, not silently summed.
TEST(Shard, MergeRejectsOverlappingShardData) {
  const Suite suite = small_suite(4, 151);
  const std::vector<SweepPoint> points = ladder_points();

  // An unsharded run relabelled as one slice of a 2-way partition: its
  // pipelines count (and its cells) cover the whole cross product.
  SweepShard relabelled;
  relabelled.header.shard_count = 2;
  relabelled.header.shard_index = 0;
  relabelled.header.axis = ShardAxis::kLoops;
  relabelled.header.loops = suite.loops.size();
  relabelled.header.points = points.size();
  relabelled.header.config_hash = sweep_config_hash(suite.loops, points);
  relabelled.result = SweepRunner().run(suite.loops, points);
  const SweepShard genuine =
      run_shard(suite.loops, points, SweepOptions{}, 2, 1, ShardAxis::kLoops);
  try {
    (void)merge_sweep_shards({relabelled, genuine});
    FAIL() << "merge should reject a shard holding the whole sweep";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("double-count"), std::string::npos) << e.what();
  }

  // A genuine slice with one stray cell outside its partition (pipelines
  // still consistent): also rejected.
  SweepShard tampered =
      run_shard(suite.loops, points, SweepOptions{}, 2, 0, ShardAxis::kLoops);
  ASSERT_GE(suite.loops.size(), 2u);
  tampered.result.by_point[0][1] = relabelled.result.by_point[0][1];  // loop 1: shard 1's cell
  try {
    (void)merge_sweep_shards({tampered, genuine});
    FAIL() << "merge should reject a cell outside the shard's slice";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("outside its partition"), std::string::npos)
        << e.what();
  }
}

TEST(Shard, ConfigHashSeparatesSweeps) {
  const Suite a = small_suite(4, 61);
  const Suite b = small_suite(4, 67);
  const std::vector<SweepPoint> points = ladder_points();
  EXPECT_NE(sweep_config_hash(a.loops, points), sweep_config_hash(b.loops, points));

  std::vector<SweepPoint> fewer(points.begin(), points.end() - 1);
  EXPECT_NE(sweep_config_hash(a.loops, points), sweep_config_hash(a.loops, fewer));
}

}  // namespace
}  // namespace qvliw