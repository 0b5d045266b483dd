#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "support/artifact_store.h"
#include "support/diagnostics.h"
#include "support/parallel.h"
#include "support/rng.h"
#include "support/stats.h"
#include "support/strings.h"
#include "support/table.h"

namespace qvliw {
namespace {

// --- diagnostics -----------------------------------------------------------

TEST(Diagnostics, CheckPassesOnTrue) { EXPECT_NO_THROW(check(true, "fine")); }

TEST(Diagnostics, CheckThrowsWithMessage) {
  try {
    check(false, "broken precondition");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "broken precondition");
  }
}

TEST(Diagnostics, FailAtIncludesLocation) {
  try {
    fail_at("file.cpp", 42, "boom");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("file.cpp:42"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("boom"), std::string::npos);
  }
}

// --- strings ----------------------------------------------------------------

TEST(Strings, CatConcatenatesMixedTypes) {
  EXPECT_EQ(cat("x=", 3, ", y=", 2.5), "x=3, y=2.5");
}

TEST(Strings, SplitKeepsEmptyFields) {
  const auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(Strings, TrimStripsBothEnds) {
  EXPECT_EQ(trim("  hello \t\n"), "hello");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(starts_with("prefix-rest", "prefix"));
  EXPECT_FALSE(starts_with("pre", "prefix"));
}

TEST(Strings, FixedAndPercent) {
  EXPECT_EQ(fixed(3.14159, 2), "3.14");
  EXPECT_EQ(percent(0.952, 1), "95.2%");
  EXPECT_EQ(percent(1.0, 0), "100%");
}

TEST(Strings, Padding) {
  EXPECT_EQ(pad_left("ab", 4), "  ab");
  EXPECT_EQ(pad_right("ab", 4), "ab  ");
  EXPECT_EQ(pad_left("abcde", 3), "abcde");
}

// --- rng ---------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(Rng, UniformIntStaysInRange) {
  Rng rng(7);
  std::set<int> seen;
  for (int i = 0; i < 2000; ++i) {
    const int v = rng.uniform_int(-3, 5);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 5);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 9u);  // all values hit
}

TEST(Rng, UniformIntDegenerateRange) {
  Rng rng(7);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(4, 4), 4);
}

TEST(Rng, UniformRealInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng rng(11);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, WeightedrespectsZeroWeights) {
  Rng rng(13);
  const std::vector<double> weights = {0.0, 1.0, 0.0};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.weighted(weights), 1u);
}

TEST(Rng, WeightedRoughProportions) {
  Rng rng(17);
  const std::vector<double> weights = {1.0, 3.0};
  int hits = 0;
  const int draws = 4000;
  for (int i = 0; i < draws; ++i) {
    if (rng.weighted(weights) == 1) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / draws, 0.75, 0.05);
}

TEST(Rng, PickAndShuffle) {
  Rng rng(19);
  std::vector<int> items = {1, 2, 3, 4, 5};
  for (int i = 0; i < 20; ++i) {
    const int v = rng.pick(items);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 5);
  }
  std::vector<int> shuffled = items;
  rng.shuffle(shuffled);
  std::multiset<int> a(items.begin(), items.end());
  std::multiset<int> b(shuffled.begin(), shuffled.end());
  EXPECT_EQ(a, b);
}

TEST(Rng, ForkIsIndependent) {
  Rng a(21);
  Rng child = a.fork();
  // Child stream should not replay the parent stream.
  Rng b(21);
  (void)b.next();  // parent consumed one draw to fork
  EXPECT_NE(child.next(), b.next());
}

TEST(Rng, Hash64Stable) {
  EXPECT_EQ(hash64(42), hash64(42));
  EXPECT_NE(hash64(42), hash64(43));
  EXPECT_EQ(hash_combine(1, 2), hash_combine(1, 2));
  EXPECT_NE(hash_combine(1, 2), hash_combine(2, 1));
}

// --- stats --------------------------------------------------------------------

TEST(Stats, OnlineBasics) {
  OnlineStats s;
  for (double v : {2.0, 4.0, 6.0}) s.add(v);
  EXPECT_EQ(s.count(), 3u);
  EXPECT_DOUBLE_EQ(s.mean(), 4.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 6.0);
  EXPECT_DOUBLE_EQ(s.sum(), 12.0);
  EXPECT_NEAR(s.variance(), 4.0, 1e-12);
  EXPECT_NEAR(s.stddev(), 2.0, 1e-12);
}

TEST(Stats, MeanAndGeomean) {
  EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
  EXPECT_THROW((void)geomean({1.0, 0.0}), Error);
}

TEST(Stats, PercentileInterpolates) {
  std::vector<double> values = {10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentile(values, 0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(values, 100), 40.0);
  EXPECT_DOUBLE_EQ(percentile(values, 50), 25.0);
}

TEST(Stats, FractionAtMost) {
  const std::vector<int> values = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(fraction_at_most(values, 2), 0.5);
  EXPECT_DOUBLE_EQ(fraction_at_most(values, 0), 0.0);
  EXPECT_DOUBLE_EQ(fraction_at_most(values, 9), 1.0);
}

TEST(Stats, HistogramBinsAndCumulative) {
  Histogram h(0.0, 10.0, 5);
  for (double v : {0.5, 1.5, 3.0, 9.9, 11.0, -1.0}) h.add(v);  // clamped edges
  EXPECT_EQ(h.total(), 6u);
  EXPECT_EQ(h.bin_count(0), 3u);  // 0.5, 1.5, -1.0
  EXPECT_EQ(h.bin_count(1), 1u);  // 3.0
  EXPECT_EQ(h.bin_count(4), 2u);  // 9.9, 11.0
  EXPECT_DOUBLE_EQ(h.cumulative_fraction(4), 1.0);
  EXPECT_NEAR(h.cumulative_fraction(0), 0.5, 1e-12);
  EXPECT_DOUBLE_EQ(h.bin_lo(1), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(1), 4.0);
}

// --- table ---------------------------------------------------------------------

TEST(Table, RendersAlignedColumns) {
  TextTable t({"name", "value"});
  t.add_row({std::string("alpha"), std::int64_t{42}});
  t.add_row({std::string("b"), 3.14159});
  std::ostringstream os;
  t.render(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("42"), std::string::npos);
  EXPECT_NE(out.find("3.14"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.columns(), 2u);
}

TEST(Table, RowWidthMismatchThrows) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({std::string("only-one")}), Error);
}

TEST(Table, CsvEscaping) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(Table, CsvRendering) {
  TextTable t({"k", "v"});
  t.add_row({std::string("x,y"), std::int64_t{1}});
  std::ostringstream os;
  t.render_csv(os);
  EXPECT_EQ(os.str(), "k,v\n\"x,y\",1\n");
}

// --- parallel ---------------------------------------------------------------------

TEST(Parallel, CoversAllIndicesExactlyOnce) {
  const std::size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  parallel_for(n, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(Parallel, ZeroCountIsNoop) {
  bool ran = false;
  parallel_for(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(Parallel, PropagatesException) {
  EXPECT_THROW(
      parallel_for(16, [](std::size_t i) {
        if (i == 7) throw Error("worker failed");
      }),
      Error);
}

TEST(Parallel, WorkerCountPositive) { EXPECT_GE(worker_count(), 1u); }

TEST(Parallel, GrainedCoversAllIndicesExactlyOnce) {
  const std::size_t n = 1003;  // not a multiple of the grain
  std::vector<std::atomic<int>> hits(n);
  parallel_for_grained(n, 7, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(Parallel, ExceptionOnCallerChunkStillDrainsOthers) {
  // Grain 1: the throwing index kills only its own chunk; every other
  // index still runs and the join completes before the rethrow.
  const std::size_t n = 64;
  std::vector<std::atomic<int>> hits(n);
  EXPECT_THROW(parallel_for_grained(n, 1,
                                    [&](std::size_t i) {
                                      if (i == 0) throw Error("caller-chunk failure");
                                      hits[i].fetch_add(1);
                                    }),
               Error);
  for (std::size_t i = 1; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(Parallel, MultipleExceptionsRethrowFirstCaptured) {
  EXPECT_THROW(parallel_for(256, [](std::size_t i) {
                 if (i % 2 == 0) throw Error("even index failed");
               }),
               Error);
}

TEST(Parallel, RngStreamsAreDeterministic) {
  const std::size_t n = 200;
  auto draw = [&] {
    std::vector<std::uint64_t> values(n);
    parallel_for_rng(n, 99, [&](std::size_t i, Rng& rng) { values[i] = rng.next(); });
    return values;
  };
  const auto first = draw();
  const auto second = draw();
  EXPECT_EQ(first, second);
  // Distinct chunks use distinct streams: values are not all equal.
  std::set<std::uint64_t> unique(first.begin(), first.end());
  EXPECT_GT(unique.size(), n / 2);
}

TEST(Parallel, RngZeroCountIsNoop) {
  bool ran = false;
  parallel_for_rng(0, 1, [&](std::size_t, Rng&) { ran = true; });
  EXPECT_FALSE(ran);
}

// --- thread pool ------------------------------------------------------------

TEST(ThreadPool, ExplicitWorkerCountCoversAllIndices) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.workers(), 4u);
  const std::size_t n = 257;  // not a multiple of any grain
  std::vector<std::atomic<int>> hits(n);
  parallel_for_on(pool, n, 1, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, RunsChunksConcurrently) {
  // Four workers (three pool threads + the caller) can hold four grain-1
  // chunks in flight at once: each chunk spins until all four have
  // started.  A pool that failed to fan out would deadlock here (caught
  // by the test timeout), not pass by accident.
  ThreadPool pool(4);
  std::atomic<int> started{0};
  parallel_for_on(pool, 4, 1, [&](std::size_t) {
    started.fetch_add(1);
    while (started.load() < 4) std::this_thread::yield();
  });
  EXPECT_EQ(started.load(), 4);
}

TEST(ThreadPool, PropagatesExceptionAndStaysUsable) {
  ThreadPool pool(3);
  EXPECT_THROW(parallel_for_on(pool, 64, 1,
                               [](std::size_t i) {
                                 if (i == 13) throw Error("chunk failed");
                               }),
               Error);
  // The pool survives a failed job: the next job runs to completion.
  std::vector<std::atomic<int>> hits(64);
  parallel_for_on(pool, hits.size(), 1, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, NestedFanOutRunsInline) {
  // A body that itself calls parallel_for must not deadlock waiting for
  // pool threads that are all busy running the outer job: nested
  // fan-outs run inline on the calling worker.
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(32 * 8);
  parallel_for_on(pool, 32, 1, [&](std::size_t outer) {
    parallel_for(8, [&](std::size_t inner) { hits[outer * 8 + inner].fetch_add(1); });
  });
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, SingleWorkerPoolRunsSerially) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.workers(), 1u);
  std::vector<int> hits(100, 0);  // no atomics needed: serial by contract
  parallel_for_on(pool, hits.size(), 1, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i], 1) << i;
}

TEST(ThreadPool, ForkedChildDegradesToCallerDraining) {
  // A forked child inherits the pool object but none of its threads; a
  // run() in the child must complete (caller drains every chunk) rather
  // than wait forever on workers that do not exist.
  (void)ThreadPool::shared();  // ensure the shared pool predates the fork
  const pid_t pid = fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    std::atomic<std::size_t> sum{0};
    parallel_for(100, [&](std::size_t i) { sum.fetch_add(i + 1); });
    _exit(sum.load() == 5050 ? 0 : 1);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "child exited " << status;
}

TEST(Rng, HashBytesStableAndSensitive) {
  const std::uint64_t empty = hash_bytes("");
  EXPECT_EQ(empty, hash_bytes(""));  // deterministic
  EXPECT_EQ(hash_bytes("daxpy"), hash_bytes("daxpy"));
  EXPECT_NE(hash_bytes("daxpy"), hash_bytes("daxpz"));
  EXPECT_NE(hash_bytes("ab"), hash_bytes("ba"));
  EXPECT_NE(hash_bytes(""), hash_bytes(std::string_view("\0", 1)));
}

TEST(ArtifactStore, RoundTripAndMiss) {
  const std::filesystem::path root =
      std::filesystem::temp_directory_path() / "qvliw_test_artifacts";
  std::filesystem::remove_all(root);
  const ArtifactStore store(root.string());

  std::string blob;
  EXPECT_FALSE(store.load(42, blob));

  store.save(42, "hello artifacts");
  ASSERT_TRUE(store.load(42, blob));
  EXPECT_EQ(blob, "hello artifacts");

  // Overwrite is atomic-rename install of the new bytes.
  store.save(42, "v2");
  ASSERT_TRUE(store.load(42, blob));
  EXPECT_EQ(blob, "v2");

  // Distinct keys land in distinct files, including across the top-byte
  // fan-out directories.
  store.save(0xaa00000000000001ULL, "high");
  ASSERT_TRUE(store.load(0xaa00000000000001ULL, blob));
  EXPECT_EQ(blob, "high");
  ASSERT_TRUE(store.load(42, blob));
  EXPECT_EQ(blob, "v2");
  std::filesystem::remove_all(root);
}

TEST(ArtifactStore, BinaryBlobSurvives) {
  const std::filesystem::path root =
      std::filesystem::temp_directory_path() / "qvliw_test_artifacts_bin";
  std::filesystem::remove_all(root);
  const ArtifactStore store(root.string());

  BlobWriter writer;
  writer.put_u64(0x0123456789abcdefULL);
  writer.put_i64(-7);
  writer.put_i32(-123456);
  writer.put_bool(true);
  writer.put_string(std::string("nul\0inside", 10));
  store.save(7, writer.take());

  std::string blob;
  ASSERT_TRUE(store.load(7, blob));
  BlobReader reader(blob);
  EXPECT_EQ(reader.get_u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(reader.get_i64(), -7);
  EXPECT_EQ(reader.get_i32(), -123456);
  EXPECT_TRUE(reader.get_bool());
  EXPECT_EQ(reader.get_string(), std::string("nul\0inside", 10));
  EXPECT_TRUE(reader.exhausted());
  std::filesystem::remove_all(root);
}

TEST(ArtifactStore, TruncatedBlobThrows) {
  BlobWriter writer;
  writer.put_u64(99);
  const std::string bytes = writer.take();

  BlobReader truncated(std::string_view(bytes).substr(0, 4));
  EXPECT_THROW((void)truncated.get_u64(), Error);

  // A string whose declared length exceeds the remaining bytes.
  BlobWriter lying;
  lying.put_u64(1000);  // length prefix with no payload
  const std::string lie = lying.take();
  BlobReader reader(lie);
  EXPECT_THROW((void)reader.get_string(), Error);
}

TEST(ArtifactStore, RequireExhaustedRejectsTrailingBytes) {
  // A longer (future-format) entry must not silently decode as a valid
  // shorter one: every decode site ends with require_exhausted, which
  // only accepts a fully consumed blob.
  BlobWriter writer;
  writer.put_u64(7);
  writer.put_bool(true);  // the "extra" trailing field a v+1 format adds
  const std::string bytes = writer.take();

  BlobReader reader(bytes);
  EXPECT_EQ(reader.get_u64(), 7u);
  EXPECT_THROW(reader.require_exhausted("entry"), Error);
  EXPECT_TRUE(reader.get_bool());
  reader.require_exhausted("entry");  // all consumed: no throw
}

TEST(ArtifactStore, MissesAreReprobedSoCrossProcessFillsAppear) {
  const std::filesystem::path root =
      std::filesystem::temp_directory_path() / "qvliw_test_artifacts_reprobe";
  std::filesystem::remove_all(root);
  const ArtifactStore reader(root.string());

  std::string blob;
  EXPECT_FALSE(reader.load(5, blob));

  // Another process (simulated by a second store object) installs the
  // entry; the same reader's next probe finds it on disk.
  const ArtifactStore writer(root.string());
  writer.save(5, "filled elsewhere");
  ASSERT_TRUE(reader.load(5, blob));
  EXPECT_EQ(blob, "filled elsewhere");
  std::filesystem::remove_all(root);
}

// One ArtifactStore shared by every worker thread of a sweep: hammer
// load/save on overlapping keys from many threads.  All writers write
// the same payload per key, so any successful load must return exactly
// that payload — a torn read or a data race under TSan fails the test.
TEST(ArtifactStore, ConcurrentThreadedLoadsAndSavesAreCoherent) {
  const std::filesystem::path root =
      std::filesystem::temp_directory_path() / "qvliw_test_artifacts_threads";
  std::filesystem::remove_all(root);
  const ArtifactStore store(root.string());

  constexpr int kThreads = 8;
  constexpr int kKeys = 32;
  constexpr int kRounds = 40;
  const auto payload = [](int key) {
    std::string bytes(256 + static_cast<std::size_t>(key), static_cast<char>('a' + key % 26));
    bytes += "|k" + std::to_string(key);
    return bytes;
  };

  std::atomic<int> bad_loads{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (int key = 0; key < kKeys; ++key) {
          if ((t + round + key) % 3 == 0) {
            store.save(static_cast<std::uint64_t>(key), payload(key));
          } else {
            std::string blob;
            if (store.load(static_cast<std::uint64_t>(key), blob) && blob != payload(key)) {
              bad_loads.fetch_add(1);
            }
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(bad_loads.load(), 0);

  for (int key = 0; key < kKeys; ++key) {
    std::string blob;
    ASSERT_TRUE(store.load(static_cast<std::uint64_t>(key), blob)) << key;
    EXPECT_EQ(blob, payload(key)) << key;
  }
  std::filesystem::remove_all(root);
}

// Several *processes* may share one store directory, so
// temp-file names must be unique across processes, not just threads —
// a collision would interleave two writers' bytes before the atomic
// rename.  Fork real concurrent writer processes hammering the same
// keys and require every surviving value to be exactly one writer's
// complete payload.
TEST(ArtifactStore, MultiProcessWritersNeverInterleave) {
  const std::filesystem::path root =
      std::filesystem::temp_directory_path() / "qvliw_test_artifacts_multiproc";
  std::filesystem::remove_all(root);
  const ArtifactStore store(root.string());

  constexpr int kWriters = 4;
  constexpr int kKeys = 16;
  constexpr int kRounds = 25;
  // Payload per (writer, key): long enough that a torn write would be
  // visible, fully reconstructible by the parent for validation.
  const auto payload = [](int writer, int key) {
    std::string bytes;
    bytes.reserve(2048 + static_cast<std::size_t>(key));
    for (int b = 0; b < 2048 + key; ++b) {
      bytes.push_back(static_cast<char>('A' + writer));
    }
    bytes += "|w" + std::to_string(writer) + "|k" + std::to_string(key);
    return bytes;
  };

  std::vector<pid_t> children;
  for (int w = 0; w < kWriters; ++w) {
    const pid_t pid = fork();
    ASSERT_GE(pid, 0) << "fork failed";
    if (pid == 0) {
      // Child: rewrite every key repeatedly, racing its siblings.
      for (int round = 0; round < kRounds; ++round) {
        for (int key = 0; key < kKeys; ++key) {
          store.save(static_cast<std::uint64_t>(key), payload(w, key));
        }
      }
      _exit(0);
    }
    children.push_back(pid);
  }
  for (const pid_t pid : children) {
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  }

  for (int key = 0; key < kKeys; ++key) {
    std::string blob;
    ASSERT_TRUE(store.load(static_cast<std::uint64_t>(key), blob)) << key;
    bool matches_one_writer = false;
    for (int w = 0; w < kWriters; ++w) {
      if (blob == payload(w, key)) {
        matches_one_writer = true;
        break;
      }
    }
    EXPECT_TRUE(matches_one_writer)
        << "key " << key << " holds interleaved bytes (size " << blob.size() << ")";
  }
  std::filesystem::remove_all(root);
}

}  // namespace
}  // namespace qvliw
