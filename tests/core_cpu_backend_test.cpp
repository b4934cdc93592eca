// CPU counting backend tests: randomized bit-exact agreement of the
// single-scan backend (and its episode split, forced on small inputs) with
// the serial reference, the split threshold, the shared task loop's error
// path, empty inputs, and the by-name factory.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/cpu_backend.hpp"
#include "core/parallel_tasks.hpp"
#include "data/generators.hpp"
#include "random_episode_util.hpp"

namespace gm::core {
namespace {

using test::random_episodes;

TEST(SingleScanCpuBackend, AgreesWithSerialBackend) {
  Rng rng(4242);
  const Alphabet alphabet(14);
  const auto db = data::uniform_database(alphabet, 5000, 3);
  const auto episodes = random_episodes(rng, 14, 50, 3);
  CountRequest request;
  request.database = db;
  request.episodes = episodes;
  request.expiry = ExpiryPolicy{6};
  SerialCpuBackend serial;
  SingleScanCpuBackend single_scan;
  EXPECT_EQ(single_scan.count(request).counts, serial.count(request).counts);
}

TEST(SingleScanSplit, ThreeWorkersMatchSerialBitForBit) {
  // 3 workers cut 12 slices: 50 episodes leave uneven slices, 7 fewer
  // episodes than slices, and 1 leaves nothing to split.
  Rng rng(2027);
  const Alphabet alphabet(9);
  const auto db = data::uniform_database(alphabet, 3000, 11);
  SerialCpuBackend serial;
  for (const Semantics semantics :
       {Semantics::kNonOverlappedSubsequence, Semantics::kContiguousRestart}) {
    for (const ExpiryPolicy expiry : {ExpiryPolicy{}, ExpiryPolicy{5}}) {
      for (const int count : {50, 7, 1}) {
        const auto episodes = random_episodes(rng, 9, count, 4);
        CountRequest request;
        request.database = db;
        request.episodes = episodes;
        request.semantics = semantics;
        request.expiry = expiry;
        EXPECT_EQ(count_single_scan_split(request, SingleScanSplit{3, 4}),
                  serial.count(request).counts)
            << to_string(semantics) << " window " << expiry.window << " episodes " << count;
      }
    }
  }
}

TEST(SingleScanSplit, EmptyEpisodeRaisesOnTheCaller) {
  const Sequence db = {0, 1, 2, 0, 1, 2};
  std::vector<Episode> episodes(8, Episode(std::vector<Symbol>{0, 1}));
  episodes[5] = Episode();
  CountRequest request;
  request.database = db;
  request.episodes = episodes;
  EXPECT_THROW((void)count_single_scan_split(request, SingleScanSplit{3, 4}), gm::Error);
}

TEST(SingleScanSplit, WorkerExceptionReachesTheCaller) {
  // A task that throws on a worker thread must surface on the caller after
  // the join, not terminate the process; the other tasks stop claiming.
  std::atomic<int> ran{0};
  EXPECT_THROW(for_each_task(3, 64,
                             [&](std::size_t t) {
                               ran.fetch_add(1);
                               if (t == 5) gm::raise_precondition("task 5 fails");
                             }),
               gm::PreconditionError);
  EXPECT_GE(ran.load(), 6);
  EXPECT_LE(ran.load(), 64);
  // Every task runs exactly once when none throws.
  std::vector<int> hits(100, 0);
  for_each_task(3, hits.size(), [&](std::size_t t) { ++hits[t]; });
  EXPECT_EQ(hits, std::vector<int>(100, 1));
}

TEST(SingleScanSplit, ThresholdKeepsServiceTrafficOnOneThread) {
  // The host's thread count is an input, so the pins hold on any machine.
  for (const int threads : {2, 4, 8, 16, 64}) {
    // The largest service requests: a 128-episode count, a batched pair of
    // them, and a level-2 mine, each over a 100,000-event database.
    for (const std::int64_t episodes : {128, 256, 676}) {
      EXPECT_EQ(single_scan_split(episodes, 100'000, threads).workers, 1) << episodes;
    }
    EXPECT_EQ(single_scan_split(2 * threads - 1, 1'000'000'000, threads).workers, 1);
    // The paper's level 3: 17,576 candidates over 393,019 events.
    EXPECT_EQ(single_scan_split(17'576, 393'019, threads).workers, threads) << threads;
    // Few episodes over a long stream (64 x 2.1M events): each slice's pass
    // is mostly bucket probes, so every worker pays it once.
    const SingleScanSplit few = single_scan_split(64, 2'100'000, threads);
    EXPECT_EQ(few.slices_per_worker, 1) << threads;
  }
  EXPECT_EQ(single_scan_split(17'576, 393'019, 1).workers, 1);
  // The backend's own input: the paper level runs on every usable CPU.
  EXPECT_EQ(single_scan_split(17'576, 393'019, usable_cpu_count()).workers,
            resolved_thread_count(0));
  EXPECT_EQ(single_scan_split(17'576, 393'019, 4).slices_per_worker, 4);
  EXPECT_EQ(single_scan_split(17'576, 393'019, 16).slices_per_worker, 1);
}

TEST(SingleScanSplit, UsableCpusBoundTheDefaultPool) {
  const int cpus = usable_cpu_count();
  EXPECT_GE(cpus, 1);
  const auto online = static_cast<int>(std::thread::hardware_concurrency());
  if (online > 0) {
    EXPECT_LE(cpus, online);
  }
  EXPECT_EQ(resolved_thread_count(0), cpus);
  EXPECT_EQ(resolved_thread_count(3), 3);
}

TEST(CpuBackends, EmptyEpisodeListYieldsEmptyCounts) {
  const Sequence db = {0, 1, 2};
  CountRequest request;
  request.database = db;
  SerialCpuBackend serial;
  SingleScanCpuBackend single_scan;
  EXPECT_TRUE(serial.count(request).counts.empty());
  EXPECT_TRUE(single_scan.count(request).counts.empty());
}

TEST(MakeCpuBackend, ResolvesNamesAndAliases) {
  EXPECT_EQ(make_cpu_backend("cpu-serial")->name(), "cpu-serial");
  EXPECT_EQ(make_cpu_backend("serial")->name(), "cpu-serial");
  EXPECT_EQ(make_cpu_backend("single-scan")->name(), "cpu-single-scan");
  EXPECT_EQ(make_cpu_backend("gpusim"), nullptr);
  EXPECT_EQ(make_cpu_backend("nope"), nullptr);
  for (const auto removed : {"cpu-parallel", "cpu-sharded", "cpu-trie-scan", "trie-scan"}) {
    EXPECT_EQ(make_cpu_backend(removed), nullptr) << removed;
  }
}

}  // namespace
}  // namespace gm::core
