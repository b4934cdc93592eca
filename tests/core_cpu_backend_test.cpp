// CPU counting backend tests: randomized bit-exact agreement of the
// single-scan backend with the serial reference, empty inputs, and the
// by-name factory.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "core/cpu_backend.hpp"
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
