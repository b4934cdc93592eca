// CPU baselines vs. the simulated GPU: the single-core reference miner (the
// GMiner-class tool the paper motivates against) and the multicore distrib
// backend (work-stealing single-scan shards, one per usable CPU), on a
// reduced database so the bench completes in seconds.
// The GPU side reports the *predicted device time* for the same workload at
// full paper scale, for context.
#include <iostream>

#include "bench_support/paper_setup.hpp"
#include "core/candidate_gen.hpp"
#include "core/cpu_backend.hpp"
#include "data/generators.hpp"
#include "service/backend_factory.hpp"

int main() {
  using gm::core::Alphabet;

  const Alphabet alphabet = Alphabet::english_uppercase();
  const std::int64_t host_db_size = 100'000;
  const auto db = gm::data::uniform_database(alphabet, host_db_size, 11);

  std::cout << "CPU baselines (100k-symbol database; level 2 = 650 episodes)\n\n";
  const auto episodes = gm::core::all_distinct_episodes(alphabet, 2);

  gm::core::CountRequest request;
  request.database = db;
  request.episodes = episodes;

  gm::core::SerialCpuBackend serial;
  const auto serial_result = serial.count(request);
  std::cout << serial.name() << ": " << serial_result.host_ms << " ms\n";

  const auto distrib = gm::service::make_backend({.name = "distrib"});
  const auto distrib_result = distrib->count(request);
  std::cout << distrib->name() << ": " << distrib_result.host_ms << " ms (speedup "
            << serial_result.host_ms / distrib_result.host_ms << "x)\n";

  if (serial_result.counts != distrib_result.counts) {
    std::cout << "ERROR: backend disagreement\n";
    return 1;
  }

  // Context: the simulated GTX 280 at full paper scale for the same level.
  const double scale = static_cast<double>(gm::data::kPaperDatabaseSize) / host_db_size;
  const double serial_full_est = serial_result.host_ms * scale;
  const double gpu_ms = gm::bench::paper_time_ms(gpusim::geforce_gtx_280(),
                                                 gm::kernels::Algorithm::kBlockTexture, 2, 64);
  std::cout << "\nAt full paper scale (393,019 symbols):\n";
  std::cout << "  serial CPU (extrapolated): ~" << serial_full_est << " ms\n";
  std::cout << "  simulated GTX280, best L2 config (Algo3 @64tpb): " << gpu_ms << " ms\n";
  std::cout << "  modelled GPU speedup over one 2008-class CPU core: ~"
            << serial_full_est / gpu_ms << "x (host CPU here is not the paper's E4500)\n";
  return 0;
}
