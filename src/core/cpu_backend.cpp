#include "core/cpu_backend.hpp"

#include <chrono>
#include <thread>

#include "core/multi_counter.hpp"
#include "core/serial_counter.hpp"

namespace gm::core {
namespace {

using Clock = std::chrono::steady_clock;

double elapsed_ms(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

}  // namespace

int resolved_thread_count(int threads) noexcept {
  if (threads <= 0) threads = static_cast<int>(std::thread::hardware_concurrency());
  return threads > 0 ? threads : 1;
}

CountResult SerialCpuBackend::count(const CountRequest& request) {
  const auto start = Clock::now();
  CountResult result;
  result.counts = count_all(request.episodes, request.database, request.semantics,
                            request.expiry);
  result.host_ms = elapsed_ms(start);
  return result;
}

CountResult SingleScanCpuBackend::count(const CountRequest& request) {
  const auto start = Clock::now();
  CountResult result;
  result.counts = count_all_single_scan(request.episodes, request.database, request.semantics,
                                        request.expiry);
  result.host_ms = elapsed_ms(start);
  return result;
}

std::unique_ptr<CountingBackend> make_cpu_backend(std::string_view name) {
  auto matches = [&](std::string_view canonical) {
    return name == canonical || name == canonical.substr(4);
  };
  if (matches("cpu-serial")) return std::make_unique<SerialCpuBackend>();
  if (matches("cpu-single-scan")) return std::make_unique<SingleScanCpuBackend>();
  return nullptr;
}

}  // namespace gm::core
