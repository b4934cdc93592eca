#include "core/cpu_backend.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <fstream>
#include <limits>
#include <string>
#include <thread>

#if defined(__linux__)
#include <sched.h>
#endif

#include "common/error.hpp"
#include "core/multi_counter.hpp"
#include "core/parallel_tasks.hpp"
#include "core/serial_counter.hpp"

namespace gm::core {
namespace {

using Clock = std::chrono::steady_clock;

/// Smallest request (episodes x events) cpu-single-scan splits: below it the
/// thread spawn and the extra database passes outweigh what the split saves.
constexpr double kSplitEpisodeEvents = 134'217'728.0;  // 2^27

/// Episodes per slice the split aims for (see single_scan_split).
constexpr double kSliceEpisodes = 1024.0;
constexpr int kMaxSlicesPerWorker = 4;

double elapsed_ms(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

#if defined(__linux__)
/// Whitespace-separated words of a small system file; empty when unreadable.
std::vector<std::string> read_words(const char* path) noexcept {
  try {
    std::ifstream in(path);
    std::vector<std::string> words;
    for (std::string w; in >> w;) words.push_back(w);
    return words;
  } catch (...) {
    return {};
  }
}

/// CPUs a "<quota> <period>" CFS bandwidth limit allows, rounded up; no
/// limit ("max", a negative quota, or garbage) reads as unbounded.
int quota_cpus(const std::string& quota, const std::string& period) noexcept {
  long long q = 0;
  long long p = 0;
  const auto qr = std::from_chars(quota.data(), quota.data() + quota.size(), q);
  const auto pr = std::from_chars(period.data(), period.data() + period.size(), p);
  if (qr.ec != std::errc{} || pr.ec != std::errc{} || q <= 0 || p <= 0) {
    return std::numeric_limits<int>::max();
  }
  return static_cast<int>(std::min<long long>((q + p - 1) / p, std::numeric_limits<int>::max()));
}

/// The tightest cgroup v2 cpu.max on the path from the process's cgroup
/// ("0::<path>" in /proc/self/cgroup) up to the hierarchy root.
int cgroup_v2_cpus() noexcept {
  int cpus = std::numeric_limits<int>::max();
  try {
    std::ifstream in("/proc/self/cgroup");
    std::string path;
    for (std::string line; std::getline(in, line);) {
      if (line.starts_with("0::")) path = line.substr(3);
    }
    if (path.empty() || path.front() != '/') return cpus;
    for (;;) {
      const std::string dir = path == "/" ? "" : path;
      const auto limit = read_words(("/sys/fs/cgroup" + dir + "/cpu.max").c_str());
      if (limit.size() == 2) cpus = std::min(cpus, quota_cpus(limit[0], limit[1]));
      if (dir.empty()) break;
      path = path.substr(0, std::max<std::size_t>(path.rfind('/'), 1));
    }
  } catch (...) {
    // An unreadable hierarchy leaves the affinity count standing.
  }
  return cpus;
}
#endif

}  // namespace

int usable_cpu_count() noexcept {
  static const int cpus = [] {
    int n = static_cast<int>(std::thread::hardware_concurrency());
#if defined(__linux__)
    // The CPUs this process may be scheduled on, not every online one.
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) n = CPU_COUNT(&set);
    // A CFS bandwidth quota (a container's CPU limit) caps the threads that
    // can run at once.  cgroup v2 writes "<quota> <period>" or "max
    // <period>" into cpu.max at every level from the process's cgroup up;
    // cgroup v1 keeps quota and period in two files.
    n = std::min(n, cgroup_v2_cpus());
    const auto quota = read_words("/sys/fs/cgroup/cpu/cpu.cfs_quota_us");
    const auto period = read_words("/sys/fs/cgroup/cpu/cpu.cfs_period_us");
    if (quota.size() == 1 && period.size() == 1) {
      n = std::min(n, quota_cpus(quota[0], period[0]));
    }
#endif
    return std::max(n, 1);
  }();
  return cpus;
}

int resolved_thread_count(int threads) noexcept {
  return threads > 0 ? threads : usable_cpu_count();
}

CountResult SerialCpuBackend::count(const CountRequest& request) {
  const auto start = Clock::now();
  CountResult result;
  result.counts = count_all(request.episodes, request.database, request.semantics,
                            request.expiry);
  result.host_ms = elapsed_ms(start);
  return result;
}

SingleScanSplit single_scan_split(std::int64_t episode_count, std::int64_t event_count,
                                  int threads) noexcept {
  const int workers = std::max(threads, 1);
  if (episode_count < 2 * static_cast<std::int64_t>(workers)) return {};
  if (static_cast<double>(episode_count) * static_cast<double>(event_count) <
      kSplitEpisodeEvents) {
    return {};
  }
  // Each slice pays its own database pass, so a slice gets about
  // kSliceEpisodes episodes: few-episode requests, whose passes are mostly
  // probes, take one slice per worker and pay the pass once per worker.
  const auto per_worker = static_cast<double>(episode_count) /
                          (static_cast<double>(workers) * kSliceEpisodes);
  const auto slices = static_cast<int>(std::lround(per_worker));
  return {workers, std::clamp(slices, 1, kMaxSlicesPerWorker)};
}

std::vector<std::int64_t> count_single_scan_split(const CountRequest& request,
                                                  SingleScanSplit split) {
  gm::expects(split.workers >= 1 && split.slices_per_worker >= 1,
              "single-scan split needs at least one worker and one slice each");
  const std::span<const Episode> episodes = request.episodes;
  const std::size_t n = episodes.size();
  const std::size_t slices =
      std::min(n, static_cast<std::size_t>(split.workers) *
                      static_cast<std::size_t>(split.slices_per_worker));
  if (slices < 2) {
    return count_all_single_scan(episodes, request.database, request.semantics, request.expiry);
  }
  // Validate on the calling thread, so the common input error never has to
  // cross a thread boundary.
  for (const auto& e : episodes) gm::expects(!e.empty(), "cannot count an empty episode");

  // Contiguous slices; each runs the unchanged engine over the whole
  // database and writes its own range of `counts`.
  std::vector<std::int64_t> counts(n, 0);
  for_each_task(split.workers, slices, [&](std::size_t s) {
    const std::size_t lo = n * s / slices;
    const std::size_t hi = n * (s + 1) / slices;
    const std::vector<std::int64_t> part = count_all_single_scan(
        episodes.subspan(lo, hi - lo), request.database, request.semantics, request.expiry);
    std::copy(part.begin(), part.end(), counts.begin() + static_cast<std::ptrdiff_t>(lo));
  });
  return counts;
}

CountResult SingleScanCpuBackend::count(const CountRequest& request) {
  const auto start = Clock::now();
  CountResult result;
  result.counts = count_single_scan_split(
      request, single_scan_split(static_cast<std::int64_t>(request.episodes.size()),
                                 static_cast<std::int64_t>(request.database.size()),
                                 usable_cpu_count()));
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
