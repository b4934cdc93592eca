// CPU counting backends: the serial single-core reference (the GMiner-class
// baseline the paper motivates against) and the indexed single-scan engine:
//
//   backend            per-level cost
//   cpu-serial         O(|DB| * |eps|)
//   cpu-single-scan    O(|DB| * (1 + |eps|/|alphabet|)), split by episode
//                      across the usable CPUs on large requests
//
// cpu-single-scan replaces brute-force rescans with one pass driving all
// automata through a waiting-symbol bucket index.  Every episode's automaton
// is independent, so a large request is cut into contiguous episode slices
// that worker threads count concurrently, each slice over the whole database:
// counts stay bit-exact with nothing to fold.  The database-parallel axis
// belongs to distrib::DistribBackend ("distrib-xN"), which runs single-scan
// workers over a work-stealing chunk grid and stays exact under expiry.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "core/counting.hpp"

namespace gm::core {

/// One automaton pass per episode on the calling thread.
class SerialCpuBackend final : public CountingBackend {
 public:
  [[nodiscard]] std::string name() const override { return "cpu-serial"; }
  [[nodiscard]] CountResult count(const CountRequest& request) override;
};

/// Single-scan engine: one database pass drives all episode automata via the
/// waiting-symbol bucket index (core/multi_counter.hpp).  Requests at or
/// above the split threshold (single_scan_split) run episode slices on every
/// usable CPU; smaller ones stay on the calling thread.  Every large request
/// starts its own threads: N sessions mining large levels at once run N
/// times usable_cpu_count() threads.
class SingleScanCpuBackend final : public CountingBackend {
 public:
  [[nodiscard]] std::string name() const override { return "cpu-single-scan"; }
  [[nodiscard]] CountResult count(const CountRequest& request) override;
};

/// CPUs this process can run threads on at once: the scheduler affinity
/// mask, capped by a cgroup CPU quota when one is set (a container limited
/// to 2 CPUs on a 64-core host reads 2).  Read once per process.
[[nodiscard]] int usable_cpu_count() noexcept;

/// The worker count a host pool sized with `threads` will actually use: 0
/// resolves to usable_cpu_count(), and the result is never less than 1.
[[nodiscard]] int resolved_thread_count(int threads) noexcept;

/// How cpu-single-scan counts one request: `workers` threads, the caller
/// among them, claim `workers * slices_per_worker` contiguous episode slices
/// through one cursor.
struct SingleScanSplit {
  int workers = 1;
  int slices_per_worker = 1;
};

/// The split cpu-single-scan runs a request of this shape with on a host
/// with `threads` usable CPUs: one worker below 2^27 episode-events or below
/// two episodes per thread; otherwise every thread, with one slice per
/// ~1,024 episodes (1 to 4 per worker).  Each slice pays a database pass, so
/// few-episode requests, whose passes are mostly bucket probes, pay it once
/// per worker; on 4 CPUs the paper's 17,576-candidate level gets 4 slices
/// per worker, which keeps each slice's arena small and balances the tail.
/// The backend passes usable_cpu_count(); the planner's cost curve passes
/// the threads it prices, so the prediction follows the engine.
[[nodiscard]] SingleScanSplit single_scan_split(std::int64_t episode_count,
                                                std::int64_t event_count,
                                                int threads) noexcept;

/// cpu-single-scan's counting under an explicit split (the backend passes
/// single_scan_split's); exposed so tests can force the split on small
/// inputs.  Episodes are validated on the calling thread, and a worker's
/// exception is rethrown here after every worker has joined.
[[nodiscard]] std::vector<std::int64_t> count_single_scan_split(const CountRequest& request,
                                                                SingleScanSplit split);

/// Construct a CPU backend by name: "cpu-serial" or "cpu-single-scan"
/// (unprefixed aliases accepted).  Returns nullptr for unknown names so
/// callers can layer their own backends (e.g. the simulated GPU) on top of
/// the selection.
[[nodiscard]] std::unique_ptr<CountingBackend> make_cpu_backend(std::string_view name);

}  // namespace gm::core
