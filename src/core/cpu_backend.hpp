// CPU counting backends: the serial single-core reference (the GMiner-class
// baseline the paper motivates against) and the indexed single-scan engine:
//
//   backend            per-level cost
//   cpu-serial         O(|DB| * |eps|)
//   cpu-single-scan    O(|DB| * (1 + |eps|/|alphabet|))
//
// cpu-single-scan replaces brute-force rescans with one pass driving all
// automata through a waiting-symbol bucket index.  The database-parallel axis
// belongs to distrib::DistribBackend ("distrib-xN"), which runs single-scan
// workers over a work-stealing chunk grid and stays exact under expiry.
#pragma once

#include <memory>
#include <string_view>

#include "core/counting.hpp"

namespace gm::core {

/// One automaton pass per episode on the calling thread.
class SerialCpuBackend final : public CountingBackend {
 public:
  [[nodiscard]] std::string name() const override { return "cpu-serial"; }
  [[nodiscard]] CountResult count(const CountRequest& request) override;
};

/// Single-threaded single-scan engine: one database pass drives all episode
/// automata via the waiting-symbol bucket index (core/multi_counter.hpp).
class SingleScanCpuBackend final : public CountingBackend {
 public:
  [[nodiscard]] std::string name() const override { return "cpu-single-scan"; }
  [[nodiscard]] CountResult count(const CountRequest& request) override;
};

/// The worker count a host pool sized with `threads` will actually use: 0
/// resolves to the hardware concurrency, and the result is never less than 1.
[[nodiscard]] int resolved_thread_count(int threads) noexcept;

/// Construct a CPU backend by name: "cpu-serial" or "cpu-single-scan"
/// (unprefixed aliases accepted).  Returns nullptr for unknown names so
/// callers can layer their own backends (e.g. the simulated GPU) on top of
/// the selection.
[[nodiscard]] std::unique_ptr<CountingBackend> make_cpu_backend(std::string_view name);

}  // namespace gm::core
