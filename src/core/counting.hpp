// Counting backend interface: the paper's "counting step" (the expensive map
// phase of Algorithm 1) behind a uniform API so the miner can run on the
// serial CPU, the single-scan engine (split by episode across host threads
// on large requests), the database-sharded distrib backend, or any of the
// five simulated-GPU algorithms interchangeably.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/automaton.hpp"
#include "core/episode.hpp"

namespace gm::core {

struct CountRequest {
  std::span<const Symbol> database;
  /// Views the caller's episode list (no per-level deep copy); the caller
  /// keeps it alive for the duration of count().  Beware: a span binds to an
  /// rvalue vector without warning — never assign a temporary (e.g. a direct
  /// all_distinct_episodes() result) or count() reads freed memory.
  std::span<const Episode> episodes;
  Semantics semantics = Semantics::kNonOverlappedSubsequence;
  ExpiryPolicy expiry = {};
};

struct CountResult {
  /// counts[i] = occurrences of episodes[i].
  std::vector<std::int64_t> counts;
  /// Wall-clock of the backend itself, in milliseconds (host work).
  double host_ms = 0.0;
  /// For simulated-GPU backends: the predicted device kernel time from the
  /// cost model; 0 for CPU backends.
  double simulated_kernel_ms = 0.0;
};

class CountingBackend {
 public:
  virtual ~CountingBackend() = default;

  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual CountResult count(const CountRequest& request) = 0;

  /// Largest episode level this backend can count, or 0 for unbounded.  The
  /// miner checks this before issuing a request so a capped backend (the GPU
  /// kernels' frame-register episode staging stops at kernels::kMaxLevel)
  /// surfaces a reportable gm::Error instead of failing mid-launch.
  [[nodiscard]] virtual int max_level() const { return 0; }
};

}  // namespace gm::core
