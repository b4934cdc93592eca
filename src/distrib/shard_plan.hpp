// Weighted database partition for the distribution layer.
//
// A ShardPlan splits the event stream into a shards x steal_granularity chunk
// grid: shard s owns the contiguous run of chunks [s*g, (s+1)*g), and the
// scheduler (scheduler.hpp) lets finished workers steal chunks from loaded
// ones.  Cut points are weighted by estimated per-position drain work — a
// position whose symbol appears in many candidate episodes advances more
// waiting automata — so drain-heavy regions get shorter chunks and shards
// start out balanced even on skewed streams.  The estimate is first-order
// (i.i.d. positions, no automaton state); work stealing absorbs what it
// misses, and the skew tests assert exactly that.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/episode.hpp"

namespace gm::distrib {

struct ShardPlanOptions {
  int shards = 2;
  int steal_granularity = 4;  ///< stealable chunks per shard
};

struct ShardPlan {
  int shards = 1;
  int steal_granularity = 1;
  /// shards * steal_granularity + 1 non-decreasing entries covering the
  /// database; chunk k spans [chunk_bounds[k], chunk_bounds[k+1]).
  std::vector<std::int64_t> chunk_bounds;
  /// Estimated drain work per chunk, in weight units (telemetry only; the
  /// scheduler balances by chunk count, the planner by symbol share).
  std::vector<std::int64_t> chunk_weight;

  [[nodiscard]] int chunk_count() const noexcept {
    return static_cast<int>(chunk_bounds.size()) - 1;
  }
  [[nodiscard]] int home_shard(int chunk) const noexcept {
    return chunk / steal_granularity;
  }
};

/// Build the chunk grid for counting `episodes` over `database`: cuts
/// equalize estimated drain work per chunk.
[[nodiscard]] ShardPlan make_shard_plan(std::span<const core::Symbol> database,
                                        std::span<const core::Episode> episodes,
                                        const ShardPlanOptions& options = {});

}  // namespace gm::distrib
