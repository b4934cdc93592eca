#include "distrib/shard_plan.hpp"

#include <array>

#include "common/error.hpp"

namespace gm::distrib {

ShardPlan make_shard_plan(std::span<const core::Symbol> database,
                          std::span<const core::Episode> episodes,
                          const ShardPlanOptions& options) {
  gm::expects(options.shards >= 1, "need at least one shard");
  gm::expects(options.steal_granularity >= 1, "need at least one chunk per shard");

  ShardPlan plan;
  plan.shards = options.shards;
  plan.steal_granularity = options.steal_granularity;
  const int chunks = options.shards * options.steal_granularity;
  const auto size = static_cast<std::int64_t>(database.size());

  // Estimated drain work of one stream position carrying symbol `s`: the base
  // scan charge plus one unit per candidate occurrence of the symbol (every
  // automaton parked on `s` advances when it arrives).
  std::array<std::int64_t, 256> weight;
  weight.fill(1);
  for (const auto& e : episodes) {
    for (const core::Symbol s : e.symbols()) ++weight[s];
  }
  std::array<std::int64_t, 256> histogram{};
  for (const core::Symbol s : database) ++histogram[s];
  std::int64_t total = 0;
  for (std::size_t s = 0; s < weight.size(); ++s) total += histogram[s] * weight[s];

  // Cut k lands after the first position whose running weight reaches
  // total * k / chunks, i.e. q*k + ceil(r*k / chunks) with total = q*chunks + r
  // (split so the product cannot overflow).
  const std::int64_t q = total / chunks;
  const std::int64_t r = total % chunks;
  const auto target = [&](std::int64_t k) { return q * k + (r * k + chunks - 1) / chunks; };

  plan.chunk_bounds.reserve(static_cast<std::size_t>(chunks) + 1);
  plan.chunk_weight.reserve(static_cast<std::size_t>(chunks));
  plan.chunk_bounds.push_back(0);
  std::int64_t running = 0;
  std::int64_t chunk_start_weight = 0;
  int cut = 1;
  std::int64_t next = target(cut);
  for (std::int64_t i = 0; i < size && cut < chunks; ++i) {
    running += weight[database[static_cast<std::size_t>(i)]];
    // A single heavy position can pass several targets at once; the extra
    // cuts land here too, leaving empty chunks the scheduler skips cheaply.
    while (cut < chunks && running >= next) {
      plan.chunk_bounds.push_back(i + 1);
      plan.chunk_weight.push_back(running - chunk_start_weight);
      chunk_start_weight = running;
      next = target(++cut);
    }
  }
  // The last chunk takes the remainder (and an empty database yields empty
  // chunks throughout).
  while (static_cast<int>(plan.chunk_bounds.size()) < chunks + 1) {
    plan.chunk_bounds.push_back(size);
    plan.chunk_weight.push_back(total - chunk_start_weight);
    chunk_start_weight = total;
  }
  gm::ensure(plan.chunk_bounds.size() == static_cast<std::size_t>(chunks) + 1 &&
                 plan.chunk_bounds.back() == size,
             "shard plan must cover the database");
  return plan;
}

}  // namespace gm::distrib
