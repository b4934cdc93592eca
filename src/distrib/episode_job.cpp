#include "distrib/episode_job.hpp"

#include <vector>

#include "common/error.hpp"
#include "core/cpu_backend.hpp"
#include "core/parallel_tasks.hpp"
#include "core/segment_counter.hpp"
#include "core/serial_counter.hpp"

namespace gm::distrib {

std::vector<std::int64_t> count_episodes_thread_level(
    std::span<const core::Symbol> database, std::span<const core::Episode> episodes,
    const EpisodeCountOptions& options) {
  for (const auto& e : episodes) gm::expects(!e.empty(), "cannot count an empty episode");
  std::vector<std::int64_t> counts(episodes.size(), 0);
  const int workers = core::resolved_thread_count(options.threads);
  core::for_each_task(workers, episodes.size(), [&](std::size_t e) {
    counts[e] = core::count_occurrences(episodes[e], database, options.semantics,
                                        options.expiry);
  });
  return counts;
}

std::vector<std::int64_t> count_episodes_block_level(
    std::span<const core::Symbol> database, std::span<const core::Episode> episodes,
    const EpisodeCountOptions& options) {
  gm::expects(options.chunks >= 1, "need at least one chunk");
  for (const auto& e : episodes) gm::expects(!e.empty(), "cannot count an empty episode");
  std::vector<std::int64_t> counts(episodes.size(), 0);
  if (episodes.empty() || database.empty()) return counts;

  const auto bounds =
      core::chunk_boundaries(static_cast<std::int64_t>(database.size()), options.chunks);
  const auto chunk_count = static_cast<std::size_t>(options.chunks);

  // Map: one cold scan per (episode, chunk), claimed off a shared counter.
  std::vector<core::SegmentOutcome> cold(episodes.size() * chunk_count);
  const int workers = core::resolved_thread_count(options.threads);
  core::for_each_task(workers, cold.size(), [&](std::size_t task) {
    const std::size_t e = task / chunk_count;
    const std::size_t c = task % chunk_count;
    cold[task] = core::scan_segment(episodes[e].symbols(), options.semantics, options.expiry,
                                    database, bounds[c], bounds[c + 1], 0, 0);
  });

  // Reduce: fold each episode's outcomes in chunk order (exact; see
  // core::fold_cold_scans).
  for (std::size_t e = 0; e < episodes.size(); ++e) {
    counts[e] = core::fold_cold_scans(
        episodes[e].symbols(), options.semantics, options.expiry, database, bounds,
        std::span<const core::SegmentOutcome>(cold).subspan(e * chunk_count, chunk_count));
  }
  return counts;
}

}  // namespace gm::distrib
