#include "planner/auto_backend.hpp"

#include <utility>

#include "common/error.hpp"
#include "planner/workload.hpp"

namespace gm::planner {

AutoBackend::AutoBackend(PlannerOptions options) : options_(std::move(options)) {}

std::string AutoBackend::name() const {
  return "auto(" + (options_.enable_gpu ? options_.device.name : std::string("host")) + ")";
}

int AutoBackend::max_level() const {
  return options_.enable_cpu ? 0 : kernels::kMaxLevel;
}

core::CountResult AutoBackend::count(const core::CountRequest& request) {
  gm::expects(!request.episodes.empty(), "count request carries no episodes");

  // Measuring the database statistics costs one O(|DB|) pass per level —
  // noise next to the counting work it steers (>= O(|DB| * |eps|)), and
  // recomputing beats caching by span identity, which a freed-and-reused
  // allocation would silently satisfy for a different stream.
  const Workload workload = workload_of(request);

  Plan plan = plan_level(workload, options_);
  const std::string key = plan.winner().config.label();
  const double predicted_ms = plan.winner().predicted_ms;
  const bool is_gpu = plan.winner().config.kind == BackendKind::kGpuSim;
  auto [it, inserted] = backends_.try_emplace(key, nullptr);
  if (inserted) it->second = make_planned_backend(plan.winner().config, options_);
  plans_.push_back(std::move(plan));
  core::CountResult result = it->second->count(request);

  // Online feedback: fold measured/predicted into the winner's bias with
  // recency weighting.  predicted_ms already carries the current bias, so
  // divide it back out to compare against the raw model value — otherwise a
  // stable 2x model error would compound to 4x, 8x, ... instead of settling
  // at a 2x multiplier.
  const double measured_ms = is_gpu ? result.simulated_kernel_ms : result.host_ms;
  // Same precedence plan_level applies: label match, then kind name.
  auto prior_it = options_.measured_bias.find(key);
  if (prior_it == options_.measured_bias.end()) {
    prior_it = options_.measured_bias.find(
        std::string(backend_kind_name(plans_.back().winner().config.kind)));
  }
  const double prior = prior_it == options_.measured_bias.end() ? 1.0 : prior_it->second;
  options_.measured_bias[key] = folded_bias(prior, predicted_ms / prior, measured_ms);
  return result;
}

double AutoBackend::folded_bias(double prior, double raw_predicted_ms, double measured_ms) {
  const double observed =
      (measured_ms + kFeedbackFloorMs) / (raw_predicted_ms + kFeedbackFloorMs);
  return (1.0 - kFeedbackBlend) * prior + kFeedbackBlend * observed;
}

}  // namespace gm::planner
