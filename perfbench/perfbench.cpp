// perfbench — the repository benchmark: host wall-clock a caller waits for,
// end to end, plus an outside-in per-layer trace.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--tiny] [--inject-fault]
//
// Workloads (see perfbench/README.md for why each exists):
//   paper_mine       cold MiningSession::mine, cpu-single-scan, paper shape
//   paper_mine_auto  the same request on a SessionOptions{} (auto) session
//   service_mix      4 closed-loop clients against a 2-worker MiningService
//   stream_alert     one writer appending 1,024-event batches to a session
//                    with four registered StreamingMonitors
//
// Every input is generated from --seed; the program only sees the generated
// inputs.  --trace 0 times the workload untraced and reports the end-to-end
// metrics; --trace 1 runs it once untraced and once with spans recorded
// around the calls into each layer (a timing decorator on the counting
// backend, a LevelObserver on a mine_frequent_episodes pass, direct
// planner::plan_level calls, response Timing + cache/service stats, and
// standalone StreamingMonitors fed the same batches) and reports the
// per-layer metrics.  Layer metrics a workload never exercises read 0.
//
// Every run checks its outputs against the serial oracle (core::count_all)
// or a from-scratch recount; each failed check, rejected request or thrown
// operation counts in `failed`.  --inject-fault corrupts one checked value so
// the self-test can show the checks fail.  --tiny shrinks every input for the
// self-test.  Output: one "name value unit" line per metric, then one JSON
// object as the last line.
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <exception>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/cpu_backend.hpp"
#include "core/miner.hpp"
#include "core/scan_checkpoint.hpp"
#include "core/serial_counter.hpp"
#include "data/generators.hpp"
#include "planner/auto_backend.hpp"
#include "planner/planner.hpp"
#include "service/backend_factory.hpp"
#include "service/service.hpp"
#include "service/session.hpp"

namespace {

using namespace gm;
using Clock = std::chrono::steady_clock;

constexpr int kAlphabet = 26;

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

double ms_since(Clock::time_point from) { return ms_between(from, Clock::now()); }

Clock::time_point after_seconds(Clock::time_point from, double seconds) {
  return from + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
}

/// Linear-interpolated quantile (q in [0,1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// ---------------------------------------------------------------------------
// Arguments
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  bool inject_fault = false;
};

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload <paper_mine|paper_mine_auto|service_mix|"
               "stream_alert>\n"
               "                 --seed <n> --seconds <s> --trace <0|1> [--tiny] "
               "[--inject-fault]\n",
               message.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage_error(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") args.workload = value();
      else if (arg == "--seed") args.seed = std::stoull(value());
      else if (arg == "--seconds") args.seconds = std::stod(value());
      else if (arg == "--trace") args.trace = std::stoi(value()) != 0;
      else if (arg == "--tiny") args.tiny = true;
      else if (arg == "--inject-fault") args.inject_fault = true;
      else usage_error("unknown argument " + arg);
    } catch (const std::logic_error&) {
      usage_error("bad value for " + arg);
    }
  }
  if (!(args.seconds > 0.0)) usage_error("--seconds must be positive");
  return args;
}

// ---------------------------------------------------------------------------
// Report: named metric lines, failure accounting, and the final JSON line
// ---------------------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

// Mirrors BENCHMARK.json: --trace 0 emits exactly these...
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"latency_p50_ms", "ms"},
    {"latency_tail_ms", "ms"},
    {"throughput_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
};

// ...and --trace 1 exactly these.
constexpr MetricDef kPerLayer[] = {
    {"core.candidate_gen.L2_ms", "ms"},
    {"core.candidate_gen.L3_ms", "ms"},
    {"core.candidate_gen.past_cap_ms", "ms"},
    {"core.counting.L1_ms", "ms"},
    {"core.counting.L2_ms", "ms"},
    {"core.counting.L3_ms", "ms"},
    {"core.counting.L3_episode_events_per_s", "1/s"},
    {"core.eliminate_ms", "ms"},
    {"planner.plan_ms", "ms"},
    {"planner.predicted_ms", "ms"},
    {"planner.measured_over_predicted", "ratio"},
    {"planner.count_measured_over_predicted_p50", "ratio"},
    {"planner.count_measured_over_predicted_p99", "ratio"},
    {"kernels.host_sim_ms", "ms"},
    {"kernels.simulated_device_ms", "ms"},
    {"service.queue_ms_p50", "ms"},
    {"service.queue_ms_p99", "ms"},
    {"service.miss_service_ms_p50", "ms"},
    {"service.hit_ms_p50", "ms"},
    {"service.cache.count_hit_ratio", "ratio"},
    {"service.cache.mine_hit_ratio", "ratio"},
    {"service.batch.requests_per_call", "count"},
    {"service.batch.batched_frac", "ratio"},
    {"service.streaming_monitor.advance_ms_p50", "ms"},
    {"service.session.append_upkeep_ms_p50", "ms"},
    {"service.session.register_ms", "ms"},
    {"service.streaming_monitor.alerts", "count"},
    {"trace.overhead_frac", "ratio"},
};

class Report {
 public:
  explicit Report(bool trace) : trace_(trace) {
    if (trace_) {
      for (const MetricDef& def : kPerLayer) metrics_[def.name] = 0.0;
    }
  }

  /// A workload's own metric (the issue-level names: mine_s, count_p50_ms,
  /// ...), printed by name with its unit.
  void named(std::string_view name, double value, std::string_view unit) const {
    std::printf("%.*s %.17g %.*s\n", static_cast<int>(name.size()), name.data(), value,
                static_cast<int>(unit.size()), unit.data());
  }

  /// A metric of the JSON result (end-to-end or per-layer, per the mode).
  void metric(const std::string& name, double value) { metrics_[name] = value; }

  void attempted(std::int64_t n = 1) { attempted_ += n; }

  /// One operation or check failed: counted in `failed`, explained on stderr.
  void fail(const std::string& what) {
    ++failed_;
    std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
  }

  void check(bool ok, const std::string& what) {
    if (!ok) fail(what);
  }

  /// Print fail_frac and the JSON result line; returns the exit code.
  int finish() {
    if (attempted_ < 1) attempted_ = 1;
    named("fail_frac", static_cast<double>(failed_) / static_cast<double>(attempted_),
          "ratio");
    std::string json = "{\"correct\": ";
    json += failed_ == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted_);
    json += ", \"failed\": " + std::to_string(failed_) + ", \"metrics\": {";
    bool first = true;
    bool complete = true;
    const auto emit = [&](const MetricDef& def) {
      const auto it = metrics_.find(def.name);
      if (it == metrics_.end()) {
        std::fprintf(stderr, "perfbench: metric %s was not measured\n", def.name);
        complete = false;
        return;
      }
      char value[64];
      std::snprintf(value, sizeof value, "%.17g", it->second);
      json += std::string(first ? "" : ", ") + "\"" + def.name + "\": {\"value\": " + value +
              ", \"unit\": \"" + def.unit + "\"}";
      first = false;
    };
    if (trace_) {
      for (const MetricDef& def : kPerLayer) emit(def);
    } else {
      for (const MetricDef& def : kEndToEnd) emit(def);
    }
    json += "}}";
    if (!complete) return 1;
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return 0;
  }

 private:
  bool trace_;
  std::map<std::string, double> metrics_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

/// Corrupts exactly one checked value when --inject-fault is set, so the
/// self-test can prove every workload's check is able to fail.
class FaultInjector {
 public:
  explicit FaultInjector(bool armed) : armed_(armed) {}
  std::int64_t operator()(std::int64_t value) {
    if (!armed_) return value;
    armed_ = false;
    return value + 1;
  }

 private:
  bool armed_;
};

// ---------------------------------------------------------------------------
// Outside-in tracing helpers
// ---------------------------------------------------------------------------

/// Timing decorator around a CountingBackend: one span per count() call.
class TimedBackend final : public core::CountingBackend {
 public:
  struct Span {
    int level = 0;
    Clock::time_point start;
    Clock::time_point end;
    double simulated_ms = 0.0;

    [[nodiscard]] double ms() const { return ms_between(start, end); }
  };

  explicit TimedBackend(core::CountingBackend& inner) : inner_(inner) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] int max_level() const override { return inner_.max_level(); }
  [[nodiscard]] core::CountResult count(const core::CountRequest& request) override {
    const auto start = Clock::now();
    core::CountResult result = inner_.count(request);
    spans_.push_back({request.episodes.empty() ? 0 : request.episodes.front().level(), start,
                      Clock::now(), result.simulated_kernel_ms});
    return result;
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  core::CountingBackend& inner_;
  std::vector<Span> spans_;
};

/// Marks when each level's candidates are ready (generation done) and when
/// its elimination is done.
class LevelTimer final : public core::LevelObserver {
 public:
  bool on_level_start(int /*level*/, std::span<const core::Episode> /*candidates*/) override {
    starts.push_back(Clock::now());
    return true;
  }
  void on_level_done(const core::LevelReport& /*report*/) override {
    dones.push_back(Clock::now());
  }

  std::vector<Clock::time_point> starts;
  std::vector<Clock::time_point> dones;
};

// ---------------------------------------------------------------------------
// Inputs and result identity
// ---------------------------------------------------------------------------

data::Dataset uniform_dataset(std::int64_t size, std::uint64_t seed) {
  const core::Alphabet alphabet(kAlphabet);
  return {alphabet, data::uniform_database(alphabet, size, seed)};
}

std::vector<core::Episode> random_episodes(Rng& rng, std::size_t count, int level) {
  std::vector<core::Episode> episodes;
  episodes.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    std::vector<core::Symbol> symbols(static_cast<std::size_t>(level));
    for (auto& s : symbols) s = static_cast<core::Symbol>(rng.below(kAlphabet));
    episodes.emplace_back(std::move(symbols));
  }
  return episodes;
}

std::uint64_t result_digest(const core::MiningResult& result) {
  service::Digest digest;
  for (const core::FrequentEpisode& f : result.frequent) {
    digest.mix(f.episode).mix(f.count).mix(f.support);
  }
  for (const core::LevelReport& level : result.levels) {
    digest.mix(level.level).mix(level.candidates).mix(level.frequent);
  }
  return digest.value();
}

/// Oracle check of a mining result: the level shape is A, A^2, A^3 (every
/// candidate of the uniform paper shape is frequent) and a seeded sample of
/// each level's counted episodes matches core::count_all.
void check_mining_result(const core::MiningResult& result, std::span<const core::Symbol> db,
                         const core::MinerConfig& config, int levels, std::uint64_t seed,
                         FaultInjector& inject, Report& report, const std::string& what) {
  report.check(static_cast<int>(result.levels.size()) == levels,
               what + ": expected " + std::to_string(levels) + " levels, got " +
                   std::to_string(result.levels.size()));
  std::int64_t expected = 1;
  for (const core::LevelReport& level : result.levels) {
    expected *= kAlphabet;
    report.check(level.candidates == expected,
                 what + ": level " + std::to_string(level.level) + " has " +
                     std::to_string(level.candidates) + " candidates, expected " +
                     std::to_string(expected));
  }
  Rng rng(seed);
  for (int level = 1; level <= levels; ++level) {
    std::vector<const core::FrequentEpisode*> pool;
    for (const core::FrequentEpisode& f : result.frequent) {
      if (f.episode.level() == level) pool.push_back(&f);
    }
    if (pool.empty()) continue;
    std::vector<core::Episode> sample;
    std::vector<std::int64_t> claimed;
    for (int i = 0; i < 16; ++i) {
      const core::FrequentEpisode* f = pool[rng.below(pool.size())];
      sample.push_back(f->episode);
      claimed.push_back(inject(f->count));
    }
    const auto truth = core::count_all(sample, db, config.semantics, config.expiry);
    for (std::size_t i = 0; i < sample.size(); ++i) {
      report.check(truth[i] == claimed[i],
                   what + ": level-" + std::to_string(level) + " count " +
                       std::to_string(claimed[i]) + " != serial oracle " +
                       std::to_string(truth[i]));
    }
  }
}

// ---------------------------------------------------------------------------
// paper_mine / paper_mine_auto
// ---------------------------------------------------------------------------

struct PaperWorkload {
  data::Dataset dataset;
  service::SessionOptions options;
  service::MineRequest request;
};

PaperWorkload paper_workload(const Args& args, bool auto_backend) {
  PaperWorkload w;
  w.dataset = uniform_dataset(args.tiny ? 20'000 : data::kPaperDatabaseSize, args.seed);
  if (!auto_backend) w.options.backend = {.name = "cpu-single-scan"};
  w.request.config.support_threshold = 0.001;
  w.request.config.max_level = 3;
  w.request.client = "perfbench";
  return w;
}

std::unique_ptr<service::MiningSession> timed_session(const PaperWorkload& w,
                                                      std::vector<double>& setup_s) {
  data::Dataset copy = w.dataset;  // input preparation, outside the timed region
  const auto start = Clock::now();
  auto session = std::make_unique<service::MiningSession>(std::move(copy), w.options);
  setup_s.push_back(ms_since(start) / 1000.0);
  return session;
}

/// One cold mine on a fresh session; returns its wall in ms.
double cold_mine(const PaperWorkload& w, std::vector<double>& setup_s,
                 service::MineResponse& response, Report& report) {
  auto session = timed_session(w, setup_s);
  report.attempted();
  const auto start = Clock::now();
  response = session->mine(w.request);
  const double ms = ms_since(start);
  report.check(response.disposition == service::Disposition::kServed,
               "mine was not served fresh: " + std::string(to_string(response.disposition)) +
                   " " + response.rejection.reason);
  return ms;
}

int run_paper(const Args& args, bool auto_backend) {
  const PaperWorkload w = paper_workload(args, auto_backend);
  const auto& config = w.request.config;
  Report report(args.trace);
  FaultInjector inject(args.inject_fault);
  std::vector<double> setup_s;

  if (!args.trace) {
    // Several mines per run: the auto session's are ~3x the single-scan ones.
    const std::size_t min_mines = args.tiny ? 1 : auto_backend ? 2 : 3;
    const auto deadline = after_seconds(Clock::now(), args.seconds);
    std::vector<double> mine_ms;
    service::MineResponse first;
    std::uint64_t digest = 0;
    do {
      service::MineResponse response;
      mine_ms.push_back(cold_mine(w, setup_s, response, report));
      if (mine_ms.size() == 1) {
        digest = result_digest(response.result);
        first = std::move(response);
      } else {
        report.check(result_digest(response.result) == digest,
                     "repeated cold mines disagree on the result digest");
      }
    } while (mine_ms.size() < min_mines || Clock::now() < deadline);
    while (setup_s.size() < 10) timed_session(w, setup_s);
    const double rss = peak_rss_mb();

    check_mining_result(first.result, w.dataset.events, config, 3, args.seed ^ 0x5eed, inject,
                        report, "mine");
    const double mine_p50 = median(mine_ms);
    const double mine_max = *std::max_element(mine_ms.begin(), mine_ms.end());
    report.named("mines", static_cast<double>(mine_ms.size()), "count");
    report.named("mine_s", mine_p50 / 1000.0, "s");
    report.named("setup_s", median(setup_s), "s");
    report.named("peak_rss_mb", rss, "MB");
    char hex[32];
    std::snprintf(hex, sizeof hex, "%016" PRIx64, digest);
    std::printf("result_digest %s\n", hex);
    report.metric("setup_s", median(setup_s));
    report.metric("latency_p50_ms", mine_p50);
    report.metric("latency_tail_ms", mine_max);
    report.metric("throughput_per_s", 1000.0 / mine_p50);
    report.metric("peak_rss_mb", rss);
    return report.finish();
  }

  // Untraced reference mine for the overhead ratio.
  service::MineResponse untraced;
  const double untraced_ms = cold_mine(w, setup_s, untraced, report);

  // Traced mine: the session path with a timing decorator on its backend.
  auto session = timed_session(w, setup_s);
  std::unique_ptr<core::CountingBackend> inner = session->new_backend();
  TimedBackend timed(*inner);
  report.attempted();
  const auto traced_start = Clock::now();
  const service::MineResponse traced = session->mine_with(w.request, timed);
  const double traced_ms = ms_since(traced_start);
  report.check(traced.disposition == service::Disposition::kServed, "traced mine not served");

  std::vector<double> level_count_ms(4, 0.0);
  double host_sim_ms = 0.0;
  double simulated_ms = 0.0;
  const auto* auto_inner = dynamic_cast<const planner::AutoBackend*>(inner.get());
  for (std::size_t i = 0; i < timed.spans().size(); ++i) {
    const TimedBackend::Span& span = timed.spans()[i];
    if (span.level >= 1 && span.level <= 3) level_count_ms[span.level] += span.ms();
    simulated_ms += span.simulated_ms;
    if (auto_inner != nullptr && i < auto_inner->plans().size() &&
        auto_inner->plans()[i].winner().config.kind == planner::BackendKind::kGpuSim) {
      host_sim_ms += span.ms();
    }
  }

  // Direct planner calls for each counted level's workload.
  const planner::PlannerOptions planner_options = service::planner_options_for(w.options.backend);
  const std::vector<double> freq = session->measured_frequencies();
  double plan_ms = 0.0;
  double predicted_ms = 0.0;
  for (const core::LevelReport& level : traced.result.levels) {
    planner::Workload workload;
    workload.db_size = static_cast<std::int64_t>(w.dataset.events.size());
    workload.episode_count = level.candidates;
    workload.level = level.level;
    workload.alphabet_size = kAlphabet;
    workload.symbol_freq = freq;
    workload.semantics = config.semantics;
    workload.expiry = config.expiry;
    const auto start = Clock::now();
    const planner::Plan plan = planner::plan_level(workload, planner_options);
    plan_ms += ms_since(start);
    predicted_ms += plan.winner().predicted_ms;
  }
  session.reset();

  // Generation / elimination split: an observed mine_frequent_episodes pass
  // with the same config (single-scan counting; the split does not depend on
  // which backend produced the counts).
  auto scan = service::make_backend({.name = "cpu-single-scan"});
  TimedBackend scan_timed(*scan);
  LevelTimer levels;
  const core::MiningResult observed = core::mine_frequent_episodes(
      w.dataset.events, w.dataset.alphabet, scan_timed, config, &levels);
  const auto returned = Clock::now();
  double eliminate_ms = 0.0;
  for (std::size_t i = 0; i < levels.dones.size() && i < scan_timed.spans().size(); ++i) {
    eliminate_ms += ms_between(scan_timed.spans()[i].end, levels.dones[i]);
  }
  const auto gen_ms = [&](std::size_t level) {
    return level - 1 < levels.starts.size() && level - 2 < levels.dones.size()
               ? ms_between(levels.dones[level - 2], levels.starts[level - 1])
               : 0.0;
  };

  const std::uint64_t digest = result_digest(traced.result);
  report.check(result_digest(untraced.result) == digest,
               "untraced and traced mines disagree on the result digest");
  report.check(result_digest(observed) == digest,
               "cpu-single-scan mine_frequent_episodes disagrees with the session mine");
  check_mining_result(traced.result, w.dataset.events, config, 3, args.seed ^ 0x5eed, inject,
                      report, "traced mine");

  report.metric("core.candidate_gen.L2_ms", gen_ms(2));
  report.metric("core.candidate_gen.L3_ms", gen_ms(3));
  report.metric("core.candidate_gen.past_cap_ms",
                levels.dones.empty() ? 0.0 : ms_between(levels.dones.back(), returned));
  report.metric("core.counting.L1_ms", level_count_ms[1]);
  report.metric("core.counting.L2_ms", level_count_ms[2]);
  report.metric("core.counting.L3_ms", level_count_ms[3]);
  if (traced.result.levels.size() >= 3 && level_count_ms[3] > 0.0) {
    report.metric("core.counting.L3_episode_events_per_s",
                  static_cast<double>(traced.result.levels[2].candidates) *
                      static_cast<double>(w.dataset.events.size()) /
                      (level_count_ms[3] / 1000.0));
  }
  report.metric("core.eliminate_ms", eliminate_ms);
  report.metric("planner.plan_ms", plan_ms);
  report.metric("planner.predicted_ms", predicted_ms);
  if (traced.timing.predicted_ms > 0.0) {
    report.metric("planner.measured_over_predicted",
                  traced.timing.service_ms / traced.timing.predicted_ms);
  }
  report.metric("kernels.host_sim_ms", host_sim_ms);
  report.metric("kernels.simulated_device_ms", simulated_ms);
  report.metric("trace.overhead_frac", traced_ms / untraced_ms - 1.0);
  report.named("mine_s", untraced_ms / 1000.0, "s");
  report.named("traced_mine_s", traced_ms / 1000.0, "s");
  return report.finish();
}

// ---------------------------------------------------------------------------
// service_mix
// ---------------------------------------------------------------------------

constexpr int kClients = 4;
constexpr std::size_t kCountEpisodes = 128;
// Repeats draw from each client's most recent fresh requests; 4 clients x
// these windows stay well inside the session caches (512 counts, 128 mines),
// so every repeat is a certain hit.
constexpr std::size_t kCountWindow = 64;
constexpr std::size_t kMineWindow = 16;

struct ServiceSetup {
  data::Dataset dataset;
  service::SessionOptions options;
};

ServiceSetup service_setup(const Args& args) {
  ServiceSetup s;
  s.dataset = uniform_dataset(args.tiny ? 10'000 : 100'000, args.seed);
  s.options.backend = {.name = "cpu-single-scan"};
  return s;
}

core::MinerConfig service_mine_config(double support) {
  core::MinerConfig config;
  config.support_threshold = support;
  config.max_level = 2;
  return config;
}

struct ClientLog {
  std::int64_t ops = 0;
  std::int64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<double> count_ms;
  std::vector<double> mine_ms;
  Clock::time_point last_done;
  // Traced pass only.
  std::vector<service::CountResponse> count_responses;
  std::vector<double> count_response_ms;
  std::vector<service::Timing> mine_timings;
  // Seeded sample of fresh answers, re-checked after the timed region.
  std::vector<std::pair<std::vector<core::Episode>, std::vector<std::int64_t>>> count_samples;
  std::vector<std::pair<core::MinerConfig, core::MiningResult>> mine_samples;
};

bool same_result(const core::MiningResult& a, const core::MiningResult& b) {
  if (a.frequent.size() != b.frequent.size() || a.levels.size() != b.levels.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.frequent.size(); ++i) {
    if (!(a.frequent[i].episode == b.frequent[i].episode) ||
        a.frequent[i].count != b.frequent[i].count ||
        std::bit_cast<std::uint64_t>(a.frequent[i].support) !=
            std::bit_cast<std::uint64_t>(b.frequent[i].support)) {
      return false;
    }
  }
  return true;
}

/// One closed-loop client: a seeded sequence of 90% count / 10% mine
/// requests, each repeating one of the client's recent requests with
/// probability 0.25 (a certain hit) and otherwise fresh (a certain miss).
void run_client(service::MiningService& service, std::uint64_t seed,
                Clock::time_point deadline, bool traced, ClientLog& log) {
  Rng rng(seed);
  struct CountMemo {
    service::CountRequest request;
    std::vector<std::int64_t> counts;
  };
  struct MineMemo {
    service::MineRequest request;
    core::MiningResult result;
  };
  std::deque<CountMemo> counts;
  std::deque<MineMemo> mines;
  const auto fail = [&](std::string what) {
    ++log.failed;
    if (log.errors.size() < 8) log.errors.push_back(std::move(what));
  };

  while (Clock::now() < deadline) {
    const bool is_mine = rng.chance(0.1);
    const bool repeat = rng.chance(0.25);
    const bool sample = rng.chance(1.0 / 16.0);
    ++log.ops;
    try {
      if (is_mine) {
        const MineMemo* memo = nullptr;
        service::MineRequest request;
        if (repeat && !mines.empty()) {
          memo = &mines[rng.below(mines.size())];
          request = memo->request;
        } else {
          request.config = service_mine_config(0.0005 + 0.002 * rng.unit());
          request.client = "mine";
        }
        const auto submitted = Clock::now();
        service::MineResponse response = service.submit(request).get();
        log.last_done = Clock::now();
        log.mine_ms.push_back(ms_between(submitted, log.last_done));
        if (traced) log.mine_timings.push_back(response.timing);
        if (!response.ok()) {
          fail("mine rejected: " + response.rejection.reason);
        } else if (memo != nullptr) {
          if (!same_result(memo->result, response.result)) {
            fail("repeated mine differs from the first answer");
          }
        } else {
          if (sample && log.mine_samples.size() < 2) {
            log.mine_samples.emplace_back(request.config, response.result);
          }
          mines.push_back({std::move(request), std::move(response.result)});
          if (mines.size() > kMineWindow) mines.pop_front();
        }
      } else {
        const CountMemo* memo = nullptr;
        service::CountRequest request;
        if (repeat && !counts.empty()) {
          memo = &counts[rng.below(counts.size())];
          request = memo->request;
        } else {
          request.episodes = random_episodes(rng, kCountEpisodes, 3);
          request.client = "count";
        }
        const auto submitted = Clock::now();
        service::CountResponse response = service.submit(request).get();
        log.last_done = Clock::now();
        const double ms = ms_between(submitted, log.last_done);
        log.count_ms.push_back(ms);
        if (!response.ok()) {
          fail("count rejected: " + response.rejection.reason);
        } else if (memo != nullptr) {
          if (memo->counts != response.counts) {
            fail("repeated count differs from the first answer");
          }
        } else {
          if (sample && log.count_samples.size() < 8) {
            log.count_samples.emplace_back(request.episodes, response.counts);
          }
          counts.push_back({std::move(request), response.counts});
          if (counts.size() > kCountWindow) counts.pop_front();
        }
        if (traced) {
          log.count_responses.push_back(std::move(response));
          log.count_response_ms.push_back(ms);
        }
      }
    } catch (const std::exception& e) {
      fail(std::string("request threw: ") + e.what());
    }
  }
}

struct MixResult {
  std::vector<ClientLog> logs;
  double wall_s = 0.0;
  service::ServiceStats stats;
  service::CacheStats count_cache;
  service::CacheStats mine_cache;
};

/// Build the session + service (timed as set-up), play the client mix for
/// `seconds`, and stop the service.
MixResult play_mix(const ServiceSetup& s, const Args& args, double seconds, bool traced,
                   std::vector<double>& setup_s) {
  data::Dataset copy = s.dataset;
  const auto setup_start = Clock::now();
  auto session = std::make_shared<service::MiningSession>(std::move(copy), s.options);
  service::MiningService service(session, {.workers = 2});
  setup_s.push_back(ms_since(setup_start) / 1000.0);

  MixResult mix;
  mix.logs.resize(kClients);
  const auto start = Clock::now();
  const auto deadline = after_seconds(start, seconds);
  {
    std::vector<std::jthread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back(run_client, std::ref(service), args.seed * 7919 + c, deadline, traced,
                           std::ref(mix.logs[static_cast<std::size_t>(c)]));
    }
  }
  Clock::time_point last = start;
  for (const ClientLog& log : mix.logs) last = std::max(last, log.last_done);
  mix.wall_s = ms_between(start, last) / 1000.0;
  mix.stats = service.stats();
  mix.count_cache = session->count_cache_stats();
  mix.mine_cache = session->mine_cache_stats();
  service.stop();
  return mix;
}

struct MixSummary {
  std::int64_t ops = 0;
  std::vector<double> count_ms;
  std::vector<double> mine_ms;
  double ops_per_s = 0.0;
};

MixSummary summarize(const MixResult& mix, Report& report) {
  MixSummary summary;
  for (const ClientLog& log : mix.logs) {
    summary.ops += log.ops;
    report.attempted(log.ops);
    for (std::int64_t i = 0; i < log.failed; ++i) {
      report.fail(i < static_cast<std::int64_t>(log.errors.size())
                      ? log.errors[static_cast<std::size_t>(i)]
                      : "service request");
    }
    summary.count_ms.insert(summary.count_ms.end(), log.count_ms.begin(), log.count_ms.end());
    summary.mine_ms.insert(summary.mine_ms.end(), log.mine_ms.begin(), log.mine_ms.end());
  }
  summary.ops_per_s = mix.wall_s > 0.0 ? static_cast<double>(summary.ops) / mix.wall_s : 0.0;
  return summary;
}

/// Re-count the seeded sample of fresh answers with the serial oracle.
void check_mix_samples(const MixResult& mix, const data::Dataset& dataset, FaultInjector& inject,
                       Report& report) {
  for (const ClientLog& log : mix.logs) {
    for (const auto& [episodes, counts] : log.count_samples) {
      const auto truth = core::count_all(episodes, dataset.events,
                                         core::Semantics::kNonOverlappedSubsequence);
      for (std::size_t i = 0; i < episodes.size(); ++i) {
        const std::int64_t claimed = inject(counts[i]);
        report.check(claimed == truth[i], "served count " + std::to_string(claimed) +
                                              " != serial oracle " + std::to_string(truth[i]));
      }
    }
    for (const auto& [config, result] : log.mine_samples) {
      core::SerialCpuBackend serial;
      const core::MiningResult truth =
          core::mine_frequent_episodes(dataset.events, dataset.alphabet, serial, config);
      report.check(same_result(truth, result), "served mine differs from the serial miner");
    }
  }
}

int run_service(const Args& args) {
  const ServiceSetup s = service_setup(args);
  Report report(args.trace);
  FaultInjector inject(args.inject_fault);
  std::vector<double> setup_s;

  if (!args.trace) {
    // Extra set-ups (session + service start/stop) for a steadier setup_s.
    for (int i = 0; i < 9; ++i) {
      data::Dataset copy = s.dataset;
      const auto start = Clock::now();
      auto session = std::make_shared<service::MiningSession>(std::move(copy), s.options);
      service::MiningService service(session, {.workers = 2});
      setup_s.push_back(ms_since(start) / 1000.0);
    }
    const MixResult mix = play_mix(s, args, args.seconds, false, setup_s);
    const double rss = peak_rss_mb();
    const MixSummary summary = summarize(mix, report);
    check_mix_samples(mix, s.dataset, inject, report);

    const double count_p50 = quantile(summary.count_ms, 0.5);
    const double count_p99 = quantile(summary.count_ms, 0.99);
    report.named("requests", static_cast<double>(summary.ops), "count");
    report.named("count_requests", static_cast<double>(summary.count_ms.size()), "count");
    report.named("mine_requests", static_cast<double>(summary.mine_ms.size()), "count");
    report.named("svc_ops_per_s", summary.ops_per_s, "1/s");
    report.named("count_p50_ms", count_p50, "ms");
    report.named("count_p99_ms", count_p99, "ms");
    report.named("svc_mine_p50_ms", quantile(summary.mine_ms, 0.5), "ms");
    report.named("svc_mine_p90_ms", quantile(summary.mine_ms, 0.9), "ms");
    report.named("setup_s", median(setup_s), "s");
    report.named("peak_rss_mb", rss, "MB");
    report.metric("setup_s", median(setup_s));
    report.metric("latency_p50_ms", count_p50);
    report.metric("latency_tail_ms", count_p99);
    report.metric("throughput_per_s", summary.ops_per_s);
    report.metric("peak_rss_mb", rss);
    return report.finish();
  }

  // Half the time untraced, half traced (Timing, dispositions, batch sizes).
  const MixResult plain = play_mix(s, args, args.seconds / 2.0, false, setup_s);
  const MixResult traced = play_mix(s, args, args.seconds / 2.0, true, setup_s);
  const MixSummary plain_summary = summarize(plain, report);
  const MixSummary traced_summary = summarize(traced, report);
  check_mix_samples(traced, s.dataset, inject, report);

  std::vector<double> queue_ms;
  std::vector<double> miss_ms;
  std::vector<double> hit_ms;
  std::vector<double> count_ratio;
  std::vector<double> mine_ratio;
  double fresh = 0.0;
  double calls = 0.0;
  for (const ClientLog& log : traced.logs) {
    for (std::size_t i = 0; i < log.count_responses.size(); ++i) {
      const service::CountResponse& r = log.count_responses[i];
      queue_ms.push_back(r.timing.queue_ms);
      if (r.disposition == service::Disposition::kCached) {
        hit_ms.push_back(log.count_response_ms[i]);
      } else if (r.disposition == service::Disposition::kServed) {
        miss_ms.push_back(r.timing.service_ms);
        if (r.timing.predicted_ms > 0.0) {
          count_ratio.push_back(r.timing.service_ms / r.timing.predicted_ms);
        }
        fresh += 1.0;
        calls += 1.0 / static_cast<double>(r.batched_with + 1);
      }
    }
    for (const service::Timing& t : log.mine_timings) {
      queue_ms.push_back(t.queue_ms);
      if (t.predicted_ms > 0.0) mine_ratio.push_back(t.service_ms / t.predicted_ms);
    }
  }
  const auto hit_ratio = [](const service::CacheStats& c) {
    const auto lookups = c.hits + c.misses;
    return lookups == 0 ? 0.0 : static_cast<double>(c.hits) / static_cast<double>(lookups);
  };

  // Direct planner calls on the count requests' workload shape.
  const planner::PlannerOptions planner_options = service::planner_options_for(s.options.backend);
  Rng rng(args.seed ^ 0x91a7);
  std::vector<double> plan_ms;
  double predicted_ms = 0.0;
  {
    service::MiningSession probe(s.dataset, s.options);
    planner::Workload workload;
    workload.db_size = static_cast<std::int64_t>(s.dataset.events.size());
    workload.episode_count = static_cast<std::int64_t>(kCountEpisodes);
    workload.level = 3;
    workload.alphabet_size = kAlphabet;
    workload.symbol_freq = probe.measured_frequencies();
    for (int i = 0; i < 16; ++i) {
      const auto start = Clock::now();
      const planner::Plan plan = planner::plan_level(workload, planner_options);
      plan_ms.push_back(ms_since(start));
      predicted_ms = plan.winner().predicted_ms;
    }
  }

  // Core layers on the service's mine shape (max_level 2) and count shape.
  auto scan = service::make_backend(s.options.backend);
  TimedBackend scan_timed(*scan);
  LevelTimer levels;
  const core::MiningResult observed = core::mine_frequent_episodes(
      s.dataset.events, s.dataset.alphabet, scan_timed, service_mine_config(0.0015), &levels);
  const auto returned = Clock::now();
  report.check(observed.levels.size() == 2, "service-shape mine did not reach level 2");
  double eliminate_ms = 0.0;
  for (std::size_t i = 0; i < levels.dones.size() && i < scan_timed.spans().size(); ++i) {
    eliminate_ms += ms_between(scan_timed.spans()[i].end, levels.dones[i]);
  }
  const std::vector<core::Episode> count_shape = random_episodes(rng, kCountEpisodes, 3);
  core::CountRequest count_request;
  count_request.database = s.dataset.events;
  count_request.episodes = count_shape;
  (void)scan_timed.count(count_request);
  const auto& spans = scan_timed.spans();

  if (spans.size() == 3 && levels.starts.size() == 2 && levels.dones.size() == 2) {
    report.metric("core.candidate_gen.L2_ms", ms_between(levels.dones[0], levels.starts[1]));
    report.metric("core.candidate_gen.past_cap_ms", ms_between(levels.dones[1], returned));
    report.metric("core.counting.L1_ms", spans[0].ms());
    report.metric("core.counting.L2_ms", spans[1].ms());
    report.metric("core.counting.L3_ms", spans[2].ms());
    report.metric("core.counting.L3_episode_events_per_s",
                  static_cast<double>(kCountEpisodes) *
                      static_cast<double>(s.dataset.events.size()) / (spans[2].ms() / 1000.0));
  }
  report.metric("core.eliminate_ms", eliminate_ms);
  report.metric("planner.plan_ms", median(plan_ms));
  report.metric("planner.predicted_ms", predicted_ms);
  report.metric("planner.measured_over_predicted", median(mine_ratio));
  report.metric("planner.count_measured_over_predicted_p50", quantile(count_ratio, 0.5));
  report.metric("planner.count_measured_over_predicted_p99", quantile(count_ratio, 0.99));
  report.metric("service.queue_ms_p50", quantile(queue_ms, 0.5));
  report.metric("service.queue_ms_p99", quantile(queue_ms, 0.99));
  report.metric("service.miss_service_ms_p50", median(miss_ms));
  report.metric("service.hit_ms_p50", median(hit_ms));
  report.metric("service.cache.count_hit_ratio", hit_ratio(traced.count_cache));
  report.metric("service.cache.mine_hit_ratio", hit_ratio(traced.mine_cache));
  report.metric("service.batch.requests_per_call", calls > 0.0 ? fresh / calls : 0.0);
  report.metric("service.batch.batched_frac",
                fresh > 0.0 ? static_cast<double>(traced.stats.batched) / fresh : 0.0);
  const double plain_p50 = quantile(plain_summary.count_ms, 0.5);
  const double traced_p50 = quantile(traced_summary.count_ms, 0.5);
  report.metric("trace.overhead_frac", plain_p50 > 0.0 ? traced_p50 / plain_p50 - 1.0 : 0.0);
  report.named("count_p50_ms", plain_p50, "ms");
  report.named("traced_count_p50_ms", traced_p50, "ms");
  return report.finish();
}

// ---------------------------------------------------------------------------
// stream_alert
// ---------------------------------------------------------------------------

constexpr int kMonitors = 4;
constexpr std::size_t kMonitorEpisodes = 256;
constexpr std::size_t kBatchEvents = 1024;
constexpr std::size_t kBatchPool = 256;

struct StreamSetup {
  data::Dataset prefix;
  std::vector<service::MonitorSpec> specs;
  std::vector<core::Sequence> batches;  ///< pre-generated, appended cyclically
  std::size_t traced_batches = 0;       ///< batches in each traced-mode pass; twice that untraced
};

StreamSetup stream_setup(const Args& args) {
  StreamSetup s;
  const std::int64_t prefix_events = args.tiny ? 10'000 : 100'000;
  s.prefix = uniform_dataset(prefix_events, args.seed);
  Rng rng(args.seed ^ 0x57ea);
  for (std::size_t b = 0; b < kBatchPool; ++b) {
    s.batches.push_back(data::uniform_database(s.prefix.alphabet,
                                               static_cast<std::int64_t>(kBatchEvents), rng()));
  }
  s.traced_batches = args.tiny ? 32 : static_cast<std::size_t>(args.seconds * 500.0) + 1;
  // Thresholds: each monitor fires once its median episode has grown by a
  // fixed share (25%, 50%, 75%, 100%) of a traced pass (half an untraced
  // run), so alerts fire mid-run and the last monitor's only in part.
  const double horizon_share =
      static_cast<double>(s.traced_batches * kBatchEvents) / static_cast<double>(prefix_events);
  for (int m = 0; m < kMonitors; ++m) {
    service::MonitorSpec spec;
    spec.name = "monitor-" + std::to_string(m);
    spec.episodes = random_episodes(rng, kMonitorEpisodes, m % 2 == 0 ? 2 : 3);
    spec.expiry = {.window = 16};
    core::StreamScan scan(spec.episodes, spec.semantics, spec.expiry);
    scan.feed(s.prefix.events);
    std::vector<double> counts;
    for (const std::int64_t c : scan.counts()) counts.push_back(static_cast<double>(c));
    const double share = 0.25 * (m + 1);
    spec.threshold = static_cast<std::int64_t>(median(counts) * (1.0 + share * horizon_share)) + 1;
    s.specs.push_back(std::move(spec));
  }
  return s;
}

struct StreamSession {
  std::unique_ptr<service::MiningSession> session;
  std::vector<std::pair<std::string, std::size_t>> alerted;  ///< (monitor, episode) per alert

  void record(const std::vector<service::Alert>& alerts) {
    for (const service::Alert& alert : alerts) {
      alerted.emplace_back(alert.monitor, alert.episode_index);
    }
  }
};

/// Session + monitor registration, timed as set-up.
StreamSession open_stream(const StreamSetup& s, std::vector<double>& setup_s,
                          double* register_ms = nullptr) {
  data::Dataset copy = s.prefix;
  std::vector<service::MonitorSpec> specs = s.specs;
  StreamSession out;
  const auto start = Clock::now();
  out.session = std::make_unique<service::MiningSession>(
      std::move(copy), service::SessionOptions{.backend = {.name = "cpu-single-scan"}});
  const auto registering = Clock::now();
  for (service::MonitorSpec& spec : specs) {
    out.record(out.session->register_monitor(std::move(spec)));
  }
  if (register_ms != nullptr) *register_ms = ms_since(registering);
  setup_s.push_back(ms_since(start) / 1000.0);
  return out;
}

/// Final-state check.  A seeded sample of each monitor's counts equals a
/// from-scratch recount of the whole stream (trie engine, independent of the
/// monitors' single-scan engine), part of that sample also matches the
/// serial oracle, and the alerts fired are exactly one per episode whose
/// count reached its monitor's threshold.
void check_stream(const StreamSetup& s, const StreamSession& st, std::size_t appended,
                  FaultInjector& inject, Report& report) {
  core::Sequence stream = s.prefix.events;
  for (std::size_t b = 0; b < appended; ++b) {
    const core::Sequence& batch = s.batches[b % s.batches.size()];
    stream.insert(stream.end(), batch.begin(), batch.end());
  }
  report.check(st.session->database_size() == static_cast<std::int64_t>(stream.size()),
               "session stream length differs from the appended events");
  Rng rng(s.specs.size() * 31 + appended);
  std::set<std::pair<std::string, std::size_t>> expected_alerts;
  for (const service::MonitorSpec& spec : s.specs) {
    const std::vector<std::int64_t> live = st.session->monitor_counts(spec.name);
    for (std::size_t i = 0; i < live.size(); ++i) {
      if (live[i] >= spec.threshold) expected_alerts.emplace(spec.name, i);
    }
    std::vector<core::Episode> sample;
    std::vector<std::size_t> index;
    for (int k = 0; k < 16; ++k) {
      index.push_back(rng.below(spec.episodes.size()));
      sample.push_back(spec.episodes[index.back()]);
    }
    core::StreamScan recount(sample, spec.semantics, spec.expiry, core::ScanEngine::kTrie);
    recount.feed(stream);
    const std::vector<std::int64_t> truth = recount.counts();
    std::int64_t mismatched = 0;
    for (std::size_t k = 0; k < sample.size(); ++k) {
      mismatched += inject(live[index[k]]) != truth[k] ? 1 : 0;
    }
    report.check(mismatched == 0, spec.name + ": " + std::to_string(mismatched) +
                                      " sampled monitor counts differ from a full recount");
    const std::span<const core::Episode> oracle_sample(sample.data(), 2);
    const auto oracle = core::count_all(oracle_sample, stream, spec.semantics, spec.expiry);
    for (std::size_t k = 0; k < oracle.size(); ++k) {
      report.check(oracle[k] == truth[k], spec.name + ": recount disagrees with the oracle");
    }
  }
  const std::set<std::pair<std::string, std::size_t>> fired(st.alerted.begin(),
                                                            st.alerted.end());
  report.check(fired.size() == st.alerted.size(), "an episode alerted more than once");
  report.check(fired == expected_alerts,
               std::to_string(fired.size()) + " episodes alerted, but " +
                   std::to_string(expected_alerts.size()) + " reached their threshold");
}

std::vector<double> append_batches(StreamSession& st, const StreamSetup& s, std::size_t count,
                                   Clock::time_point deadline, std::size_t& appended,
                                   Report& report) {
  std::vector<double> append_ms;
  while (appended < count && Clock::now() < deadline) {
    const core::Sequence& batch = s.batches[appended % s.batches.size()];
    report.attempted();
    try {
      const auto start = Clock::now();
      const auto outcome = st.session->append_events(batch);
      append_ms.push_back(ms_since(start));
      st.record(outcome.alerts);
    } catch (const std::exception& e) {
      report.fail(std::string("append threw: ") + e.what());
    }
    ++appended;
  }
  return append_ms;
}

int run_stream(const Args& args) {
  const StreamSetup s = stream_setup(args);
  Report report(args.trace);
  FaultInjector inject(args.inject_fault);
  std::vector<double> setup_s;

  if (!args.trace) {
    for (int i = 0; i < 4; ++i) (void)open_stream(s, setup_s);
    StreamSession st = open_stream(s, setup_s);
    // A fixed batch count (about --seconds of appends) keeps the stream
    // length, and so peak memory, independent of speed; the deadline only
    // bounds the run time of a pathologically slow program.
    std::size_t appended = 0;
    const auto start = Clock::now();
    const std::vector<double> append_ms = append_batches(
        st, s, 2 * s.traced_batches, after_seconds(start, 6.0 * args.seconds), appended, report);
    const double wall_s = ms_since(start) / 1000.0;
    const double rss = peak_rss_mb();
    check_stream(s, st, appended, inject, report);

    const double events_per_s = static_cast<double>(appended * kBatchEvents) / wall_s;
    const double p50 = quantile(append_ms, 0.5);
    const double p99 = quantile(append_ms, 0.99);
    report.named("appends", static_cast<double>(appended), "count");
    report.named("alerts", static_cast<double>(st.alerted.size()), "count");
    report.named("stream_events_per_s", events_per_s, "1/s");
    report.named("append_p50_ms", p50, "ms");
    report.named("append_p99_ms", p99, "ms");
    report.named("setup_s", median(setup_s), "s");
    report.named("peak_rss_mb", rss, "MB");
    report.metric("setup_s", median(setup_s));
    report.metric("latency_p50_ms", p50);
    report.metric("latency_tail_ms", p99);
    report.metric("throughput_per_s", events_per_s);
    report.metric("peak_rss_mb", rss);
    return report.finish();
  }

  // Untraced pass and traced pass over the same fixed batch sequence.
  const auto no_deadline = Clock::time_point::max();
  std::size_t plain_appended = 0;
  double plain_p50 = 0.0;
  {
    StreamSession plain = open_stream(s, setup_s);
    plain_p50 = median(
        append_batches(plain, s, s.traced_batches, no_deadline, plain_appended, report));
  }

  double register_ms = 0.0;
  StreamSession st = open_stream(s, setup_s, &register_ms);
  std::vector<service::StreamingMonitor> standalone;
  std::vector<service::Alert> scratch;
  for (const service::MonitorSpec& spec : s.specs) {
    standalone.emplace_back(spec);
    standalone.back().on_append(s.prefix.events, 1, scratch);
  }
  std::vector<double> append_ms;
  std::vector<double> advance_ms;
  std::vector<double> upkeep_ms;
  std::size_t appended = 0;
  for (; appended < s.traced_batches; ++appended) {
    const core::Sequence& batch = s.batches[appended % s.batches.size()];
    report.attempted();
    const auto start = Clock::now();
    const auto outcome = st.session->append_events(batch);
    const auto appended_at = Clock::now();
    st.record(outcome.alerts);
    for (service::StreamingMonitor& monitor : standalone) {
      monitor.on_append(batch, outcome.generation, scratch);
    }
    const double advance = ms_since(appended_at);
    const double append = ms_between(start, appended_at);
    append_ms.push_back(append);
    advance_ms.push_back(advance);
    upkeep_ms.push_back(append - advance);
  }
  for (std::size_t m = 0; m < standalone.size(); ++m) {
    report.check(standalone[m].counts() == st.session->monitor_counts(s.specs[m].name),
                 "standalone monitor disagrees with the session's");
  }
  check_stream(s, st, appended, inject, report);

  report.metric("service.streaming_monitor.advance_ms_p50", median(advance_ms));
  report.metric("service.session.append_upkeep_ms_p50", median(upkeep_ms));
  report.metric("service.session.register_ms", register_ms);
  report.metric("service.streaming_monitor.alerts", static_cast<double>(st.alerted.size()));
  const double traced_p50 = median(append_ms);
  report.metric("trace.overhead_frac", traced_p50 / plain_p50 - 1.0);
  report.named("append_p50_ms", plain_p50, "ms");
  report.named("traced_append_p50_ms", traced_p50, "ms");
  return report.finish();
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    if (args.workload == "paper_mine") return run_paper(args, false);
    if (args.workload == "paper_mine_auto") return run_paper(args, true);
    if (args.workload == "service_mix") return run_service(args);
    if (args.workload == "stream_alert") return run_stream(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  usage_error("unknown workload '" + args.workload + "'");
}
