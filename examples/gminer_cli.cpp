// gminer_cli — a command-line frequent-episode miner over the public API,
// the "tool a downstream user would actually run".
//
//   gminer_cli [options] [dataset.txt]
//     --backend <name>             counting backend       (default
//                                  cpu-single-scan; names from
//                                  service::backend_names(); "auto" re-plans
//                                  the formulation at every mining level,
//                                  ranking the host formulations by predicted
//                                  host wall-clock)
//     --shards <n>                 distrib backends: shard/device count
//                                  (0 = hw threads, or 2 cards for
//                                  distrib-gpu); with "auto": score host
//                                  distrib-x1..n candidates (default 0)
//     --card <8800|gx2|gtx280>     simulated card for gpusim and
//                                  distrib-gpu            (default gtx280)
//     --algo <1|2|3|4|5>           GPU algorithm          (default 3;
//                                  5 = block-bucketed single-scan)
//     --explain                    with --backend auto: dump each level's
//                                  full planner decision table to stderr
//     --calibration <file>         with --backend auto: load a fitted
//                                  calibration profile (see backend_shootout
//                                  --fit-calibration) instead of the shipped
//                                  cost constants
//     --tpb <n>                    threads per block      (default 64)
//     --support <alpha>            support threshold      (default 0.001)
//     --max-level <L>              episode length bound   (default 3)
//     --expiry <W>                 expiry window, 0 = off (default 0)
//     --semantics <subseq|contig>  counting semantics     (default subseq)
//     --cpu                        alias for --backend cpu-serial
//     --demo                       run on a built-in synthetic dataset
//
// Numeric flags are parsed with std::from_chars and rejected with an error
// naming the flag when non-numeric or out of range (std::atoi would silently
// turn garbage into 0).  Without a dataset argument, reads the dataset
// format (see data/dataset_io.hpp) from stdin.
#include <cstring>
#include <iostream>
#include <limits>
#include <memory>
#include <string>

#include "bench_support/cli_args.hpp"
#include "core/miner.hpp"
#include "data/dataset_io.hpp"
#include "data/generators.hpp"
#include "planner/auto_backend.hpp"
#include "service/backend_factory.hpp"

namespace {

void print_usage(std::ostream& out, const char* argv0) {
  out << "usage: " << argv0
      << " [--backend <name>] [--shards N] [--card 8800|gx2|gtx280]\n"
         "       [--algo 1..5] [--tpb N] [--support A] [--max-level L] [--expiry W]\n"
         "       [--semantics subseq|contig] [--cpu] [--demo] [--explain]\n"
         "       [--calibration profile.json] [dataset.txt]\n"
         "backends:";
  for (const auto name : gm::service::backend_names()) out << " " << name;
  out << "\n"
         "auto ranks cpu-serial, cpu-single-scan and (with --shards N) distrib-x1..N by\n"
         "predicted host wall-clock; planner_explain and backend_shootout rank the\n"
         "simulated device by modeled ms.\n";
}

// Bad invocation: usage goes to stderr and the exit status is 2.  An explicit
// --help prints to stdout and exits 0 (handled at the call site).
int usage(const char* argv0) {
  print_usage(std::cerr, argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gm;

  std::string backend_name = service::BackendSpec{}.name;
  int shards = 0;
  std::string card = "gtx280";
  int algo = 3;
  int tpb = 64;
  double support = 0.001;
  int max_level = 3;
  std::int64_t expiry = 0;
  bool demo = false;
  bool explain = false;
  std::string calibration_path;
  std::string semantics_name = "subseq";
  std::string dataset_path;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto next = [&]() -> const char* {
        if (i + 1 >= argc) {
          std::cerr << arg << " needs a value\n";
          std::exit(usage(argv[0]));
        }
        return argv[++i];
      };
      if (arg == "--backend") backend_name = next();
      else if (arg == "--shards") shards = bench::parse_int(arg, next(), 0, 1 << 10);
      else if (arg == "--card") card = next();
      else if (arg == "--algo") algo = bench::parse_int(arg, next(), 1, 5);
      else if (arg == "--tpb") tpb = bench::parse_int(arg, next(), 1, 1 << 16);
      else if (arg == "--support") support = bench::parse_double(arg, next(), 0.0, 1.0);
      else if (arg == "--max-level") max_level = bench::parse_int(arg, next(), 0, 255);
      else if (arg == "--expiry")
        expiry = bench::parse_int64(arg, next(), 0, std::numeric_limits<std::int64_t>::max());
      else if (arg == "--semantics") {
        semantics_name = next();
        if (semantics_name != "subseq" && semantics_name != "contig") {
          throw bench::UsageError("--semantics expects 'subseq' or 'contig', got '" +
                                  semantics_name + "'");
        }
      }
      else if (arg == "--calibration") calibration_path = next();
      else if (arg == "--cpu") backend_name = "cpu-serial";
      else if (arg == "--demo") demo = true;
      else if (arg == "--explain") explain = true;
      else if (arg == "--help" || arg == "-h") {
        print_usage(std::cout, argv[0]);
        return 0;
      }
      else if (!arg.empty() && arg[0] == '-') return usage(argv[0]);
      else dataset_path = arg;
    }
  } catch (const gm::PreconditionError& e) {
    // A malformed flag value is a bad invocation (exit 2), not a data error.
    std::cerr << "error: " << e.what() << "\n";
    return usage(argv[0]);
  }

  try {
    data::Dataset dataset;
    if (demo) {
      dataset.alphabet = core::Alphabet::english_uppercase();
      dataset.events = data::uniform_database(dataset.alphabet, 50'000, 99);
    } else if (!dataset_path.empty()) {
      dataset = data::load_dataset(dataset_path);
    } else {
      dataset = data::read_dataset(std::cin);
    }
    std::cerr << "dataset: " << dataset.events.size() << " events over "
              << dataset.alphabet.size() << " symbols\n";

    core::MinerConfig config;
    config.support_threshold = support;
    config.max_level = max_level;
    config.expiry = core::ExpiryPolicy{expiry};
    if (semantics_name == "contig") {
      config.semantics = core::Semantics::kContiguousRestart;
    }

    if (!calibration_path.empty() && backend_name != "auto") {
      std::cerr << "error: --calibration only applies to --backend auto\n";
      return usage(argv[0]);
    }
    service::BackendSpec spec;
    spec.name = backend_name;
    spec.shards = shards;
    spec.card = card;
    spec.launch.algorithm = static_cast<kernels::Algorithm>(algo);
    spec.launch.threads_per_block = tpb;
    spec.calibration = calibration_path;
    std::unique_ptr<core::CountingBackend> backend;
    try {
      backend = service::make_backend(spec);
    } catch (const gm::PreconditionError& e) {
      // An unknown backend name is a bad invocation (exit 2), not a data error.
      std::cerr << "error: " << e.what() << "\n";
      return usage(argv[0]);
    }
    std::cerr << "backend: " << backend->name() << "\n";

    const auto result =
        core::mine_frequent_episodes(dataset.events, dataset.alphabet, *backend, config);

    // With --backend auto, report what the planner picked at each level (the
    // winning formulation flips as the candidate set shrinks); --explain
    // additionally dumps the full per-level decision tables.
    const auto* adaptive = dynamic_cast<const planner::AutoBackend*>(backend.get());

    for (const auto& level : result.levels) {
      std::cerr << "level " << level.level << ": " << level.candidates << " candidates -> "
                << level.frequent << " frequent";
      if (level.simulated_kernel_ms > 0) {
        std::cerr << " (simulated kernel " << level.simulated_kernel_ms << " ms)";
      }
      std::cerr << "\n";
      if (adaptive != nullptr) {
        const std::size_t i = static_cast<std::size_t>(level.level) - 1;
        if (i < adaptive->plans().size()) {
          const planner::Plan& plan = adaptive->plans()[i];
          std::cerr << "  plan: " << plan.explanation << "\n";
          if (explain) std::cerr << planner::format_plan(plan);
        }
      }
    }

    // Results to stdout: one "episode count support" row each.
    for (const auto& f : result.frequent) {
      std::cout << f.episode.to_string(dataset.alphabet) << " " << f.count << " "
                << f.support << "\n";
    }
    return 0;
  } catch (const gm::Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
