// canopus_e2e: one workload of the end-to-end benchmark, in its own process.
//
//   canopus_e2e --workload=scan --seconds=S [--seed=1] [--trace=0|1]
//               [--setups=3] [--out=build-bench/out]
//
// Generates the workload's inputs from the seed (untimed), sets the program
// up --setups times and keeps the median as setup_s, drives the load for
// --seconds, then checks every recorded output against a plain reference
// pipeline. The last stdout line is the result JSON: the gated end-to-end
// metrics, or with --trace=1 the ungated e2e.* outcomes and the per-layer
// metrics of a traced run. Without --trace the line before it,
// "outcome: {...}", carries the ungated outcomes.
//
// A traced run alternates untraced and traced slices of about a second; the
// per-layer numbers come from the traced slices, the end-to-end ones from
// the untraced slices, and obs.overhead_frac compares their mean op
// latency. It also writes <out>/<workload>-s<seed>-layers.json and a Chrome
// trace next to it.
//
// Exit codes: 0 when every output checked out, 1 when one did not (or an op
// failed), 2 on bad flags, 3 when the watchdog fired (printed as
// "hung: <workload>").

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <mutex>
#include <thread>

#include "obs/metrics.hpp"
#include "obs/observability.hpp"
#include "util/cli.hpp"
#include "util/timer.hpp"
#include "workloads.hpp"

using namespace canopus;
using namespace canopus::e2e;

namespace {

/// Ends the process with "hung: <workload>" and code 3 unless disarmed
/// within `seconds`: a deadlock fails the run instead of stalling it.
class Watchdog {
 public:
  Watchdog(std::string workload, double seconds)
      : workload_(std::move(workload)),
        thread_([this, seconds] {
          std::unique_lock lock(mu_);
          if (!cv_.wait_for(lock, std::chrono::duration<double>(seconds),
                            [this] { return disarmed_; })) {
            std::printf("hung: %s\n", workload_.c_str());
            std::fflush(stdout);
            std::_Exit(3);
          }
        }) {}

  ~Watchdog() {
    {
      std::scoped_lock lock(mu_);
      disarmed_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  std::string workload_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool disarmed_ = false;  // guarded by mu_
  std::thread thread_;     // last: starts after the members it uses
};

double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

/// The traced variant of the window: slices of about a second, traced in
/// the pattern U T T U U T T U ..., so that drift of the host or of the
/// load (the campaign writer grows the live set) falls on both sides of
/// obs.overhead_frac. Per-layer sources come from the traced slices only.
void measure_traced(Workload& workload, double seconds, const std::string& trace_path,
                    OpLog& untraced, OpLog& traced, LayerSources& sources) {
  obs::ObservabilityOptions options;
  options.enabled = true;
  options.trace_path = trace_path;
  obs::install(options);
  const auto slices = std::max<long long>(2, std::llround(seconds));
  for (long long i = 0; i < slices; ++i) {
    const bool on = i % 4 == 1 || i % 4 == 2;
    obs::set_enabled(on);
    const auto cache_before = workload.cache_stats();
    const auto serve_before = workload.serve_stats();
    OpLog slice = workload.run(seconds / static_cast<double>(slices));
    if (on) {
      sources.cache = sources.cache + (workload.cache_stats() - cache_before);
      sources.serve = sources.serve + (workload.serve_stats() - serve_before);
      traced.merge(std::move(slice));
    } else {
      untraced.merge(std::move(slice));
    }
  }
  obs::set_enabled(false);
  sources.obs = obs::MetricsRegistry::global().snapshot();
  const double base = untraced.mean_latency_ms();
  sources.overhead_frac = base > 0.0 ? traced.mean_latency_ms() / base - 1.0 : 0.0;
  obs::flush();
}

int run(const util::Cli& cli) {
  const std::string name = cli.get("workload", "");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  // No default: the window length is BENCHMARK.json's run_seconds, which
  // run.py passes.
  const double seconds = cli.get_double("seconds", 0.0);
  const bool trace = cli.get_int("trace", 0) != 0;
  const auto setup_runs = cli.get_int("setups", 3);
  const std::string out_dir = cli.get("out", "build-bench/out");
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), name) == names.end() ||
      !(seconds > 0.0) || setup_runs < 1) {
    std::fprintf(stderr,
                 "usage: canopus_e2e --workload=ingest|scan|explore|campaign|"
                 "overload --seconds=S [--seed=N] [--trace=0|1] [--setups=N] [--out=DIR]\n");
    return 2;
  }

  auto workload = make_workload(name, seed, seconds);
  // Memory growth is measured from here to the window's end, so neither the
  // generated inputs nor the reference check dilute the program's own.
  const double inputs_rss_mb = current_rss_mb();
  std::vector<double> setups;
  for (std::int64_t i = 0; i < setup_runs; ++i) {
    util::WallTimer timer;
    workload->setup();
    setups.push_back(timer.seconds());
  }

  OpLog untraced;
  OpLog traced;
  LayerSources sources;
  RunFacts facts;
  const std::string stem = out_dir + "/" + name + "-s" + std::to_string(seed);
  {
    Watchdog watchdog(name, seconds + 30.0);
    if (!trace) {
      untraced = workload->run(seconds);
    } else {
      std::filesystem::create_directories(out_dir);
      measure_traced(*workload, seconds, stem + "-trace.json", untraced, traced,
                     sources);
    }
    facts.rss_growth_mb = peak_rss_mb() - inputs_rss_mb;
    untraced.mismatches = workload->verify(untraced);
    traced.mismatches = trace ? workload->verify(traced) : 0;
  }
  facts.setup_s = median(setups);
  facts.tail_q = workload->tail_q();
  facts.stored_bytes = workload->stored_bytes();
  facts.raw_bytes = workload->raw_bytes();

  const std::uint64_t attempted = untraced.attempted + traced.attempted;
  const std::uint64_t failed = untraced.errors + untraced.mismatches +
                               traced.errors + traced.mismatches;
  const bool correct = failed == 0 && attempted > 0;
  std::cout << "workload " << name << ", seed " << seed << ": " << attempted
            << " ops attempted, " << untraced.answered + traced.answered
            << " answered, " << untraced.shed + traced.shed << " shed, "
            << untraced.errors + traced.errors << " failed, "
            << untraced.mismatches + traced.mismatches << " wrong outputs; "
            << untraced.latency_ms.size() << " latency samples untraced\n";
  const MetricList e2e = end_to_end_metrics(untraced, facts);
  const MetricList outcome = outcome_metrics(untraced, facts);
  print_table(std::cout, trace ? "end-to-end (untraced slices)" : "end-to-end", e2e);
  print_table(std::cout, "outcome (not gated)", outcome);
  MetricList reported = e2e;
  if (trace) {
    const MetricList layers = layer_metrics(traced, sources);
    print_table(std::cout, "per-layer (traced slices)", layers);
    reported = outcome;
    reported.insert(reported.end(), layers.begin(), layers.end());
    std::ofstream(stem + "-layers.json")
        << result_json(correct, attempted, failed, reported) << "\n";
    std::cout << "wrote " << stem << "-layers.json and " << stem << "-trace.json\n";
  } else {
    // compare.py judges gains on these too; the result line carries only
    // the gated metrics.
    std::cout << "outcome: " << metrics_json(outcome) << "\n";
  }
  std::cout << result_json(correct, attempted, failed, reported) << std::endl;
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(util::Cli(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "canopus_e2e: %s\n", e.what());
    return 1;
  }
}
