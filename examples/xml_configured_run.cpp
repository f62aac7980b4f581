// ADIOS-style declarative configuration: the storage hierarchy and the
// refactoring policy come from an external XML file, so switching layouts
// (tiers, codec, accuracy) needs no recompilation — Section III-D's workflow.
//
//   $ ./xml_configured_run [--config=path/to/config.xml]
//
// Without --config a built-in sample document is used (and printed).
//
// Robustness keys (all optional):
//
//   <faults seed="42">
//     <tier name="lustre" read-error="0.1" write-error="0" corrupt="0.01"
//           latency-spike="0.05" spike-duration="20ms"/>
//   </faults>
//   <retry max-attempts="4" backoff="1ms" multiplier="2"/>
//
// <faults> wires a seeded storage::FaultInjector into the built hierarchy;
// each child names a configured tier and gives its failure probabilities
// (in [0,1]) plus the simulated duration of one latency spike. <retry> tunes
// the hierarchy's read retry-with-backoff policy (backoff is charged to the
// simulated clock, so faulty runs stay deterministic and reproducible).

#include <cstdio>

#include "core/canopus.hpp"
#include "core/config.hpp"
#include "sim/datasets.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"

using namespace canopus;

namespace {
const char* kDefaultConfig = R"(<canopus-config>
  <storage policy="fastest-fit">
    <tier preset="nvram"  capacity="512KiB"/>
    <tier preset="ssd"    capacity="16MiB"/>
    <tier preset="lustre" capacity="4GiB" read-bw="150MB/s" read-latency="6ms"/>
  </storage>
  <refactor levels="4" codec="zfp+lzss" error-bound="1e-5"
            estimate="barycentric" priority="shortest"/>
  <faults seed="2">
    <tier name="lustre" read-error="0.05" corrupt="0.005"
          latency-spike="0.02" spike-duration="20ms"/>
  </faults>
  <retry max-attempts="4" backoff="1ms" multiplier="2"/>
  <observability enabled="true" trace="xml_run_trace.json"/>
</canopus-config>)";
}

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  core::RuntimeConfig config;
  if (cli.has("config")) {
    config = core::load_config_file(cli.get("config", ""));
    std::printf("loaded configuration from %s\n", cli.get("config", "").c_str());
  } else {
    std::printf("using the built-in sample configuration:\n%s\n\n", kDefaultConfig);
    config = core::load_config(kDefaultConfig);
  }

  // The facade builds the hierarchy (tiers, faults, retry) and installs the
  // <observability> plan in one step; the pipeline owns the result.
  std::unique_ptr<Pipeline> pipeline;
  const Status ls = Pipeline::load(config, &pipeline);
  if (!ls.ok()) {
    std::printf("load failed: %s\n", ls.to_string().c_str());
    return 1;
  }
  auto& tiers = pipeline->hierarchy();
  std::printf("hierarchy: ");
  for (std::size_t i = 0; i < tiers.tier_count(); ++i) {
    std::printf("%s%s", i ? " > " : "", tiers.tier(i).spec().name.c_str());
  }
  std::printf("\nrefactor: %zu levels, codec %s, error bound %g, estimate %s\n\n",
              config.refactor.levels, config.refactor.codec.c_str(),
              config.refactor.error_bound,
              core::to_string(config.refactor.estimate).c_str());

  sim::XgcOptions opt;
  opt.rings = 40;
  opt.sectors = 200;
  const auto ds = sim::make_xgc_dataset(opt);
  WriteRequest wreq;
  wreq.path = "run.bp";
  wreq.var = ds.variable;
  wreq.mesh = &ds.mesh;
  wreq.values = &ds.values;
  wreq.config = config.refactor;
  WriteResult wres;
  const Status ws = pipeline->write(wreq, &wres);
  if (!ws.ok()) {
    std::printf("write failed: %s\n", ws.to_string().c_str());
    return 1;
  }
  for (const auto& p : wres.report.products) {
    std::printf("  %-7s -> tier %u (%s), %zu bytes\n", p.name.c_str(), p.tier,
                tiers.tier(p.tier).spec().name.c_str(), p.stored_bytes);
  }

  ReadRequest rreq;
  rreq.path = "run.bp";
  rreq.var = ds.variable;
  rreq.target_level = 0;  // full accuracy
  ReadResult rres;
  const Status rs = pipeline->read(rreq, &rres);
  if (!rs.usable()) {
    std::printf("read failed: %s\n", rs.to_string().c_str());
    return 1;
  }
  std::printf("\nround trip max error: %.2e (budget %.2e), status %s\n",
              util::max_abs_error(ds.values, rres.values),
              static_cast<double>(config.refactor.levels) *
                  config.refactor.error_bound,
              rs.to_string().c_str());
  if (const auto* faults = tiers.fault_injector()) {
    const auto& c = faults->counters();
    std::printf(
        "fault model: %llu read errors, %llu corruptions, %llu latency "
        "spikes injected; reader retried %zu reads (status: %s)\n",
        static_cast<unsigned long long>(c.read_errors),
        static_cast<unsigned long long>(c.corruptions),
        static_cast<unsigned long long>(c.latency_spikes),
        rres.timings.retries, core::to_string(rres.refine_status).c_str());
  }
  std::string trace;
  const Status fs = pipeline->flush_trace(&trace);
  if (!fs.ok()) std::printf("trace flush failed: %s\n", fs.to_string().c_str());
  if (!trace.empty()) std::printf("chrome trace written to %s\n", trace.c_str());
  return 0;
}
