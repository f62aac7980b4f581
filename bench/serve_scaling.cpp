// Closed-loop multi-client serving under overload (ISSUE 5 acceptance run).
//
// The regime the scheduler exists for: N ≫ capacity analytics clients each
// issue a stream of full-accuracy queries against one refactored variable.
// Two configurations over the identical workload:
//
//   baseline   every client greedily refines to full accuracy on its own
//              ReadSession — no arbitration, the slow tier saturates and
//              every query pays the full retrieval cost;
//   scheduled  the same clients go through Pipeline::submit_query with a
//              deadline that covers the base plus ~40 % of the refinement
//              work. Admission is bounded (queue-limit); shed clients back
//              off 1 ms and resubmit (closed loop), so every query
//              eventually completes, degrades, or counts a shed.
//
// One client in four is high-priority (priority 8) — the "urgent dashboard"
// stream whose p99 the scheduler must protect under overload.
//
// Latency accounting is the retrieval cost the repo reports
// (RetrievalTimings::total(): simulated tier I/O + measured decode and
// restore wall time); the scheduled runs add the real wall time spent
// queued. The deadline is on the scheduler's own clock, simulated I/O plus
// the per-value compute price (serve::CostModel::charged). Exit is non-zero
// unless every acceptance criterion holds:
//
//   * zero unbounded queuing: every query resolved, max queue depth never
//     exceeded the configured bound, and overload actually shed (> 0);
//   * p99 latency of the high-priority scheduled stream below the baseline
//     p99;
//   * every served field bitwise-identical to an unscheduled
//     Pipeline::read at the same achieved level.
//
// Flags: --clients=24 --queries=3 --workers=2 --queue-limit=12
//        --deadline-ms=0 (0 = auto: base cost + 40 % of the full refine
//        cost) --threads=0 [--trace-out=f]

#include <algorithm>
#include <cstring>
#include <iostream>
#include <map>
#include <thread>

#include "bench_common.hpp"
#include "serve/cost_model.hpp"
#include "serve/query_scheduler.hpp"

using namespace canopus;

namespace {

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(xs.size())));
  return xs[std::min(xs.size() - 1, rank == 0 ? 0 : rank - 1)];
}

struct RunSummary {
  std::string label;
  std::vector<double> latencies;           // every query, cost seconds
  std::vector<double> high_pri_latencies;  // the priority-8 stream
  std::uint64_t completed = 0;
  std::uint64_t degraded = 0;
  std::uint64_t shed = 0;  // resubmitted by the closed loop
  double wall = 0.0;
  double mean_achieved = 0.0;
  /// First field served at each distinct achieved level, for the bitwise
  /// identity checks.
  std::map<std::uint32_t, mesh::Field> fields_by_level;
  bool intra_level_identical = true;
};

/// No-scheduler baseline: `clients` threads, each refining `queries` fresh
/// sessions to full accuracy, all at once.
RunSummary run_baseline(Pipeline& pipeline, const ReadRequest& rreq,
                        std::size_t clients, std::size_t queries) {
  RunSummary r;
  r.label = "baseline (greedy)";
  std::vector<std::vector<double>> per_client(clients);
  std::vector<std::string> errors(clients);
  util::WallTimer wall;
  {
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        for (std::size_t q = 0; q < queries; ++q) {
          std::unique_ptr<ReadSession> session;
          auto st = pipeline.open_session(rreq, &session);
          if (st.ok()) st = session->refine_to(0);
          if (!st.usable()) {
            errors[c] = st.to_string();
            return;
          }
          per_client[c].push_back(session->timings().total());
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  r.wall = wall.seconds();
  for (std::size_t c = 0; c < clients; ++c) {
    if (!errors[c].empty()) throw Error("baseline client failed: " + errors[c]);
    for (double l : per_client[c]) {
      r.latencies.push_back(l);
      if (c % 4 == 0) r.high_pri_latencies.push_back(l);
    }
  }
  r.completed = r.latencies.size();
  return r;
}

/// Scheduled closed loop: kOverloaded submissions back off 1 ms and retry
/// until the query lands, so overload converts into sheds + latency, never
/// into lost queries.
RunSummary run_scheduled(Pipeline& pipeline, const serve::QueryRequest& base_query,
                         std::size_t clients, std::size_t queries) {
  RunSummary r;
  r.label = "scheduled";
  auto& scheduler = pipeline.query_scheduler();

  struct PerClient {
    std::vector<double> latencies;
    std::vector<serve::QueryResult> results;
    std::uint64_t degraded = 0;
    std::uint64_t shed = 0;
    std::string error;
  };
  std::vector<PerClient> per_client(clients);

  util::WallTimer wall;
  {
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        auto& mine = per_client[c];
        serve::QueryRequest request = base_query;
        request.priority = (c % 4 == 0) ? 8 : 0;
        for (std::size_t q = 0; q < queries; ++q) {
          for (;;) {
            const serve::QueryOutcome outcome =
                scheduler.submit(request).get();
            if (outcome.status.code == StatusCode::kOverloaded) {
              ++mine.shed;  // admission backpressure: back off, try again
              std::this_thread::sleep_for(std::chrono::milliseconds(1));
              continue;
            }
            if (!outcome.status.usable()) {
              mine.error = outcome.status.to_string();
              return;
            }
            if (outcome.status.degraded) ++mine.degraded;
            mine.latencies.push_back(outcome.result.queue_seconds +
                                     outcome.result.timings.total());
            mine.results.push_back(std::move(outcome.result));
            break;
          }
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  r.wall = wall.seconds();

  double level_sum = 0.0;
  for (std::size_t c = 0; c < clients; ++c) {
    auto& mine = per_client[c];
    if (!mine.error.empty()) {
      throw Error("scheduled client failed: " + mine.error);
    }
    r.degraded += mine.degraded;
    r.shed += mine.shed;
    for (std::size_t q = 0; q < mine.latencies.size(); ++q) {
      r.latencies.push_back(mine.latencies[q]);
      if (c % 4 == 0) r.high_pri_latencies.push_back(mine.latencies[q]);
      const auto& result = mine.results[q];
      level_sum += result.achieved_level;
      auto [it, inserted] =
          r.fields_by_level.emplace(result.achieved_level, result.values);
      if (!inserted) {
        // Every query served at the same level must return the same bits.
        r.intra_level_identical =
            r.intra_level_identical &&
            it->second.size() == result.values.size() &&
            std::memcmp(it->second.data(), result.values.data(),
                        it->second.size() * sizeof(double)) == 0;
      }
    }
  }
  r.completed = r.latencies.size();
  r.mean_achieved =
      r.completed > 0 ? level_sum / static_cast<double>(r.completed) : 0.0;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const auto clients =
      static_cast<std::size_t>(std::max<std::int64_t>(2, cli.get_int("clients", 24)));
  const auto queries =
      static_cast<std::size_t>(std::max<std::int64_t>(1, cli.get_int("queries", 3)));
  serve::ServeConfig serve_config;
  serve_config.workers =
      static_cast<std::size_t>(std::max<std::int64_t>(1, cli.get_int("workers", 2)));
  serve_config.queue_limit = static_cast<std::size_t>(
      std::max<std::int64_t>(1, cli.get_int("queue-limit", 12)));
  const double deadline_ms = cli.get_double("deadline-ms", 0.0);
  bench::observability_flags(cli);

  const auto ds = sim::make_xgc_dataset({});
  const std::size_t raw_bytes = ds.values.size() * sizeof(double);
  auto tiers = bench::make_two_tier(raw_bytes);

  bench::PipelineOptions io_opt;
  bench::io_flags(cli, io_opt);
  canopus::Options popt;
  popt.parallel.threads = bench::threads_flag(cli);
  popt.io.depth = io_opt.io_depth;
  Pipeline pipeline(tiers, popt);

  WriteRequest wreq;
  wreq.path = "run.bp";
  wreq.var = ds.variable;
  wreq.mesh = &ds.mesh;
  wreq.values = &ds.values;
  wreq.config.levels = 4;  // decimation ratio 8
  wreq.config.delta_chunks = io_opt.delta_chunks;
  wreq.config.codec = "zfp";
  wreq.config.error_bound = 1e-4;
  const auto ws = pipeline.write(wreq);
  if (!ws.ok()) throw Error("refactor failed: " + ws.to_string());
  const auto geometry = core::GeometryCache::load(tiers, "run.bp", ds.variable);

  ReadRequest rreq;
  rreq.path = "run.bp";
  rreq.var = ds.variable;
  rreq.geometry = &geometry;

  // Probe the deterministic cost envelope on the scheduler's clock: the
  // open's charge plus the planner's estimate of the full base->L0
  // refinement. The auto deadline covers the base and ~40 % of the
  // refinement work, so under overload the scheduler must degrade a
  // meaningful fraction of queries instead of letting everyone refine
  // greedily.
  double base_cost = 0.0;
  double full_refine_cost = 0.0;
  {
    std::unique_ptr<core::ProgressiveReader> probe;
    const auto st = pipeline.open(rreq, &probe);
    if (!st.ok()) throw Error("probe open failed: " + st.to_string());
    base_cost = serve::CostModel::charged(*probe);
    const auto model = serve::CostModel::build(tiers, *probe);
    full_refine_cost = model.cost_between(probe->current_level(), 0);
  }
  const double deadline = deadline_ms > 0.0 ? deadline_ms * 1e-3
                                            : base_cost + 0.4 * full_refine_cost;
  serve_config.default_deadline_seconds = deadline;

  std::cout << "workload: xgc1 dpot plane, " << ds.values.size() << " values ("
            << raw_bytes / 1024 << " KiB raw), " << clients << " clients x "
            << queries << " queries, " << serve_config.workers
            << " scheduler workers, queue limit " << serve_config.queue_limit
            << "\n";
  std::cout << "cost envelope: base " << util::Table::num(base_cost, 4)
            << " s, full refine " << util::Table::num(full_refine_cost, 4)
            << " s, deadline " << util::Table::num(deadline, 4) << " s\n\n";

  // The scheduled pipeline is separate so its serve knobs apply and the
  // baseline's sessions cannot warm anything for it (and vice versa: no
  // cache is configured, every query pays its own tier reads).
  canopus::Options spopt;
  spopt.parallel.threads = bench::threads_flag(cli);
  spopt.io.depth = io_opt.io_depth;
  spopt.serve = serve_config;
  Pipeline scheduled_pipeline(tiers, spopt);
  serve::QueryRequest base_query;
  base_query.path = "run.bp";
  base_query.var = ds.variable;
  base_query.target_level = 0;
  base_query.geometry = &geometry;

  const auto baseline = run_baseline(pipeline, rreq, clients, queries);
  const auto scheduled =
      run_scheduled(scheduled_pipeline, base_query, clients, queries);
  const auto stats = scheduled_pipeline.query_scheduler().stats();

  util::Table t({"config", "queries", "degraded", "shed", "p50(s)", "p99(s)",
                 "hi-pri p99(s)", "wall(s)"});
  for (const auto* r : {&baseline, &scheduled}) {
    t.add_row({r->label, std::to_string(r->completed),
               std::to_string(r->degraded), std::to_string(r->shed),
               util::Table::num(percentile(r->latencies, 0.50), 4),
               util::Table::num(percentile(r->latencies, 0.99), 4),
               util::Table::num(percentile(r->high_pri_latencies, 0.99), 4),
               util::Table::num(r->wall, 3)});
  }
  t.print(std::cout, "closed-loop serving, latency = retrieval cost (+ queue wait)");

  std::cout << "\nscheduler stats: submitted " << stats.submitted << ", admitted "
            << stats.admitted << ", shed " << stats.shed << ", completed "
            << stats.completed << ", degraded " << stats.degraded << ", failed "
            << stats.failed << ", max queue depth " << stats.max_queue_depth
            << " (limit " << serve_config.queue_limit << ")\n";
  std::cout << "mean achieved level (0 = full accuracy): "
            << util::Table::num(scheduled.mean_achieved, 2) << "\n";

  // --- acceptance checks ---------------------------------------------------
  bool ok = true;
  auto check = [&](bool condition, const std::string& what) {
    std::cout << (condition ? "  ok: " : "  FAIL: ") << what << "\n";
    ok = ok && condition;
  };

  std::cout << "\nacceptance:\n";
  check(scheduled.completed == clients * queries,
        "every query completed or degraded after backoff (" +
            std::to_string(scheduled.completed) + "/" +
            std::to_string(clients * queries) + ")");
  check(stats.submitted == stats.admitted + stats.shed &&
            stats.admitted == stats.completed + stats.failed &&
            stats.failed == 0,
        "scheduler accounting closed (no lost or failed queries)");
  // Overload is only guaranteed when the first client wave alone overwhelms
  // the admission capacity (queue slots + running workers).
  const bool overloaded_regime =
      clients > serve_config.queue_limit + serve_config.workers;
  if (overloaded_regime) {
    check(stats.shed == scheduled.shed && stats.shed > 0,
          "overload shed with kOverloaded (" + std::to_string(stats.shed) +
              " sheds) and every shed was observed by a client");
  } else {
    check(stats.shed == scheduled.shed,
          "every shed was observed by a client (clients <= capacity: shedding "
          "not required)");
  }
  check(stats.max_queue_depth <= serve_config.queue_limit,
        "queue depth never exceeded the bound (" +
            std::to_string(stats.max_queue_depth) + " <= " +
            std::to_string(serve_config.queue_limit) + ")");
  const double baseline_p99 = percentile(baseline.latencies, 0.99);
  const double high_pri_p99 = percentile(scheduled.high_pri_latencies, 0.99);
  check(high_pri_p99 < baseline_p99,
        "high-priority p99 under overload below the no-scheduler baseline (" +
            util::Table::num(high_pri_p99, 4) + " < " +
            util::Table::num(baseline_p99, 4) + " s)");
  check(scheduled.intra_level_identical,
        "queries served at the same level returned identical bits");
  for (const auto& [level, field] : scheduled.fields_by_level) {
    ReadRequest ref = rreq;
    ref.target_level = level;
    ReadResult reference;
    const auto st = pipeline.read(ref, &reference);
    check(st.ok() && reference.level == level &&
              reference.values.size() == field.size() &&
              std::memcmp(reference.values.data(), field.data(),
                          field.size() * sizeof(double)) == 0,
          "served field bitwise-identical to unscheduled read at level " +
              std::to_string(level));
  }

  std::cout << '\n';
  bench::flush_observability(std::cout);

  if (!ok) {
    std::cout << "\nFAIL: acceptance criteria not met\n";
    return 1;
  }
  return 0;
}
