// Closed-loop elastic topology run (acceptance bench).
//
// The paradigm the paper argues for: analytics capacity is *elastic* — the
// cluster grows and shrinks mid-campaign without stopping the query stream.
// This bench drives exactly that loop against the serving fabric:
//
//   phase 1  `--clients` closed-loop clients stream full-accuracy queries
//            through Pipeline::submit_query against a `--start-nodes` fabric;
//   phase 2  mid-stream, the control plane attaches TWO nodes
//            (Pipeline::attach_node): only the chunks whose directory owner
//            changed migrate, on the control thread before each attach
//            returns, while the clients keep querying;
//   phase 3  still mid-stream, ONE of the new nodes is detached
//            (Pipeline::detach_node): its primaries drain to the ring
//            successors, and every query planned after the detach must route
//            somewhere else.
//
// Clients never stop: a kOverloaded admission verdict backs off 1 ms and
// resubmits, so overload converts into sheds, never into lost queries.
//
// Exit is non-zero unless every acceptance criterion holds:
//   * zero lost queries — every submission completed or degraded, scheduler
//     accounting closed (failed == 0) across all three topology phases;
//   * every served field bitwise-identical to an unscheduled read of the
//     same variable at the same achieved level;
//   * no query planned after the detach routed to the removed node
//     (QueryResult::shard), and the drained node owns zero bytes;
//   * the attach actually rebalanced: the surviving new node owns chunks,
//     fabric migrations > 0, and the topology epoch advanced on every
//     change.
//
// Throughput per phase and per-node occupancy are reported for the growth
// curve; they depend on host parallelism and are not gated.
//
// Flags: --clients=6 --queries=8 --start-nodes=2 --workers=3
//        --queue-limit=32 --deadline-ms=0 (0 = auto: 4x the single-node
//        cost envelope) --threads=0 [--trace-out=f]

#include <atomic>
#include <cstring>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/topology.hpp"
#include "fabric/fabric.hpp"
#include "serve/cost_model.hpp"
#include "serve/query_scheduler.hpp"

using namespace canopus;

namespace {

struct QueryRecord {
  Status status;
  std::int32_t shard = -1;
  std::uint32_t achieved_level = 0;
  bool planned_after_detach = false;
  bool identical = true;  // vs. the unscheduled reference at achieved_level
  double cost = 0.0;      // retrieval cost + queue wait
};

struct PhaseMark {
  std::string label;
  double wall = 0.0;
  std::uint64_t completed = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const auto clients = static_cast<std::size_t>(
      std::max<std::int64_t>(2, cli.get_int("clients", 6)));
  const auto queries = static_cast<std::size_t>(
      std::max<std::int64_t>(4, cli.get_int("queries", 8)));
  const auto start_nodes = static_cast<std::size_t>(
      std::max<std::int64_t>(1, cli.get_int("start-nodes", 2)));
  serve::ServeConfig serve_config;
  serve_config.workers = static_cast<std::size_t>(
      std::max<std::int64_t>(1, cli.get_int("workers", 3)));
  serve_config.queue_limit = static_cast<std::size_t>(
      std::max<std::int64_t>(1, cli.get_int("queue-limit", 32)));
  const double deadline_ms = cli.get_double("deadline-ms", 0.0);
  bench::observability_flags(cli);

  // --- Stage the dataset and the bitwise reference. -------------------------
  const auto ds = sim::make_xgc_dataset({});
  const std::size_t raw_bytes = ds.values.size() * sizeof(double);
  storage::StorageHierarchy staging({storage::tmpfs_spec(1u << 30)});
  canopus::Options staging_options;
  staging_options.parallel.threads = bench::threads_flag(cli);
  Pipeline staging_pipeline(staging, staging_options);

  WriteRequest wreq;
  wreq.path = "run.bp";
  wreq.var = ds.variable;
  wreq.mesh = &ds.mesh;
  wreq.values = &ds.values;
  wreq.config.levels = 4;
  wreq.config.delta_chunks = 8;  // Morton ranges split across up to 8 nodes
  wreq.config.codec = "zfp";
  wreq.config.error_bound = 1e-4;
  const auto ws = staging_pipeline.write(wreq);
  if (!ws.ok()) throw Error("refactor failed: " + ws.to_string());
  const auto geometry = core::GeometryCache::load(staging, "run.bp", ds.variable);

  // Unscheduled reference per achieved level, filled lazily under a lock —
  // the identity oracle every served field is compared against.
  std::mutex reference_mu;
  std::map<std::uint32_t, mesh::Field> reference;
  auto reference_at = [&](std::uint32_t level) -> const mesh::Field& {
    std::scoped_lock lock(reference_mu);
    auto it = reference.find(level);
    if (it == reference.end()) {
      ReadRequest ref;
      ref.path = "run.bp";
      ref.var = ds.variable;
      ref.target_level = level;
      ref.geometry = &geometry;
      ReadResult out;
      const auto st = staging_pipeline.read(ref, &out);
      if (!st.ok() || out.level != level) {
        throw Error("reference read failed: " + st.to_string());
      }
      it = reference.emplace(level, std::move(out.values)).first;
    }
    return it->second;
  };

  // --- The elastic fabric and the serving pipeline. -------------------------
  fabric::FabricOptions fo;
  fo.nodes = start_nodes;
  fabric::Fabric fabric(
      fo, {storage::tmpfs_spec(raw_bytes), storage::lustre_spec(8ull << 30)});
  const auto import = fabric.import_container(staging, "run.bp");

  canopus::Options options;
  options.parallel.threads = bench::threads_flag(cli);
  options.serve = serve_config;
  Pipeline pipeline(fabric.node(0), options);
  {
    const auto st = pipeline.attach_fabric(&fabric);
    if (!st.ok()) throw Error("attach_fabric failed: " + st.to_string());
  }

  // Generous auto deadline (4x the single-node base + full-refine envelope):
  // the bench measures elasticity, not degradation, so queries should reach
  // full accuracy; remote-read envelopes after the attach stay well inside.
  double deadline = deadline_ms * 1e-3;
  if (deadline <= 0.0) {
    ReadRequest probe_request;
    probe_request.path = "run.bp";
    probe_request.var = ds.variable;
    probe_request.geometry = &geometry;
    std::unique_ptr<core::ProgressiveReader> probe;
    const auto st = pipeline.open(probe_request, &probe);
    if (!st.ok()) throw Error("probe open failed: " + st.to_string());
    const auto model = serve::CostModel::build(fabric.node(0), *probe);
    // The scheduler charges a query its retrieval only, never its queue
    // wait, so the closed load's client/worker ratio does not widen it.
    deadline = 4.0 * (serve::CostModel::charged(*probe) +
                      model.cost_between(probe->current_level(), 0));
  }

  std::cout << "workload: xgc1 dpot plane, " << ds.values.size() << " values ("
            << raw_bytes / 1024 << " KiB raw), " << clients << " clients x "
            << queries << " queries, " << start_nodes << " start nodes, "
            << serve_config.workers << " workers, deadline "
            << util::Table::num(deadline, 4) << " s\n";
  std::cout << "import: " << import.sharded << " sharded blocks ("
            << import.sharded_bytes / 1024 << " KiB), " << import.replicated
            << " replicated metadata copies\n\n";

  // --- The closed loop: clients stream, the control plane reshapes. ---------
  // Each client holds back its last `post_quota` queries until the detach has
  // landed, so the post-detach routing gate is exercised by construction even
  // on hosts fast enough to drain the free portion of the stream before the
  // control plane finishes reshaping.
  const std::uint64_t total = clients * queries;
  const std::size_t post_quota = std::max<std::size_t>(2, queries / 4);
  const std::uint64_t free_total = clients * (queries - post_quota);
  std::atomic<std::uint64_t> completed{0};
  std::atomic<bool> detach_done{false};
  std::atomic<std::uint32_t> detached_id{0};
  std::vector<std::vector<QueryRecord>> per_client(clients);
  std::vector<std::string> client_errors(clients);
  std::atomic<std::uint64_t> sheds{0};

  serve::QueryRequest base_query;
  base_query.path = "run.bp";
  base_query.var = ds.variable;
  base_query.target_level = 0;
  base_query.deadline_seconds = deadline;
  base_query.geometry = &geometry;

  std::vector<PhaseMark> marks;
  std::string control_error;
  Topology topo_grown;
  std::uint64_t epoch_before_detach = 0;
  std::uint64_t epoch_after_detach = 0;
  std::uint32_t kept_id = 0;
  util::WallTimer wall;
  marks.push_back({"start (" + std::to_string(start_nodes) + " nodes)", 0.0, 0});

  std::thread control([&] {
    try {
      auto wait_until = [&](std::uint64_t target) {
        while (completed.load(std::memory_order_relaxed) < target) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
      };
      auto must = [&](const Status& st, const std::string& what) {
        if (!st.ok()) throw Error(what + ": " + st.to_string());
      };

      // Grow by two nodes while roughly a third of the free stream is done.
      wait_until(free_total / 3);
      std::uint32_t id1 = 0;
      std::uint32_t id2 = 0;
      must(pipeline.attach_node(&id1), "attach_node #1");
      must(pipeline.attach_node(&id2), "attach_node #2");
      topo_grown = pipeline.topology();
      marks.push_back({"grown (+" + std::to_string(id1) + ",+" +
                           std::to_string(id2) + ")",
                       wall.seconds(),
                       completed.load(std::memory_order_relaxed)});

      // Shrink by one of them while the stream keeps flowing.
      wait_until((free_total * 2) / 3);
      epoch_before_detach = pipeline.topology().epoch;
      must(pipeline.detach_node(id1), "detach_node");
      epoch_after_detach = pipeline.topology().epoch;
      detached_id.store(id1, std::memory_order_relaxed);
      kept_id = id2;
      detach_done.store(true, std::memory_order_release);
      marks.push_back({"shrunk (-" + std::to_string(id1) + ")", wall.seconds(),
                       completed.load(std::memory_order_relaxed)});
    } catch (const std::exception& e) {
      control_error = e.what();
      detach_done.store(true, std::memory_order_release);  // unblock gating
    }
  });

  {
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        auto& mine = per_client[c];
        mine.reserve(queries);
        for (std::size_t q = 0; q < queries; ++q) {
          if (q == queries - post_quota) {
            while (!detach_done.load(std::memory_order_acquire)) {
              std::this_thread::sleep_for(std::chrono::microseconds(200));
            }
          }
          for (;;) {
            // Snapshot the topology gate BEFORE submitting: a query planned
            // after the detach must never land on the removed node.
            const bool after_detach =
                detach_done.load(std::memory_order_acquire);
            serve::QueryResult result;
            const Status st = pipeline.submit_query(base_query, &result);
            if (st.code == StatusCode::kOverloaded) {
              sheds.fetch_add(1, std::memory_order_relaxed);
              std::this_thread::sleep_for(std::chrono::milliseconds(1));
              continue;
            }
            if (!st.usable()) {
              client_errors[c] = st.to_string();
              return;
            }
            QueryRecord record;
            record.status = st;
            record.shard = result.shard;
            record.achieved_level = result.achieved_level;
            record.planned_after_detach = after_detach;
            record.cost = result.queue_seconds + result.timings.total();
            const auto& expected = reference_at(result.achieved_level);
            record.identical =
                expected.size() == result.values.size() &&
                std::memcmp(expected.data(), result.values.data(),
                            expected.size() * sizeof(double)) == 0;
            mine.push_back(std::move(record));
            completed.fetch_add(1, std::memory_order_relaxed);
            break;
          }
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  control.join();
  marks.push_back(
      {"end", wall.seconds(), completed.load(std::memory_order_relaxed)});

  // --- Report. --------------------------------------------------------------
  const auto stats = pipeline.query_scheduler().stats();
  const Topology topo = pipeline.topology();
  const std::uint32_t victim = detached_id.load(std::memory_order_relaxed);

  util::Table phases({"phase", "completed", "throughput(q/s)"});
  for (std::size_t i = 1; i < marks.size(); ++i) {
    const double span = marks[i].wall - marks[i - 1].wall;
    const auto done = marks[i].completed - marks[i - 1].completed;
    phases.add_row({marks[i - 1].label, std::to_string(done),
                    span > 0.0 ? util::Table::num(done / span, 1) : "-"});
  }
  phases.print(std::cout, "closed-loop phases (topology changes mid-stream)");

  util::Table occupancy({"node", "active", "alive", "owned(KiB)"});
  for (const auto& node : topo.nodes) {
    occupancy.add_row({std::to_string(node.id), node.active ? "yes" : "no",
                       node.alive ? "yes" : "no",
                       std::to_string(node.owned_bytes / 1024)});
  }
  occupancy.print(std::cout, "final topology (epoch " +
                                 std::to_string(topo.epoch) + ", " +
                                 std::to_string(topo.migrations) +
                                 " migrations)");

  std::cout << "scheduler: submitted " << stats.submitted << ", completed "
            << stats.completed << ", degraded " << stats.degraded << ", shed "
            << stats.shed << ", failed " << stats.failed << "\n";

  // --- Acceptance. ----------------------------------------------------------
  bool ok = true;
  auto check = [&](bool condition, const std::string& what) {
    std::cout << (condition ? "  ok: " : "  FAIL: ") << what << "\n";
    ok = ok && condition;
  };

  std::uint64_t served = 0;
  std::uint64_t lost = 0;
  std::uint64_t not_identical = 0;
  std::uint64_t routed_to_removed = 0;
  std::uint64_t planned_after = 0;
  for (std::size_t c = 0; c < clients; ++c) {
    if (!client_errors[c].empty()) ++lost;
    for (const auto& record : per_client[c]) {
      ++served;
      if (!record.status.usable()) ++lost;
      if (!record.identical) ++not_identical;
      if (record.planned_after_detach) {
        ++planned_after;
        if (record.shard >= 0 &&
            static_cast<std::uint32_t>(record.shard) == victim) {
          ++routed_to_removed;
        }
      }
    }
  }

  std::cout << "\nacceptance:\n";
  check(control_error.empty(), "control plane succeeded" +
                                   (control_error.empty()
                                        ? std::string()
                                        : " (error: " + control_error + ")"));
  check(served == total && lost == 0 && stats.failed == 0,
        "zero lost queries across grow and shrink (" + std::to_string(served) +
            "/" + std::to_string(total) + " served, " + std::to_string(lost) +
            " lost)");
  check(not_identical == 0,
        "every served field bitwise-identical to the unscheduled reference (" +
            std::to_string(not_identical) + " mismatches)");
  check(planned_after >= clients * post_quota,
        "the post-detach routing gate was exercised (" +
            std::to_string(planned_after) + " queries planned after detach)");
  check(routed_to_removed == 0,
        "no query planned after the detach routed to the removed node (" +
            std::to_string(routed_to_removed) + " violations)");
  if (control_error.empty()) {
    check(topo.nodes.size() == start_nodes + 2 &&
              topo.active_nodes() == start_nodes + 1,
          "topology settled at " + std::to_string(start_nodes + 1) +
              " active of " + std::to_string(start_nodes + 2) + " slots");
    check(victim < topo.nodes.size() && !topo.nodes[victim].active &&
              topo.nodes[victim].owned_bytes == 0,
          "the detached node is inactive and owns nothing");
    check(kept_id < topo.nodes.size() && topo.nodes[kept_id].active &&
              topo.nodes[kept_id].owned_bytes > 0,
          "the surviving attached node owns rebalanced chunks");
    check(topo_grown.epoch > 0 && epoch_after_detach > epoch_before_detach,
          "the topology epoch advanced on every change");
    check(topo.migrations > 0,
          "migrations moved only owner-changed chunks while queries ran (" +
              std::to_string(topo.migrations) + " moves)");
  }

  std::cout << '\n';
  bench::flush_observability(std::cout);

  if (!ok) {
    std::cout << "\nFAIL: elastic acceptance criteria not met\n";
    return 1;
  }
  return 0;
}
