#include "io/io_ring.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/observability.hpp"
#include "util/assert.hpp"
#include "util/timer.hpp"

namespace canopus::io {

double overlap_makespan(const std::vector<double>& costs, std::uint32_t depth) {
  if (depth <= 1) {
    // Ordered sum, matching the historical fold of blocking readers exactly
    // (same accumulation order, so the same floating-point bits).
    double sum = 0.0;
    for (const double c : costs) sum += c;
    return sum;
  }
  const std::size_t lanes =
      std::min<std::size_t>(depth, std::max<std::size_t>(1, costs.size()));
  std::vector<double> lane(lanes, 0.0);
  double makespan = 0.0;
  for (const double c : costs) {
    // Greedy list schedule in submission order; min_element's first-of-ties
    // rule keeps the schedule deterministic.
    auto slot = std::min_element(lane.begin(), lane.end());
    *slot += c;
    makespan = std::max(makespan, *slot);
  }
  return makespan;
}

IoRing::IoRing(const storage::StorageHierarchy& hierarchy, IoConfig config)
    : hierarchy_(hierarchy),
      config_(config),
      max_batch_(std::clamp<std::uint32_t>(
          config.batch == 0 ? 1 : config.batch, 1,
          std::max<std::uint32_t>(1, config.depth))) {}

std::size_t IoRing::submit(std::string key) {
  const std::size_t id = next_id_++;
  if (group_fill_ >= max_batch_) {
    ++group_counter_;
    group_fill_ = 0;
  }
  ++group_fill_;
  queue_.push_back(Pending{id, std::move(key), group_counter_});
  ++stats_.submitted;
  if (obs::enabled()) {
    obs::MetricsRegistry::global().gauge("io.inflight").set(
        static_cast<std::int64_t>(in_flight()));
  }
  return id;
}

void IoRing::pump() {
  const std::uint32_t depth = std::max<std::uint32_t>(1, config_.depth);
  while (!queue_.empty()) {
    // The front run: every queued member of the front op's group. Groups are
    // contiguous in the queue because submit() assigns them in order.
    const std::size_t group = queue_.front().group;
    std::size_t run = 1;
    while (run < queue_.size() && queue_[run].group == group) ++run;
    // A group is issued whole or not at all. run <= max_batch_ <= depth, so
    // with no completion outstanding the front group always fits.
    if (ready_.size() + run > depth) break;
    if (group == group_counter_) {
      // Issuing the open tail closes it, so later submissions start a fresh
      // group instead of retroactively extending this one.
      ++group_counter_;
      group_fill_ = 0;
    }
    std::vector<Pending> ops(std::make_move_iterator(queue_.begin()),
                             std::make_move_iterator(queue_.begin() + run));
    queue_.erase(queue_.begin(), queue_.begin() + run);
    std::vector<std::string> keys;
    keys.reserve(ops.size());
    for (const auto& op : ops) keys.push_back(op.key);
    util::WallTimer submit_timer;
    auto results = hierarchy_.read_batch(keys);
    const double submit_seconds = submit_timer.seconds();
    CANOPUS_ASSERT(results.size() == ops.size());
    ++stats_.batches;
    const bool observe = obs::enabled();
    auto& registry = obs::MetricsRegistry::global();
    if (observe) {
      registry.histogram("io.submit_us").observe(submit_seconds * 1e6);
    }
    for (std::size_t i = 0; i < ops.size(); ++i) {
      IoCompletion c;
      c.id = ops[i].id;
      c.key = std::move(ops[i].key);
      c.payload = std::move(results[i].bytes);
      c.io = results[i].io;
      c.error = results[i].error;
      c.deadline_missed = config_.deadline_seconds > 0.0 &&
                          c.io.sim_seconds > config_.deadline_seconds;
      if (c.deadline_missed) ++stats_.deadline_misses;
      if (observe) {
        // Simulated per-op latency, same convention as storage.<tier>.read_us.
        registry.histogram("io.complete_us").observe(c.io.sim_seconds * 1e6);
        if (c.deadline_missed) registry.counter("io.deadline_misses").add(1);
      }
      ready_.push_back(std::move(c));
    }
  }
}

IoCompletion IoRing::wait_next() {
  CANOPUS_CHECK(in_flight() > 0,
                "IoRing::wait_next with no operation outstanding");
  if (ready_.empty()) pump();
  IoCompletion c = std::move(ready_.front());
  ready_.pop_front();
  ++stats_.completed;
  if (obs::enabled()) {
    obs::MetricsRegistry::global().gauge("io.inflight").set(
        static_cast<std::int64_t>(in_flight()));
  }
  return c;
}

}  // namespace canopus::io
