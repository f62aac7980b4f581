#pragma once
// Batched submission/completion engine: a bounded ring of tier operations
// with batched submission, consumed in submission order.
//
// The shape follows ScaleStore's AsyncReadBuffer: a reader submits the keys
// it needs, the engine issues them against the storage hierarchy through the
// batched submit seam (StorageHierarchy::read_batch) in groups of up to
// `batch`, keeping at most `depth` completions outstanding, and the reader
// consumes completions in submission order.
//
// The ring is synchronous and single-owner: wait_next() executes the next
// batches on the calling thread when no completion is ready. There is no
// background driver, so a ring built on a pool worker can never wait on a
// task queued behind that same worker.
//
// Determinism: batches execute strictly in submission order, and read_batch
// preserves key order inside a batch, so the tiers (and the seeded fault
// injector) see the same operation sequence as a serial read loop — batched
// submission changes how I/O is charged, never what happens to each op.
// Batch boundaries are fixed too: every op is assigned to a group of at most
// `batch` ops at submit time, and a group is always issued as one read_batch
// call (read_batch amortizes tier round-trip latency within a call).
//
// Accounting for overlapped I/O lives next door: overlap_makespan() converts
// a list of per-op simulated costs into the simulated wall-clock of running
// them `depth`-way overlapped, which is what RetrievalTimings charges at
// depth > 1 (sum == makespan at depth 1, so blocking accounting is
// unchanged).

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "io/io_config.hpp"
#include "storage/hierarchy.hpp"

namespace canopus::io {

/// Simulated wall-clock seconds of executing ops with the given sim costs on
/// `depth` overlapped lanes, in submission order (greedy earliest-free-lane
/// list schedule — exactly the bound a ring of `depth` slots achieves).
/// Deterministic; depth <= 1 reduces to the plain ordered sum, which keeps
/// async-off step accounting bit-identical to the historical per-op fold.
double overlap_makespan(const std::vector<double>& costs, std::uint32_t depth);

/// One finished operation, handed out in submission order.
struct IoCompletion {
  std::size_t id = 0;     // submission index (0-based, monotonically rising)
  std::string key;        // the object read
  util::Bytes payload;    // empty when error is set
  storage::IoResult io;   // per-op accounting (batched amortization applied)
  std::exception_ptr error;      // the op's failure, exactly as read() throws
  bool deadline_missed = false;  // sim cost exceeded IoConfig::deadline_seconds
};

/// Not thread-safe: one thread submits and consumes.
class IoRing {
 public:
  /// Rings issue reads against `hierarchy`, which must outlive the ring.
  IoRing(const storage::StorageHierarchy& hierarchy, IoConfig config);

  /// Ops still queued when the ring is destroyed are dropped, never read: an
  /// abandoned level must not advance the tiers' fault stream past what a
  /// serial reader abandoning the same level would have read.
  ~IoRing() = default;

  IoRing(const IoRing&) = delete;
  IoRing& operator=(const IoRing&) = delete;

  /// Enqueues a read of `key`; returns its submission id. Performs no I/O.
  std::size_t submit(std::string key);

  /// Next completion in submission order. When none is ready, executes whole
  /// batches in order until `depth` completions are outstanding (at least
  /// one batch). Calling with nothing outstanding is a bug (throws).
  IoCompletion wait_next();

  /// Ops submitted and not yet consumed.
  std::size_t in_flight() const { return queue_.size() + ready_.size(); }

  /// Monotonic engine counters (independent of the obs layer so tests can
  /// assert exact accounting with observability off).
  struct Stats {
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t batches = 0;          // read_batch calls issued
    std::uint64_t deadline_misses = 0;  // ops over IoConfig::deadline_seconds
  };
  const Stats& stats() const { return stats_; }

 private:
  struct Pending {
    std::size_t id;
    std::string key;
    std::size_t group;  // logical batch assigned at submit time
  };

  /// Executes queued groups in order while completions stay under the depth
  /// bound. Issuing the open tail group closes it.
  void pump();

  const storage::StorageHierarchy& hierarchy_;
  const IoConfig config_;
  const std::uint32_t max_batch_;  // effective group size (batch clamped)

  std::deque<Pending> queue_;        // submitted, not yet executed
  std::deque<IoCompletion> ready_;   // executed, not yet consumed (in order)
  std::size_t next_id_ = 0;
  std::size_t group_counter_ = 0;    // id of the currently open group
  std::uint32_t group_fill_ = 0;     // members submitted to the open group
  Stats stats_;
};

}  // namespace canopus::io
