#include "core/progressive_reader.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>
#include <utility>

#include "core/delta.hpp"
#include "io/overlap_makespan.hpp"
#include "obs/metrics.hpp"
#include "obs/observability.hpp"
#include "obs/trace.hpp"
#include "storage/blob_frame.hpp"
#include "storage/fault.hpp"
#include "util/assert.hpp"

namespace canopus::core {

std::string to_string(RefineStatus status) {
  switch (status) {
    case RefineStatus::kOk: return "ok";
    case RefineStatus::kRetried: return "retried";
    case RefineStatus::kDegraded: return "degraded";
  }
  CANOPUS_UNREACHABLE("unknown refine status");
}

namespace {
/// RMS of a delta field. Permutation-invariant, so equally valid on the
/// Morton storage order and the vertex order.
double rms_of(const mesh::Field& delta) {
  if (delta.empty()) return 0.0;
  double sum2 = 0.0;
  for (const double d : delta) sum2 += d * d;
  return std::sqrt(sum2 / static_cast<double>(delta.size()));
}

/// Chunk ids 0 .. count-1: every chunk of a level, in chunk order.
std::vector<std::uint32_t> all_chunks(std::uint32_t count) {
  std::vector<std::uint32_t> ids(count);
  std::iota(ids.begin(), ids.end(), 0u);
  return ids;
}
}  // namespace

ProgressiveReader::ProgressiveReader(storage::StorageHierarchy& hierarchy,
                                     const std::string& path, std::string var,
                                     const GeometryCache* geometry,
                                     ReaderOptions options)
    : hierarchy_(hierarchy),
      reader_(hierarchy, path),
      var_(std::move(var)),
      info_(reader_.inq_var(var_)),
      geometry_(geometry) {
  if (options.shared_pool != nullptr) {
    shared_pool_ = options.shared_pool;
  } else if (options.parallel.threads > 0) {
    local_pool_.emplace(options.parallel.threads);
  }
  io_config_ = options.io;
  // Read-ahead needs at least one worker besides the applying thread; with a
  // single pinned worker the reader stays fully serial, by design.
  read_ahead_ = options.parallel.read_ahead && pool().size() > 1;

  levels_ = container_levels(reader_);
  if (const auto est = reader_.attribute("estimate")) {
    estimate_ = estimate_mode_from_string(*est);
  }
  CANOPUS_CHECK(!geometry_ || geometry_->level_count() == levels_,
                "geometry cache does not match this container");

  current_level_ = static_cast<std::uint32_t>(levels_ - 1);
  // The base retrieval rides on the hierarchy's retries + replica fallback
  // (BpWriter replicates base blocks); with no copy left there is nothing to
  // degrade to, so a failure here propagates.
  CANOPUS_SPAN("read.open_base", {{"var", var_}, {"level", current_level_}});
  adios::ReadTiming data_t;
  values_ = reader_.read_doubles(var_, adios::BlockKind::kBase, current_level_,
                                 &data_t);
  cumulative_.charge(data_t);
  cumulative_.values_decoded += values_.size();
  if (!geometry_) {
    owned_geometry_ = GeometryCache::load(reader_, var_, &cumulative_,
                                          storage::Admission::kAdmit, &pool());
    geometry_ = &*owned_geometry_;
  }
  CANOPUS_CHECK(values_.size() == geometry_->vertex_count(current_level_),
                "base level inconsistent with its mesh");
}

util::ThreadPool& ProgressiveReader::pool() const {
  if (shared_pool_ != nullptr) return *shared_pool_;
  return local_pool_ ? *local_pool_ : util::ThreadPool::global();
}

double ProgressiveReader::decimation_ratio() const {
  return static_cast<double>(geometry_->vertex_count(0)) /
         static_cast<double>(values_.size());
}

std::uint32_t ProgressiveReader::delta_chunk_count(std::uint32_t level) const {
  const auto* first = info_.block(adios::BlockKind::kDelta, level);
  CANOPUS_CHECK(first != nullptr, "delta block missing");
  return first->chunk_count;
}

ChunkIndex ProgressiveReader::chunk_index(std::uint32_t level) const {
  const auto chunks = delta_chunk_count(level);
  const auto n = geometry_->vertex_count(level);
  const auto block = [&](std::uint32_t chunk) {
    return "delta block of '" + var_ + "' at level " + std::to_string(level) +
           ", chunk " + std::to_string(chunk) + ": ";
  };
  CANOPUS_CHECK(chunks >= 1 && chunks <= n,
                block(0) + std::to_string(chunks) + " chunks of a " +
                    std::to_string(n) + "-vertex level");
  auto index = ChunkIndex::derive(geometry_->vertices(level),
                                  geometry_->order(level), chunks);
  // The records are container input: a regional step copies each fetched
  // chunk to the range derived for it, so every record must hold that range.
  for (const auto& b : info_.blocks) {
    if (b.kind != adios::BlockKind::kDelta || b.level != level) continue;
    CANOPUS_CHECK(b.chunk < chunks && b.chunk_count == chunks,
                  block(b.chunk) + "chunk of " + std::to_string(b.chunk_count) +
                      " in a level of " + std::to_string(chunks));
    const auto count = index.chunks[b.chunk].count;
    CANOPUS_CHECK(b.value_count == count,
                  block(b.chunk) + std::to_string(b.value_count) +
                      " values for a range of " + std::to_string(count));
  }
  return index;
}

ProgressiveReader::RawChunks ProgressiveReader::fetch_level(
    std::uint32_t level, const std::vector<std::uint32_t>& chunks,
    RetrievalTimings& step) const {
  // The span runs on whichever thread fetches — the caller, or a pool worker
  // for the read-ahead — so the trace shows which reads were overlapped.
  CANOPUS_SPAN("read.fetch", {{"level", level}, {"chunks", chunks.size()}});
  RawChunks out(chunks.size());
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    const auto it = std::find_if(
        info_.blocks.begin(), info_.blocks.end(), [&](const auto& b) {
          return b.kind == adios::BlockKind::kDelta && b.level == level &&
                 b.chunk == chunks[i];
        });
    CANOPUS_CHECK(it != info_.blocks.end(), "delta chunk record missing");
    CANOPUS_CHECK(it->codec != "none", "block is opaque; use read_opaque");
    out[i].record = *it;
  }
  // One read at a time, in chunk order, stopping at the first failure: the
  // hierarchy (and a seeded fault injector) sees the same reads at any depth.
  std::vector<double> costs;
  costs.reserve(chunks.size());
  std::exception_ptr failure;
  for (auto& raw : out) {
    storage::IoResult io;
    util::WallTimer submit_timer;
    try {
      io = hierarchy_.read(raw.record.object_key, raw.payload);
    } catch (const storage::StorageError& e) {
      io = e.charge;  // a read that gave up still pays for its attempts
      failure = std::current_exception();
    } catch (...) {
      failure = std::current_exception();
    }
    if (obs::enabled()) {
      obs::MetricsRegistry::global().histogram("io.submit_us").observe(
          submit_timer.seconds() * 1e6);
    }
    costs.push_back(io.sim_seconds);
    io.sim_seconds = 0.0;  // charged below, as the serial sum or the makespan
    step.charge(io);
    if (failure) break;
  }
  if (io_config_.enabled()) {
    step.io_seconds += io::overlap_makespan(costs, io_config_.depth);
  } else {
    for (const double c : costs) step.io_seconds += c;  // the per-op fold
  }
  if (failure) std::rethrow_exception(failure);
  return out;
}

std::vector<cache::BlockCache::ArrayPtr> ProgressiveReader::decode_level(
    std::uint32_t level, const RawChunks& chunks, RetrievalTimings& step) {
  CANOPUS_SPAN("read.decompress",
               {{"level", level}, {"chunks", chunks.size()}});
  cache::BlockCache* cache = hierarchy_.block_cache();
  std::vector<cache::BlockCache::ArrayPtr> parts(chunks.size());
  std::vector<double> decode_seconds(chunks.size(), 0.0);
  std::vector<std::size_t> decoded(chunks.size(), 0);
  pool().parallel_for(0, chunks.size(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t c = lo; c < hi; ++c) {
      const auto& rc = chunks[c];
      const auto decode = [&] {
        decoded[c] = rc.record.value_count;
        return adios::BpReader::decode_chunk(rc.record, rc.payload,
                                             &decode_seconds[c]);
      };
      // Single-flight means exactly one session pays a cached decode; only
      // that leader's wall time and values land in the step (hits charge
      // zero, like cached I/O).
      parts[c] = cache != nullptr
                     ? cache
                           ->get_or_load_array(
                               storage::StorageHierarchy::decoded_alias(
                                   rc.record.object_key),
                               decode)
                           .array
                     : std::make_shared<const std::vector<double>>(decode());
    }
  });
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    step.decompress_seconds += decode_seconds[c];
    step.values_decoded += decoded[c];
  }
  return parts;
}

void ProgressiveReader::restore_next(std::uint32_t next, mesh::Field delta,
                                     bool chunked, RetrievalTimings& step) {
  CANOPUS_SPAN("read.restore", {{"level", next}});
  util::WallTimer t;
  if (chunked) delta = unpermute(delta, geometry_->order(next), pool());
  values_ = restore_level(geometry_->mesh(current_level_), values_,
                          geometry_->vertices(next), delta,
                          geometry_->mappings[next], estimate_, &pool());
  step.restore_seconds += t.seconds();
}

void ProgressiveReader::start_prefetch(std::uint32_t level) {
  if (!read_ahead_) return;
  // Cache-aware read-ahead: when every delta chunk of the level is already
  // resident in the shared block cache, the synchronous fetch will be all
  // hits at zero simulated cost — spending a pool worker on it would only
  // add task overhead and steal a thread from sibling sessions.
  if (const cache::BlockCache* cache = hierarchy_.block_cache()) {
    std::size_t chunks = 0;
    bool resident = true;
    for (const auto& b : info_.blocks) {
      if (b.kind != adios::BlockKind::kDelta || b.level != level) continue;
      ++chunks;
      if (!cache->contains(b.object_key)) {
        resident = false;
        break;
      }
    }
    if (chunks > 0 && resident) {
      obs::MetricsRegistry::global()
          .counter("reader.prefetch_skipped_cached")
          .add(1);
      return;
    }
  }
  prefetch_ = pool().submit([this, level] {
    Prefetch p;
    p.level = level;
    try {
      p.chunks = fetch_level(level, all_chunks(delta_chunk_count(level)), p.io);
    } catch (...) {
      p.error = std::current_exception();
    }
    return p;
  });
}

ProgressiveReader::RawChunks ProgressiveReader::take_prefetch(
    std::uint32_t level, RetrievalTimings& step) {
  Prefetch p = prefetch_.get();
  CANOPUS_ASSERT(p.level == level);
  obs::MetricsRegistry::global().counter("reader.prefetch_hits").add(1);
  // The read-ahead's I/O is charged to the step that consumes it; a failed
  // read-ahead degrades this step exactly like a synchronous fetch would.
  step += p.io;
  if (p.error) std::rethrow_exception(p.error);
  return std::move(p.chunks);
}

RetrievalTimings ProgressiveReader::degrade(RetrievalTimings step) {
  // The fetch failed after retries and replica fallback: keep the last good
  // level (values_/current_level_ were not touched yet) and surface the
  // outcome as a status, not an exception — analytics continue on what they
  // have, exactly the elastic-accuracy contract.
  step.degraded_steps += 1;
  obs::MetricsRegistry::global().counter("reader.degraded_steps").add(1);
  last_status_ = RefineStatus::kDegraded;
  cumulative_ += step;
  return step;
}

RetrievalTimings ProgressiveReader::advance(std::uint32_t next,
                                            double delta_rms,
                                            RetrievalTimings step) {
  current_level_ = next;
  last_delta_rms_ = delta_rms;
  last_status_ = step.retries > 0 || step.replica_reads > 0
                     ? RefineStatus::kRetried
                     : RefineStatus::kOk;
  CANOPUS_CHECK(values_.size() == geometry_->vertex_count(current_level_),
                "restored level inconsistent with its mesh");
  cumulative_ += step;
  return step;
}

RetrievalTimings ProgressiveReader::refine() {
  return refine_step(std::nullopt);
}

RetrievalTimings ProgressiveReader::refine_step(
    std::optional<std::uint32_t> read_ahead_to) {
  CANOPUS_CHECK(current_level_ > 0, "already at full accuracy");
  const std::uint32_t next = current_level_ - 1;

  // Dynamic span name so the summary table gets one latency row per level.
  CANOPUS_SPAN("read.refine.L" + std::to_string(next), {{"var", var_}});
  RetrievalTimings step;
  double delta_rms = 0.0;
  try {
    // A prior regional step skipped chunks at the current level: re-read and
    // apply them first, so this full delta lands on a full-accuracy level and
    // partially_refined() turns false again. (Once regional steps have
    // stacked, skipped_ is empty and the flag stays sticky — the missing
    // deltas already propagated through finer estimates.)
    if (skipped_ && skipped_->level == current_level_) backfill_skipped(step);
    const std::uint32_t chunk_count = delta_chunk_count(next);
    const RawChunks raw =
        prefetch_.valid() ? take_prefetch(next, step)
                          : fetch_level(next, all_chunks(chunk_count), step);
    mesh::Field delta;
    for (const auto& part : decode_level(next, raw, step)) {
      delta.insert(delta.end(), part->begin(), part->end());
    }
    delta_rms = rms_of(delta);
    // Every read of this step is done: overlap the (pure compute) restore
    // below with the read-ahead of the following level, when this
    // refine_to() will restore it. Issuing it here keeps the hierarchy's
    // global read order identical to the serial reader's.
    if (read_ahead_to && next > *read_ahead_to) start_prefetch(next - 1);
    restore_next(next, std::move(delta), chunk_count > 1, step);
  } catch (const storage::StorageError&) {
    return degrade(std::move(step));
  }
  return advance(next, delta_rms, std::move(step));
}

void ProgressiveReader::backfill_skipped(RetrievalTimings& step) {
  SkippedChunks& sk = *skipped_;
  CANOPUS_SPAN("read.backfill",
               {{"level", sk.level}, {"chunks", sk.chunks.size()}});
  // Read back to front — a fixed order, so the tiers (and a seeded fault
  // injector) see a reproducible read sequence.
  const std::vector<std::uint32_t> ids(sk.chunks.rbegin(), sk.chunks.rend());
  const RawChunks raw = fetch_level(sk.level, ids, step);
  const auto parts = decode_level(sk.level, raw, step);
  // Skipped chunks were applied as delta = 0 during the regional restore
  // (fine = estimate + delta), so adding the stored values back is an exact
  // fix-up: estimate + 0 + d computes the same bits as estimate + d.
  const auto& order = geometry_->order(sk.level);
  util::WallTimer timer;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const auto& range = sk.index.chunks[ids[i]];
    const auto& part = *parts[i];
    CANOPUS_CHECK(part.size() == range.count,
                  "chunk size inconsistent with its index");
    const auto start = static_cast<std::size_t>(range.start);
    for (std::size_t k = 0; k < part.size(); ++k) {
      values_[order[start + k]] += part[k];
    }
  }
  step.restore_seconds += timer.seconds();
  partially_refined_ = false;
  skipped_.reset();
}

std::vector<std::uint32_t> ProgressiveReader::region_chunks(
    std::uint32_t next, const ChunkIndex& index, const mesh::Aabb& roi) const {
  std::vector<std::uint32_t> wanted = index.intersecting(roi);  // ascending
  if (next == 0) return wanted;
  // read[v]: level-m vertex v must hold its full-refine value, because it
  // lies in the ROI or a finer level's Estimate reads it. Walk up from
  // level 0 to level `next`.
  const auto in_roi = [&](std::uint32_t level, std::vector<std::uint8_t>& marks) {
    const auto& positions = geometry_->vertices(level);
    for (std::size_t v = 0; v < positions.size(); ++v) {
      const auto p = positions[v];
      if (p.x >= roi.lo.x && p.x <= roi.hi.x && p.y >= roi.lo.y && p.y <= roi.hi.y) {
        marks[v] = 1;
      }
    }
  };
  std::vector<std::uint8_t> read(geometry_->vertex_count(0), 0);
  in_roi(0, read);
  for (std::uint32_t m = 0; m < next; ++m) {
    read = estimate_support(geometry_->mesh(m + 1), geometry_->mappings[m],
                            estimate_, read);
    in_roi(m + 1, read);
  }
  const auto& order = geometry_->order(next);
  for (std::uint32_t c = 0; c < index.chunks.size(); ++c) {
    const auto& range = index.chunks[c];
    for (std::uint64_t pos = range.start; pos < range.start + range.count; ++pos) {
      if (read[order[pos]] != 0) {
        wanted.push_back(c);
        break;
      }
    }
  }
  std::sort(wanted.begin(), wanted.end());
  wanted.erase(std::unique(wanted.begin(), wanted.end()), wanted.end());
  return wanted;
}

RetrievalTimings ProgressiveReader::refine_region(const mesh::Aabb& roi) {
  CANOPUS_CHECK(current_level_ > 0, "already at full accuracy");
  const std::uint32_t next = current_level_ - 1;
  CANOPUS_SPAN("read.refine_region", {{"level", next}});

  // A monolithic delta has no regions to skip: a full refine.
  if (delta_chunk_count(next) == 1) return refine();
  ChunkIndex index = chunk_index(next);

  RetrievalTimings step;
  double delta_rms = 0.0;
  std::vector<std::uint32_t> skipped_ids;
  try {
    const std::vector<std::uint32_t> wanted = region_chunks(next, index, roi);
    const RawChunks raw = fetch_level(next, wanted, step);
    const auto parts = decode_level(next, raw, step);
    // Delta in Morton storage order; unfetched chunks stay zero (estimate-only).
    mesh::Field stored(geometry_->vertex_count(next), 0.0);
    for (std::size_t i = 0; i < wanted.size(); ++i) {
      const auto& range = index.chunks[wanted[i]];
      CANOPUS_CHECK(parts[i]->size() == range.count,
                    "chunk size inconsistent with its index");
      std::copy(parts[i]->begin(), parts[i]->end(),
                stored.begin() + static_cast<long>(range.start));
    }
    for (std::uint32_t c = 0;
         c < static_cast<std::uint32_t>(index.chunks.size()); ++c) {
      if (!std::binary_search(wanted.begin(), wanted.end(), c)) {
        skipped_ids.push_back(c);
      }
    }
    delta_rms = rms_of(stored);  // lower bound: skipped chunks count as zero
    restore_next(next, std::move(stored), /*chunked=*/true, step);
  } catch (const storage::StorageError&) {
    return degrade(std::move(step));
  }
  // Skip-set bookkeeping for the backfill in refine(). Any previously
  // recorded set is now stale — it applied to a coarser level the reader has
  // moved past.
  const bool was_partial = partially_refined_;
  skipped_.reset();
  if (!skipped_ids.empty()) {
    if (!was_partial) {
      // Clean reader, first partial level: an exact additive backfill is
      // possible until further regional steps stack on top.
      skipped_ = SkippedChunks{next, std::move(index), std::move(skipped_ids)};
    }
    partially_refined_ = true;
  }
  // The ROI covered every chunk: a full-accuracy refine in disguise, the
  // partial flag keeps its previous value.
  return advance(next, delta_rms, std::move(step));
}

RetrievalTimings ProgressiveReader::refine_to(std::uint32_t level) {
  CANOPUS_CHECK(level < levels_, "level out of range");
  // The read-ahead never outlives this call: join it on every exit,
  // exceptions included (the task reads through `this`).
  struct JoinReadAhead {
    std::future<Prefetch>& prefetch;
    ~JoinReadAhead() {
      if (prefetch.valid()) prefetch.wait();
      prefetch = {};
    }
  } join{prefetch_};
  RetrievalTimings acc;
  while (current_level_ > level) {
    acc += refine_step(level);
    if (last_status_ == RefineStatus::kDegraded) break;
  }
  return acc;
}

RetrievalTimings ProgressiveReader::refine_until(double rmse_threshold) {
  // NaN poisons every comparison below (rmse < NaN is false, so a NaN
  // threshold would silently refine to full accuracy); reject it loudly. A
  // finite threshold <= 0 is legal and means "no early stop" — an RMS is
  // >= 0, so refinement runs to full accuracy by construction.
  CANOPUS_CHECK(std::isfinite(rmse_threshold),
                "refine_until: rmse_threshold must be finite");
  RetrievalTimings acc;
  while (current_level_ > 0) {
    acc += refine();
    if (last_status_ == RefineStatus::kDegraded) break;
    // The paper's automated criterion is the RMSE between adjacent levels:
    // exactly the RMS of the delta just applied (values - estimate).
    if (*last_delta_rms_ < rmse_threshold) break;
  }
  return acc;
}

RetrievalTimings ProgressiveReader::refine_while(
    const std::function<bool(std::uint32_t)>& admit) {
  CANOPUS_CHECK(admit != nullptr, "refine_while: admit must not be null");
  RetrievalTimings acc;
  while (current_level_ > 0) {
    if (!admit(current_level_ - 1)) break;
    acc += refine();
    if (last_status_ == RefineStatus::kDegraded) break;
  }
  return acc;
}

}  // namespace canopus::core
