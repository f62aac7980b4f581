#include "core/refactorer.hpp"

#include <algorithm>
#include <future>
#include <optional>
#include <utility>

#include "compress/codec.hpp"
#include "core/delta.hpp"
#include "core/geometry_cache.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"
#include "util/thread_pool.hpp"

namespace canopus::core {

namespace {

/// Everything of one delta level that the compute stage produces and the
/// committer stage consumes. Built entirely off the container, so preparing
/// level l can overlap committing level l+1.
struct PreparedLevel {
  std::uint32_t level = 0;
  std::size_t raw_bytes = 0;
  std::vector<util::Bytes> chunks;  // one codec stream per chunk
  std::vector<std::uint64_t> chunk_values;
  util::Bytes index_bytes;   // serialized chunk index (chunked levels)
  util::Bytes map_bytes;     // serialized restoration mapping
  double compute_seconds = 0.0;  // mapping + closed-loop coding wall time
};

/// Compute stage: mapping, then the closed loop codes the level's delta
/// (Morton permutation and chunk coding fan out on `pool`), then the chunk
/// bounding boxes. Nothing here touches the writer or the hierarchy; `loop`
/// is only ever advanced here, one level at a time.
PreparedLevel prepare_level(const mesh::Cascade& cascade, std::size_t l,
                            const RefactorConfig& config,
                            util::ThreadPool& pool, ClosedLoop& loop) {
  const auto& fine = cascade.levels[l];
  const auto& coarse = cascade.levels[l + 1];

  PreparedLevel out;
  out.level = static_cast<std::uint32_t>(l);
  out.raw_bytes = fine.values.size() * sizeof(double);

  // Split the delta into independently decodable chunks with spatial extents
  // so readers can fetch only a region of interest. Chunked deltas are
  // permuted into the deterministic Morton ordering of the fine mesh
  // (spatial_order), which both sides derive from geometry: chunks get tight
  // bounding boxes regardless of the mesh's native vertex numbering, and
  // spatial coherence also helps the codec.
  const auto nchunks = std::max<std::uint32_t>(
      1, std::min<std::uint32_t>(config.delta_chunks,
                                 static_cast<std::uint32_t>(fine.values.size())));
  std::shared_ptr<const std::vector<mesh::VertexId>> order;
  if (nchunks > 1) order = cached_spatial_order(fine.mesh);

  VertexMapping mapping;
  CodedDelta coded;
  {
    CANOPUS_SPAN("refactor.delta", {{"level", out.level}});
    util::WallTimer t;
    mapping = build_mapping(fine.mesh, coarse.mesh, &pool);
    coded = loop.code_delta(coarse.mesh, fine.mesh, fine.values, mapping,
                            nchunks, order.get());
    out.compute_seconds = t.seconds();
  }
  out.chunks = std::move(coded.chunks);
  for (std::uint32_t c = 0; c < nchunks; ++c) {
    out.chunk_values.push_back(coded.bounds[c + 1] - coded.bounds[c]);
  }
  if (nchunks > 1) {
    ChunkIndex index;
    for (std::uint32_t c = 0; c < nchunks; ++c) {
      ChunkIndex::Range range;
      range.start = coded.bounds[c];
      range.count = coded.bounds[c + 1] - coded.bounds[c];
      range.bbox.lo = range.bbox.hi = fine.mesh.vertex((*order)[range.start]);
      for (std::size_t pos = range.start; pos < coded.bounds[c + 1]; ++pos) {
        range.bbox.expand(fine.mesh.vertex((*order)[pos]));
      }
      index.chunks.push_back(range);
    }
    util::ByteWriter w;
    index.serialize(w);
    out.index_bytes.assign(w.view().begin(), w.view().end());
  }

  // Persist the mapping next to the delta so restoration never re-runs
  // point location (Section III-E2).
  util::ByteWriter map_writer;
  mapping.serialize(map_writer);
  out.map_bytes.assign(map_writer.view().begin(), map_writer.view().end());
  return out;
}

/// Commit stage: the single committer. Computes the tier hint and places
/// every block of one level in the same order as the serial pipeline, so
/// hierarchy state (and therefore placement) evolves identically for any
/// thread count; it is the only stage that mutates writer and report.
void commit_level(adios::BpWriter& writer, storage::StorageHierarchy& hierarchy,
                  const std::string& var, const RefactorConfig& config,
                  RefactorReport& report, PreparedLevel prepared) {
  CANOPUS_SPAN("refactor.commit", {{"level", prepared.level}});
  const auto hint = tier_hint_for(config, hierarchy, prepared.level);
  report.phases.add("delta+compress", prepared.compute_seconds);

  ProductSize product;
  product.name = "delta" + std::to_string(prepared.level);
  product.level = prepared.level;
  product.raw_bytes = prepared.raw_bytes;
  const auto nchunks = static_cast<std::uint32_t>(prepared.chunks.size());
  for (std::uint32_t c = 0; c < nchunks; ++c) {
    const auto t = writer.write_precompressed_chunk(
        var, adios::BlockKind::kDelta, prepared.level, c, nchunks,
        prepared.chunks[c], config.codec, config.error_bound,
        prepared.chunk_values[c], hint);
    report.phases.add("io", t.io_sim_seconds);
    product.stored_bytes += t.bytes_written;
    product.chunk_tiers.push_back(t.tier);
  }
  // The product's headline tier is the slowest one holding any chunk: that is
  // what bounds a retrieval of the whole delta, whereas the previously
  // reported "tier of the last chunk written" says nothing once hint fallback
  // or fastest-fit bypass scatters chunks.
  product.tier =
      *std::max_element(product.chunk_tiers.begin(), product.chunk_tiers.end());

  if (nchunks > 1) {
    const auto t = writer.write_opaque(var, adios::BlockKind::kChunkIndex,
                                       prepared.level, prepared.index_bytes,
                                       hint);
    report.phases.add("io", t.io_sim_seconds);
    report.geometry_bytes += t.bytes_written;
  }
  report.products.push_back(std::move(product));

  const auto mt = writer.write_opaque(var, adios::BlockKind::kMapping,
                                      prepared.level, prepared.map_bytes, hint);
  report.phases.add("io", mt.io_sim_seconds);
  report.geometry_bytes += mt.bytes_written;
}

}  // namespace

ClosedLoop::ClosedLoop(const std::string& codec, double error_bound,
                       EstimateMode estimate, util::ThreadPool* pool)
    : codec_(compress::make_codec(codec)),
      error_bound_(error_bound),
      estimate_(estimate),
      pool_(pool) {}

util::ThreadPool& ClosedLoop::pool() const {
  return pool_ ? *pool_ : util::ThreadPool::global();
}

util::Bytes ClosedLoop::code_base(const mesh::Field& values) {
  auto payload = codec_->encode(values, error_bound_);
  level_ = codec_->decode(payload);
  return payload;
}

CodedDelta ClosedLoop::code_delta(const mesh::TriMesh& coarse,
                                  const mesh::TriMesh& fine,
                                  const mesh::Field& fine_values,
                                  const VertexMapping& mapping,
                                  std::uint32_t chunks,
                                  const std::vector<mesh::VertexId>* order) {
  CANOPUS_CHECK(chunks >= 1 && chunks <= std::max<std::size_t>(1, fine_values.size()),
                "closed loop: chunk count out of range");
  CANOPUS_CHECK(chunks == 1 || order != nullptr,
                "closed loop: chunked deltas need a storage order");
  CodedDelta out;
  out.values = compute_delta(coarse, level_, fine, fine_values, mapping,
                             estimate_, &pool());
  if (order != nullptr) {
    CANOPUS_CHECK(order->size() == out.values.size(),
                  "closed loop: storage order does not match the fine mesh");
    mesh::Field ordered(out.values.size());
    pool().parallel_for(
        0, order->size(),
        [&](std::size_t lo, std::size_t hi) {
          for (std::size_t pos = lo; pos < hi; ++pos) {
            ordered[pos] = out.values[(*order)[pos]];
          }
        },
        /*grain=*/4096);
    out.values = std::move(ordered);
  }

  // Code and decode every chunk concurrently; each writes only its own
  // slots, so the streams and the decoded delta are the serial loop's.
  const std::size_t n = out.values.size();
  for (std::uint32_t c = 0; c <= chunks; ++c) {
    out.bounds.push_back(n * c / chunks);
  }
  out.chunks.resize(chunks);
  mesh::Field decoded(n);
  pool().parallel_for(
      0, chunks,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t c = lo; c < hi; ++c) {
          CANOPUS_SPAN("refactor.compress", {{"chunk", c}});
          const std::size_t start = out.bounds[c];
          const std::size_t count = out.bounds[c + 1] - start;
          out.chunks[c] = codec_->encode(
              std::span<const double>(out.values).subspan(start, count),
              error_bound_);
          const auto part = codec_->decode(out.chunks[c]);
          CANOPUS_CHECK(part.size() == count,
                        "closed loop: a chunk decoded to the wrong length");
          std::copy(part.begin(), part.end(), decoded.begin() + start);
        }
      },
      /*grain=*/1);

  // As the reader does: scatter a chunked delta back to vertex order, then
  // restore.
  if (order != nullptr) decoded = unpermute(decoded, *order, pool());
  level_ = restore_level(coarse, level_, fine, decoded, mapping, estimate_,
                         &pool());
  return out;
}

std::optional<std::uint32_t> tier_hint_for(
    const RefactorConfig& config, const storage::StorageHierarchy& hierarchy,
    std::uint32_t level) {
  if (!config.tiered_placement) return std::nullopt;
  return static_cast<std::uint32_t>(
      std::min(hierarchy.tier_count() - 1,
               static_cast<std::size_t>(config.levels - 1 - level)));
}

std::size_t RefactorReport::total_raw_bytes() const {
  std::size_t n = 0;
  for (const auto& p : products) n += p.raw_bytes;
  return n;
}

std::size_t RefactorReport::total_stored_bytes() const {
  std::size_t n = 0;
  for (const auto& p : products) n += p.stored_bytes;
  return n;
}

RefactorReport refactor_and_write(storage::StorageHierarchy& hierarchy,
                                  const std::string& path, const std::string& var,
                                  const mesh::TriMesh& mesh,
                                  const mesh::Field& values,
                                  const RefactorConfig& config) {
  CANOPUS_CHECK(config.levels >= 1, "refactor needs at least one level");
  // --- Decimation: build the level hierarchy L^0 .. L^{N-1}. -------------
  RefactorReport report;
  mesh::Cascade cascade;
  report.phases.time("decimation", [&] {
    CANOPUS_SPAN("refactor.decimate", {{"levels", config.levels}});
    mesh::CascadeOptions copt;
    copt.levels = config.levels;
    copt.step = config.step;
    copt.decimate = config.decimate;
    cascade = mesh::build_cascade(mesh, values, copt);
  });

  auto pipeline_report = refactor_and_write(hierarchy, path, var, cascade, config);
  // Splice the decimation phase in front of the pipeline phases.
  for (const auto& phase : pipeline_report.phases.phases()) {
    report.phases.add(phase, pipeline_report.phases.get(phase));
  }
  report.products = std::move(pipeline_report.products);
  report.level_vertices = std::move(pipeline_report.level_vertices);
  report.geometry_bytes = pipeline_report.geometry_bytes;
  return report;
}

RefactorReport refactor_and_write(storage::StorageHierarchy& hierarchy,
                                  const std::string& path, const std::string& var,
                                  const mesh::Cascade& cascade,
                                  const RefactorConfig& config) {
  CANOPUS_CHECK(config.levels >= 1, "refactor needs at least one level");
  CANOPUS_CHECK(cascade.level_count() == config.levels,
                "cascade does not match config.levels");
  CANOPUS_CHECK(cascade.logs.size() + 1 == cascade.level_count(),
                "cascade lacks the collapse log of some pass");
  CANOPUS_SPAN("refactor.write", {{"var", var}, {"levels", config.levels}});
  obs::MetricsRegistry::global().counter("refactor.variables").add(1);
  RefactorReport report;
  for (const auto& level : cascade.levels) {
    report.level_vertices.push_back(level.mesh.vertex_count());
  }

  // Task engine: a dedicated pool when the config pins a worker count, the
  // process-global pool otherwise. With a single worker the compute/commit
  // overlap is disabled so "1 thread" really means serial execution.
  std::optional<util::ThreadPool> local_pool;
  util::ThreadPool& pool = config.parallel.threads == 0
                               ? util::ThreadPool::global()
                               : local_pool.emplace(config.parallel.threads);
  const bool overlap = config.parallel.pipeline && pool.size() > 1;

  // --- Delta calculation + compression + placement. ----------------------
  adios::BpWriter writer(hierarchy, path);
  writer.set_attribute("levels", std::to_string(config.levels));
  writer.set_attribute("codec", config.codec);
  writer.set_attribute("estimate", to_string(config.estimate));
  writer.set_attribute("error_bound", std::to_string(config.error_bound));

  const auto N = config.levels;
  const auto base_level = static_cast<std::uint32_t>(N - 1);

  // Base dataset L^{N-1}; the closed loop starts from its decode.
  ClosedLoop loop(config.codec, config.error_bound, config.estimate, &pool);
  {
    const auto& base = cascade.levels[N - 1];
    const auto hint = tier_hint_for(config, hierarchy, base_level);
    util::WallTimer timer;
    const auto payload = loop.code_base(base.values);
    report.phases.add("delta+compress", timer.seconds());
    const auto t = writer.write_precompressed(
        var, adios::BlockKind::kBase, base_level, payload, config.codec,
        config.error_bound, base.values.size(), hint);
    report.phases.add("io", t.io_sim_seconds);
    ProductSize product{"base", base_level, base.values.size() * sizeof(double),
                        t.bytes_written, t.tier, {t.tier}};
    report.products.push_back(std::move(product));
  }

  // Deltas, coarse to fine: delta^{l-(l+1)} for l = N-2 .. 0, each against
  // the loop's level. The bounded two-stage pipeline overlaps preparing
  // level l (mapping, delta, coding — all pool-parallel) with committing
  // level l+1 (serialized placement):
  // exactly one commit is in flight, and commits run in level order, so the
  // container ends up byte-identical to the serial pipeline's.
  std::future<void> committing;
  const auto drain = [&committing] {
    if (committing.valid()) committing.get();
  };
  try {
    for (std::size_t l = N - 1; l-- > 0;) {
      PreparedLevel prepared = prepare_level(cascade, l, config, pool, loop);
      drain();
      if (overlap) {
        committing =
            pool.submit([&writer, &hierarchy, &var, &config, &report,
                         p = std::move(prepared)]() mutable {
              commit_level(writer, hierarchy, var, config, report, std::move(p));
            });
      } else {
        commit_level(writer, hierarchy, var, config, report,
                     std::move(prepared));
      }
    }
    drain();
  } catch (...) {
    // A failed prepare must not leave the in-flight commit referencing report
    // and writer after this frame unwinds.
    if (committing.valid()) committing.wait();
    throw;
  }

  // Geometry travels with the data: the L0 mesh and the collapse logs that
  // rebuild every coarser level (GeometryCache::load).
  const auto geometry = write_geometry(writer, hierarchy, var, cascade, config);
  report.phases.add("io", geometry.io_sim_seconds);
  report.geometry_bytes += geometry.bytes_written;

  writer.close();
  return report;
}

RefactorReport direct_multilevel_sizes(const mesh::TriMesh& mesh,
                                       const mesh::Field& values,
                                       const RefactorConfig& config) {
  RefactorReport report;
  mesh::Cascade cascade;
  report.phases.time("decimation", [&] {
    mesh::CascadeOptions copt;
    copt.levels = config.levels;
    copt.step = config.step;
    copt.decimate = config.decimate;
    cascade = mesh::build_cascade(mesh, values, copt);
  });
  const auto codec = compress::make_codec(config.codec);
  for (std::size_t l = 0; l < cascade.level_count(); ++l) {
    const auto& level = cascade.levels[l];
    report.level_vertices.push_back(level.mesh.vertex_count());
    util::Bytes payload;
    report.phases.time("delta+compress", [&] {
      payload = codec->encode(level.values, config.error_bound);
    });
    std::string name = "L";
    name += std::to_string(l);
    report.products.push_back({std::move(name),
                               static_cast<std::uint32_t>(l),
                               level.values.size() * sizeof(double),
                               payload.size(), 0, {0}});
  }
  return report;
}

}  // namespace canopus::core
