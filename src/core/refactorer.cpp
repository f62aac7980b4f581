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

/// One delta chunk, encoded on a pool worker and ready to place.
struct PreparedChunk {
  util::Bytes payload;
  std::uint64_t value_count = 0;
  double encode_seconds = 0.0;
};

/// Everything of one delta level that the compute stage produces and the
/// committer stage consumes. Built entirely off the container, so preparing
/// level l can overlap committing level l+1.
struct PreparedLevel {
  std::uint32_t level = 0;
  std::size_t raw_bytes = 0;
  std::uint32_t nchunks = 1;
  std::vector<PreparedChunk> chunks;
  ChunkIndex index;          // populated when nchunks > 1
  util::Bytes index_bytes;   // serialized index (nchunks > 1)
  util::Bytes map_bytes;     // serialized restoration mapping
  double compute_seconds = 0.0;  // mapping + delta wall time
};

/// Compute stage: mapping, delta, Morton permutation, per-chunk bounding
/// boxes, and chunk encoding — everything data-parallel fans out on `pool`,
/// and nothing here touches the writer or the hierarchy.
PreparedLevel prepare_level(const mesh::Cascade& cascade, std::size_t l,
                            const RefactorConfig& config,
                            util::ThreadPool& pool) {
  const auto& fine = cascade.levels[l];
  const auto& coarse = cascade.levels[l + 1];

  PreparedLevel out;
  out.level = static_cast<std::uint32_t>(l);

  VertexMapping mapping;
  mesh::Field delta;
  {
    CANOPUS_SPAN("refactor.delta", {{"level", out.level}});
    util::WallTimer t;
    mapping = build_mapping(fine.mesh, coarse.mesh, &pool);
    delta = compute_delta(coarse.mesh, coarse.values, fine.values, mapping,
                          config.estimate, &pool);
    out.compute_seconds = t.seconds();
  }
  out.raw_bytes = delta.size() * sizeof(double);

  // Split the delta into independently decodable chunks with spatial extents
  // so readers can fetch only a region of interest. Chunked deltas are
  // permuted into the deterministic Morton ordering of the fine mesh
  // (spatial_order), which both sides derive from geometry: chunks get tight
  // bounding boxes regardless of the mesh's native vertex numbering, and
  // spatial coherence also helps the codec.
  out.nchunks =
      std::max<std::uint32_t>(1, std::min<std::uint32_t>(
                                     config.delta_chunks,
                                     static_cast<std::uint32_t>(delta.size())));

  std::shared_ptr<const std::vector<mesh::VertexId>> order;
  mesh::Field ordered;
  if (out.nchunks > 1) {
    order = cached_spatial_order(fine.mesh);
    ordered.resize(delta.size());
    pool.parallel_for(
        0, order->size(),
        [&](std::size_t lo, std::size_t hi) {
          for (std::size_t pos = lo; pos < hi; ++pos) {
            ordered[pos] = delta[(*order)[pos]];
          }
        },
        /*grain=*/4096);
  }
  const mesh::Field& payload = out.nchunks > 1 ? ordered : delta;

  // Encode every chunk (and build its bbox) concurrently; gathering futures
  // in chunk order keeps the output sequence identical to the serial loop.
  struct ChunkResult {
    PreparedChunk chunk;
    ChunkIndex::Range range;
  };
  std::vector<std::future<ChunkResult>> encoded;
  encoded.reserve(out.nchunks);
  for (std::uint32_t c = 0; c < out.nchunks; ++c) {
    const std::size_t start = payload.size() * c / out.nchunks;
    const std::size_t stop = payload.size() * (c + 1) / out.nchunks;
    encoded.push_back(pool.submit([&, c, start, stop]() -> ChunkResult {
      CANOPUS_SPAN("refactor.compress", {{"level", out.level}, {"chunk", c}});
      ChunkResult r;
      if (out.nchunks > 1) {
        r.range.start = start;
        r.range.count = stop - start;
        r.range.bbox.lo = r.range.bbox.hi = fine.mesh.vertex((*order)[start]);
        for (std::size_t pos = start; pos < stop; ++pos) {
          r.range.bbox.expand(fine.mesh.vertex((*order)[pos]));
        }
      }
      util::WallTimer t;
      const auto codec = compress::make_codec(config.codec);
      r.chunk.payload = codec->encode(
          std::span<const double>(payload).subspan(start, stop - start),
          config.error_bound);
      r.chunk.encode_seconds = t.seconds();
      r.chunk.value_count = stop - start;
      return r;
    }));
  }
  out.chunks.reserve(out.nchunks);
  for (auto& f : encoded) {
    auto r = f.get();
    out.chunks.push_back(std::move(r.chunk));
    if (out.nchunks > 1) out.index.chunks.push_back(r.range);
  }
  if (out.nchunks > 1) {
    util::ByteWriter w;
    out.index.serialize(w);
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
  const auto hint =
      tier_hint_for(config, hierarchy, prepared.level, prepared.raw_bytes);
  report.phases.add("delta+compress", prepared.compute_seconds);

  ProductSize product;
  product.name = "delta" + std::to_string(prepared.level);
  product.level = prepared.level;
  product.raw_bytes = prepared.raw_bytes;
  for (std::uint32_t c = 0; c < prepared.nchunks; ++c) {
    auto& chunk = prepared.chunks[c];
    const auto t = writer.write_precompressed_chunk(
        var, adios::BlockKind::kDelta, prepared.level, c, prepared.nchunks,
        chunk.payload, config.codec, config.error_bound, chunk.value_count,
        hint);
    report.phases.add("delta+compress", chunk.encode_seconds);
    report.phases.add("io", t.io_sim_seconds);
    product.stored_bytes += t.bytes_written;
    product.chunk_tiers.push_back(t.tier);
  }
  // The product's headline tier is the slowest one holding any chunk: that is
  // what bounds a retrieval of the whole delta, whereas the previously
  // reported "tier of the last chunk written" says nothing once hint fallback
  // or striping scatters chunks.
  product.tier =
      *std::max_element(product.chunk_tiers.begin(), product.chunk_tiers.end());

  if (prepared.nchunks > 1) {
    const auto t = writer.write_opaque(var, adios::BlockKind::kChunkIndex,
                                       prepared.level, prepared.index_bytes,
                                       hint);
    report.phases.add("io", t.io_sim_seconds);
  }
  report.products.push_back(std::move(product));

  const auto mt = writer.write_opaque(var, adios::BlockKind::kMapping,
                                      prepared.level, prepared.map_bytes, hint);
  report.phases.add("io", mt.io_sim_seconds);
}

}  // namespace

std::optional<std::uint32_t> tier_hint_for(
    const RefactorConfig& config, const storage::StorageHierarchy& hierarchy,
    std::uint32_t level, std::size_t nbytes) {
  if (!config.tiered_placement) return std::nullopt;
  const std::size_t want =
      std::min(hierarchy.tier_count() - 1,
               static_cast<std::size_t>(config.levels - 1 - level));
  const auto [used, capacity] = hierarchy.tier_usage(want);
  const std::size_t free = capacity > used ? capacity - used : 0;
  if (nbytes <= free) return static_cast<std::uint32_t>(want);
  return std::nullopt;
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
  return report;
}

RefactorReport refactor_and_write(storage::StorageHierarchy& hierarchy,
                                  const std::string& path, const std::string& var,
                                  const mesh::Cascade& cascade,
                                  const RefactorConfig& config) {
  CANOPUS_CHECK(config.levels >= 1, "refactor needs at least one level");
  CANOPUS_CHECK(cascade.level_count() == config.levels,
                "cascade does not match config.levels");
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

  // Base dataset L^{N-1}.
  {
    const auto& base = cascade.levels[N - 1];
    const auto hint = tier_hint_for(config, hierarchy, base_level,
                                    base.values.size() * sizeof(double));
    const auto t = writer.write_doubles(var, adios::BlockKind::kBase, base_level,
                                        base.values, config.codec,
                                        config.error_bound, hint);
    report.phases.add("delta+compress", t.compress_seconds);
    report.phases.add("io", t.io_sim_seconds);
    ProductSize product{"base", base_level, base.values.size() * sizeof(double),
                        t.bytes_written, t.tier, {t.tier}};
    report.products.push_back(std::move(product));
  }

  // Deltas, coarse to fine: delta^{l-(l+1)} for l = N-2 .. 0. The bounded
  // two-stage pipeline overlaps preparing level l (mapping, delta, encode —
  // all pool-parallel) with committing level l+1 (serialized placement):
  // exactly one commit is in flight, and commits run in level order, so the
  // container ends up byte-identical to the serial pipeline's.
  std::future<void> committing;
  const auto drain = [&committing] {
    if (committing.valid()) committing.get();
  };
  try {
    for (std::size_t l = N - 1; l-- > 0;) {
      PreparedLevel prepared = prepare_level(cascade, l, config, pool);
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

  // Per-level meshes (geometry travels with the data: a decimated level is a
  // complete, directly consumable dataset).
  for (std::size_t l = 0; l < N; ++l) {
    util::ByteWriter mesh_bytes;
    cascade.levels[l].mesh.serialize(mesh_bytes);
    const auto level = static_cast<std::uint32_t>(l);
    const auto hint =
        tier_hint_for(config, hierarchy, level, mesh_bytes.size());
    const auto t = writer.write_opaque(var, adios::BlockKind::kMesh, level,
                                       mesh_bytes.view(), hint);
    report.phases.add("io", t.io_sim_seconds);
  }

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
    report.products.push_back({"L" + std::to_string(l),
                               static_cast<std::uint32_t>(l),
                               level.values.size() * sizeof(double),
                               payload.size(), 0, {0}});
  }
  return report;
}

}  // namespace canopus::core
