#include "grid/refactor.hpp"

#include <optional>

#include "compress/codec.hpp"
#include "core/refactorer.hpp"
#include "util/assert.hpp"

namespace canopus::grid {

GridRefactorReport refactor_and_write_grid(storage::StorageHierarchy& hierarchy,
                                           const std::string& path,
                                           const std::string& var,
                                           const GridShape& shape,
                                           const GridField& values,
                                           const core::RefactorConfig& config) {
  CANOPUS_CHECK(config.levels >= 1, "grid refactor needs at least one level");
  CANOPUS_CHECK(values.size() == shape.point_count(),
                "grid refactor: field size mismatch");
  GridRefactorReport report;
  report.raw_bytes = values.size() * sizeof(double);

  // Decimation pyramid: repeated 2x box averaging.
  std::vector<GridShape> shapes{shape};
  std::vector<GridField> levels{values};
  report.phases.time("decimation", [&] {
    for (std::size_t l = 1; l < config.levels; ++l) {
      CANOPUS_CHECK(shapes.back().nx >= 2 && shapes.back().ny >= 2,
                    "grid exhausted; reduce levels");
      levels.push_back(coarsen(shapes.back(), levels.back()));
      shapes.push_back(shapes.back().coarsened());
    }
  });
  for (const auto& level : levels) report.level_points.push_back(level.size());

  adios::BpWriter writer(hierarchy, path);
  writer.set_attribute("levels", std::to_string(config.levels));
  writer.set_attribute("codec", config.codec);
  writer.set_attribute("model", "structured-grid");
  writer.set_attribute("error_bound", std::to_string(config.error_bound));

  const auto N = config.levels;
  const auto base_level = static_cast<std::uint32_t>(N - 1);
  {
    const auto& base = levels[N - 1];
    const auto t = writer.write_doubles(
        var, adios::BlockKind::kBase, base_level, base, config.codec,
        config.error_bound, core::tier_hint_for(config, hierarchy, base_level));
    report.phases.add("delta+compress", t.compress_seconds);
    report.phases.add("io", t.io_sim_seconds);
    report.stored_bytes += t.bytes_written;
  }
  for (std::size_t l = N - 1; l-- > 0;) {
    GridField delta;
    report.phases.time("delta+compress", [&] {
      delta = compute_grid_delta(shapes[l], levels[l], shapes[l + 1], levels[l + 1]);
    });
    const auto level = static_cast<std::uint32_t>(l);
    const auto t = writer.write_doubles(
        var, adios::BlockKind::kDelta, level, delta, config.codec,
        config.error_bound, core::tier_hint_for(config, hierarchy, level));
    report.phases.add("delta+compress", t.compress_seconds);
    report.phases.add("io", t.io_sim_seconds);
    report.stored_bytes += t.bytes_written;
  }
  // Shapes are a few dozen bytes: one opaque block holds the whole pyramid.
  {
    util::ByteWriter bytes;
    bytes.put_varint(shapes.size());
    for (const auto& s : shapes) s.serialize(bytes);
    const auto t = writer.write_opaque(var, adios::BlockKind::kMesh, 0,
                                       bytes.view());
    report.phases.add("io", t.io_sim_seconds);
  }
  writer.close();
  return report;
}

GridProgressiveReader::GridProgressiveReader(storage::StorageHierarchy& hierarchy,
                                             const std::string& path,
                                             std::string var)
    : hierarchy_(hierarchy), reader_(hierarchy, path), var_(std::move(var)) {
  CANOPUS_CHECK(reader_.attribute("model") ==
                    std::optional<std::string>("structured-grid"),
                "container does not hold a structured-grid variable");
  adios::ReadTiming shapes_t;
  {
    const auto raw = reader_.read_opaque(var_, adios::BlockKind::kMesh, 0,
                                         &shapes_t);
    util::ByteReader br(raw);
    const auto n = br.get_varint();
    for (std::uint64_t i = 0; i < n; ++i) {
      shapes_.push_back(GridShape::deserialize(br));
    }
  }
  CANOPUS_CHECK(!shapes_.empty(), "grid container missing shape pyramid");
  current_level_ = static_cast<std::uint32_t>(shapes_.size() - 1);

  adios::ReadTiming data_t;
  values_ = reader_.read_doubles(var_, adios::BlockKind::kBase, current_level_,
                                 &data_t);
  CANOPUS_CHECK(values_.size() == current_shape().point_count(),
                "grid base inconsistent with its shape");
  cumulative_.io_seconds = shapes_t.io_sim_seconds + data_t.io_sim_seconds;
  cumulative_.decompress_seconds = data_t.decompress_seconds;
  cumulative_.bytes_read = shapes_t.bytes_read + data_t.bytes_read;
  cumulative_.values_decoded = values_.size();
}

double GridProgressiveReader::decimation_ratio() const {
  return static_cast<double>(shapes_[0].point_count()) /
         static_cast<double>(current_shape().point_count());
}

core::RetrievalTimings GridProgressiveReader::refine() {
  CANOPUS_CHECK(current_level_ > 0, "already at full accuracy");
  const std::uint32_t next = current_level_ - 1;
  core::RetrievalTimings step;
  adios::ReadTiming delta_t;
  const auto delta =
      reader_.read_doubles(var_, adios::BlockKind::kDelta, next, &delta_t);
  step.io_seconds = delta_t.io_sim_seconds;
  step.decompress_seconds = delta_t.decompress_seconds;
  step.bytes_read = delta_t.bytes_read;
  step.values_decoded = delta.size();

  util::WallTimer t;
  values_ = restore_grid_level(shapes_[next], delta, shapes_[current_level_],
                               values_);
  step.restore_seconds = t.seconds();
  current_level_ = next;
  cumulative_ += step;
  return step;
}

core::RetrievalTimings GridProgressiveReader::refine_to(std::uint32_t level) {
  CANOPUS_CHECK(level < shapes_.size(), "level out of range");
  core::RetrievalTimings acc;
  while (current_level_ > level) acc += refine();
  return acc;
}

}  // namespace canopus::grid
