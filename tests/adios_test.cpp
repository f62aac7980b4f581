// Tests for the BP-like container: write/inq/read workflow, multi-tier block
// placement, attributes, opaque blobs, corrupt metadata handling.

#include <gtest/gtest.h>

#include <cmath>

#include "adios/bp.hpp"
#include "core/geometry_cache.hpp"
#include "mesh/generators.hpp"
#include "storage/hierarchy.hpp"
#include "util/stats.hpp"

namespace ca = canopus::adios;
namespace cs = canopus::storage;
namespace cm = canopus::mesh;
namespace cu = canopus::util;

namespace {

cs::StorageHierarchy two_tiers(std::size_t fast = 1 << 20,
                               std::size_t slow = 64 << 20) {
  return cs::StorageHierarchy({cs::tmpfs_spec(fast), cs::lustre_spec(slow)});
}

std::vector<double> wave(std::size_t n) {
  std::vector<double> xs(n);
  for (std::size_t i = 0; i < n; ++i) {
    xs[i] = std::sin(static_cast<double>(i) * 0.01) * 7.0;
  }
  return xs;
}

}  // namespace

TEST(Bp, WriteReadRoundTripLossless) {
  auto h = two_tiers();
  const auto xs = wave(5000);
  {
    ca::BpWriter w(h, "run1.bp");
    w.write_doubles("dpot", ca::BlockKind::kData, 0, xs, "fpc", 0.0);
    w.close();
  }
  ca::BpReader r(h, "run1.bp");
  ca::ReadTiming timing;
  const auto back = r.read_doubles("dpot", ca::BlockKind::kData, 0, &timing);
  EXPECT_EQ(back, xs);
  EXPECT_GT(timing.io_sim_seconds, 0.0);
  EXPECT_GT(timing.bytes_read, 0u);
}

TEST(Bp, LossyBlockHonorsBound) {
  auto h = two_tiers();
  const auto xs = wave(5000);
  const double eb = 1e-4;
  {
    ca::BpWriter w(h, "run.bp");
    w.write_doubles("dpot", ca::BlockKind::kBase, 2, xs, "zfp", eb);
    w.close();
  }
  ca::BpReader r(h, "run.bp");
  const auto back = r.read_doubles("dpot", ca::BlockKind::kBase, 2);
  EXPECT_LE(cu::max_abs_error(xs, back), eb);
}

TEST(Bp, UnclosedWriterIsUnreadable) {
  auto h = two_tiers();
  ca::BpWriter w(h, "never_closed.bp");
  w.write_doubles("v", ca::BlockKind::kData, 0, wave(10), "raw", 0.0);
  EXPECT_THROW(ca::BpReader(h, "never_closed.bp"), canopus::Error);
}

TEST(Bp, InqVarReportsLevelsAndSizes) {
  auto h = two_tiers();
  {
    ca::BpWriter w(h, "multi.bp");
    w.write_doubles("dpot", ca::BlockKind::kBase, 2, wave(1000), "zfp", 1e-3);
    w.write_doubles("dpot", ca::BlockKind::kDelta, 1, wave(2000), "zfp", 1e-3);
    w.write_doubles("dpot", ca::BlockKind::kDelta, 0, wave(4000), "zfp", 1e-3);
    w.write_doubles("temp", ca::BlockKind::kData, 0, wave(100), "raw", 0.0);
    w.close();
  }
  ca::BpReader r(h, "multi.bp");
  EXPECT_EQ(r.variables(), (std::vector<std::string>{"dpot", "temp"}));
  const auto info = r.inq_var("dpot");
  EXPECT_EQ(info.blocks.size(), 3u);
  EXPECT_EQ(info.levels(ca::BlockKind::kDelta),
            (std::vector<std::uint32_t>{0, 1}));
  const auto* base = info.block(ca::BlockKind::kBase, 2);
  ASSERT_NE(base, nullptr);
  EXPECT_EQ(base->value_count, 1000u);
  EXPECT_EQ(base->raw_bytes, 8000u);
  EXPECT_GT(base->stored_bytes, 0u);
  EXPECT_THROW(r.inq_var("nope"), canopus::Error);
}

TEST(Bp, BaseGoesToFastTierDeltasSpill) {
  // Fast tier sized to hold only the base: deltas bypass to the slow tier.
  auto h = two_tiers(3000, 64 << 20);
  {
    ca::BpWriter w(h, "placed.bp");
    w.write_doubles("dpot", ca::BlockKind::kBase, 2, wave(300), "raw", 0.0);
    w.write_doubles("dpot", ca::BlockKind::kDelta, 1, wave(3000), "raw", 0.0);
    w.close();
  }
  ca::BpReader r(h, "placed.bp");
  const auto info = r.inq_var("dpot");
  EXPECT_EQ(h.find(info.block(ca::BlockKind::kBase, 2)->object_key),
            std::optional<std::size_t>(0));
  EXPECT_EQ(h.find(info.block(ca::BlockKind::kDelta, 1)->object_key),
            std::optional<std::size_t>(1));
}

TEST(Bp, TierHintPinsBlock) {
  auto h = two_tiers();
  {
    ca::BpWriter w(h, "hint.bp");
    w.write_doubles("v", ca::BlockKind::kData, 0, wave(100), "raw", 0.0, 1u);
    w.close();
  }
  ca::BpReader r(h, "hint.bp");
  EXPECT_EQ(h.find(r.inq_var("v").blocks[0].object_key),
            std::optional<std::size_t>(1));
}

TEST(Bp, FullHintedTierFallsBackToBypassPlacement) {
  // The hint was computed when the tier had room; by write time another
  // writer has filled it. The block takes the normal bypass placement (the
  // next tier with room) instead of failing with "over capacity".
  auto h = two_tiers(1024);
  h.place("filler", cu::Bytes(900));
  ASSERT_EQ(h.find("filler"), std::optional<std::size_t>(0));
  {
    ca::BpWriter w(h, "full.bp");
    const auto t = w.write_doubles("v", ca::BlockKind::kData, 0, wave(100),
                                   "raw", 0.0, 0u);
    EXPECT_EQ(t.tier, 1u);
    w.close();
  }
  ca::BpReader r(h, "full.bp");
  const auto info = r.inq_var("v");
  const auto& block = info.blocks[0];
  EXPECT_EQ(h.find(block.object_key), std::optional<std::size_t>(1));
  EXPECT_EQ(r.read_doubles("v", ca::BlockKind::kData, 0), wave(100));
}

TEST(Bp, OpaqueMeshBlockRoundTrip) {
  auto h = two_tiers();
  const auto mesh = cm::make_annulus_mesh(4, 24, 0.5, 1.0, 0.1, 2);
  const auto mesh_bytes = canopus::core::encode_mesh_block(mesh);
  {
    ca::BpWriter w(h, "meshy.bp");
    w.write_opaque("dpot", ca::BlockKind::kMesh, 1, mesh_bytes);
    w.close();
  }
  ca::BpReader r(h, "meshy.bp");
  const auto raw = r.read_opaque("dpot", ca::BlockKind::kMesh, 1);
  EXPECT_EQ(raw, mesh_bytes);
  EXPECT_TRUE(canopus::core::decode_mesh_block(raw) == mesh);
  // Opaque blocks refuse the double-read path.
  EXPECT_THROW(r.read_doubles("dpot", ca::BlockKind::kMesh, 1), canopus::Error);
}

TEST(Bp, AttributesRoundTrip) {
  auto h = two_tiers();
  {
    ca::BpWriter w(h, "attr.bp");
    w.write_doubles("v", ca::BlockKind::kData, 0, wave(10), "raw", 0.0);
    w.set_attribute("levels", "3");
    w.set_attribute("app", "xgc1");
    w.close();
  }
  ca::BpReader r(h, "attr.bp");
  EXPECT_EQ(r.attribute("levels"), std::optional<std::string>("3"));
  EXPECT_EQ(r.attribute("app"), std::optional<std::string>("xgc1"));
  EXPECT_EQ(r.attribute("missing"), std::nullopt);
}

TEST(Bp, RewriteReplacesBlock) {
  auto h = two_tiers();
  {
    ca::BpWriter w(h, "rw.bp");
    w.write_doubles("v", ca::BlockKind::kData, 0, wave(100), "raw", 0.0);
    w.write_doubles("v", ca::BlockKind::kData, 0, wave(50), "raw", 0.0);
    w.close();
  }
  ca::BpReader r(h, "rw.bp");
  EXPECT_EQ(r.inq_var("v").blocks.size(), 1u);
  EXPECT_EQ(r.read_doubles("v", ca::BlockKind::kData, 0).size(), 50u);
}

TEST(Bp, ClosedWriterRejectsWrites) {
  auto h = two_tiers();
  ca::BpWriter w(h, "closed.bp");
  w.close();
  EXPECT_THROW(
      w.write_doubles("v", ca::BlockKind::kData, 0, wave(5), "raw", 0.0),
      canopus::Error);
  EXPECT_THROW(w.close(), canopus::Error);
}

TEST(Bp, MissingBlockThrows) {
  auto h = two_tiers();
  {
    ca::BpWriter w(h, "sparse.bp");
    w.write_doubles("v", ca::BlockKind::kData, 0, wave(5), "raw", 0.0);
    w.close();
  }
  ca::BpReader r(h, "sparse.bp");
  EXPECT_THROW(r.read_doubles("v", ca::BlockKind::kData, 3), canopus::Error);
  EXPECT_THROW(r.read_doubles("w", ca::BlockKind::kData, 0), canopus::Error);
}

TEST(Bp, CorruptMetadataRejected) {
  auto h = two_tiers();
  // Plant garbage where the metadata object would live.
  h.place(ca::metadata_key("evil.bp"), cu::Bytes(64, std::byte{0x5A}));
  EXPECT_THROW(ca::BpReader(h, "evil.bp"), canopus::Error);
}

TEST(Bp, MetadataKindBoundIsTheLastBlockKind) {
  auto h = two_tiers();
  {
    ca::BpWriter w(h, "kinds.bp");
    w.write_opaque("v", ca::BlockKind::kCollapseLog, 1, cu::Bytes(3));
    w.close();
  }
  const ca::BpReader r(h, "kinds.bp");
  ASSERT_EQ(r.inq_var("v").levels(ca::BlockKind::kCollapseLog),
            std::vector<std::uint32_t>{1});
  EXPECT_EQ(ca::to_string(ca::BlockKind::kCollapseLog), "collapselog");
  // The record's kind byte follows the magic, the record count and the
  // one-character variable name; one past the last kind is rejected.
  cu::Bytes meta;
  h.read(ca::metadata_key("kinds.bp"), meta);
  ASSERT_EQ(meta[7], static_cast<std::byte>(ca::BlockKind::kCollapseLog));
  meta[7] = static_cast<std::byte>(
      static_cast<std::uint8_t>(ca::BlockKind::kCollapseLog) + 1);
  h.place(ca::metadata_key("past.bp"), meta);
  EXPECT_THROW(ca::BpReader(h, "past.bp"), canopus::Error);
}

TEST(Bp, TwoContainersCoexist) {
  auto h = two_tiers();
  {
    ca::BpWriter w1(h, "a.bp");
    w1.write_doubles("v", ca::BlockKind::kData, 0, wave(10), "raw", 0.0);
    w1.close();
    ca::BpWriter w2(h, "b.bp");
    w2.write_doubles("v", ca::BlockKind::kData, 0, wave(20), "raw", 0.0);
    w2.close();
  }
  ca::BpReader ra(h, "a.bp");
  ca::BpReader rb(h, "b.bp");
  EXPECT_EQ(ra.read_doubles("v", ca::BlockKind::kData, 0).size(), 10u);
  EXPECT_EQ(rb.read_doubles("v", ca::BlockKind::kData, 0).size(), 20u);
}
