#include "mesh/decimate.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "util/assert.hpp"

namespace canopus::mesh {

namespace {

/// NewVertex(Vi, Vj): where a collapse moves its surviving endpoint. The
/// decimator and replay_collapses share this one expression, so a replayed
/// mesh has the decimator's coordinates bit for bit.
Vec2 midpoint(Vec2 a, Vec2 b) { return (a + b) * 0.5; }

/// SplitMix64's output function applied to x.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// kRandom's priority (the chain decimate.hpp states).
double random_priority(std::uint64_t seed, VertexId survivor, VertexId dying,
                       std::uint64_t collapses) {
  std::uint64_t h = mix64(seed);
  h = mix64(h ^ survivor);
  h = mix64(h ^ dying);
  h = mix64(h ^ collapses);
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// Releases a vector's storage, not just its elements.
template <class T>
void release(std::vector<T>& v) {
  std::vector<T>().swap(v);
}

/// Room each list starts with beyond its initial length. A collapse grows
/// the survivor's lists by a few entries; with 8, no list of a 4-level XGC
/// cascade relocates, so each arena keeps its initial size.
constexpr std::uint32_t kListSlack = 8;

/// Per-vertex id lists packed into one arena. List v occupies the first
/// `len` entries of a slot with room for `cap`; a list that fills its slot
/// moves to the end of the arena with twice the room, leaving the old slot
/// unused for the rest of the pass. Lists are unordered sets: erase moves
/// the last entry into the gap. A span from operator[] stays valid until
/// the next push_back on any list.
class ArenaLists {
 public:
  ArenaLists() = default;
  /// Gives list v room for `counts[v] + kListSlack` ids.
  explicit ArenaLists(const std::vector<std::uint32_t>& counts)
      : slots_(counts.size()) {
    std::size_t off = 0;
    for (std::size_t v = 0; v < counts.size(); ++v) {
      slots_[v] = Slot{static_cast<std::uint32_t>(off), 0, counts[v] + kListSlack};
      off += slots_[v].cap;
    }
    CANOPUS_CHECK(off <= std::numeric_limits<std::uint32_t>::max(),
                  "decimate: mesh too large for 32-bit list offsets");
    items_.resize(off);
  }

  std::span<std::uint32_t> operator[](std::uint32_t v) {
    return {items_.data() + slots_[v].off, slots_[v].len};
  }
  std::span<const std::uint32_t> operator[](std::uint32_t v) const {
    return {items_.data() + slots_[v].off, slots_[v].len};
  }

  void push_back(std::uint32_t v, std::uint32_t x) {
    Slot& s = slots_[v];
    if (s.len == s.cap) {
      const std::size_t off = items_.size();
      const std::uint32_t cap = 2 * s.cap;  // never 0: every slot has slack
      CANOPUS_CHECK(off + cap <= std::numeric_limits<std::uint32_t>::max(),
                    "decimate: mesh too large for 32-bit list offsets");
      items_.resize(off + cap);
      std::copy_n(items_.begin() + s.off, s.len, items_.begin() +
                                                     static_cast<std::ptrdiff_t>(off));
      s.off = static_cast<std::uint32_t>(off);
      s.cap = cap;
    }
    items_[s.off + s.len++] = x;
  }

  /// Removes x, moving the last entry into its place.
  void erase(std::uint32_t v, std::uint32_t x) {
    const auto xs = (*this)[v];
    const auto it = std::find(xs.begin(), xs.end(), x);
    if (it != xs.end()) {
      *it = xs.back();
      --slots_[v].len;
    }
  }

  /// Drops the entries matching `pred`.
  template <class Pred>
  void remove_if(std::uint32_t v, Pred pred) {
    const auto xs = (*this)[v];
    slots_[v].len = static_cast<std::uint32_t>(
        std::remove_if(xs.begin(), xs.end(), pred) - xs.begin());
  }

  void clear(std::uint32_t v) { slots_[v].len = 0; }

 private:
  struct Slot {
    std::uint32_t off = 0;
    std::uint32_t len = 0;
    std::uint32_t cap = 0;
  };
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> items_;
};

using EdgeId = std::uint32_t;

/// EdgeRecord::slot of an edge that is not in the heap (it was rejected).
constexpr std::uint32_t kNotQueued = std::numeric_limits<std::uint32_t>::max();

/// One live edge, keyed (priority, a, b): a collapse of it keeps slot a and
/// kills slot b. `slot` is its position in the heap.
struct EdgeRecord {
  double priority;
  VertexId a, b;
  std::uint32_t slot;
};

/// Edge-collapse state. Vertex slot `i` survives a collapse of edge (i, j)
/// and moves to the midpoint; slot `j` dies. Every live edge has one record,
/// listed under both endpoints, and sits in an addressable binary min-heap
/// under its total key unless it was rejected; it returns to the heap when a
/// collapse re-keys it. No output depends on the order of any list.
class Decimator {
 public:
  Decimator(const TriMesh& mesh, const Field& values, const DecimateOptions& opt)
      : opt_(opt) {
    CANOPUS_CHECK(values.size() == mesh.vertex_count(),
                  "field size does not match vertex count");
    CANOPUS_CHECK(opt.ratio >= 1.0, "decimation ratio must be >= 1");
    CANOPUS_CHECK(mesh.triangle_count() > 0, "cannot decimate an empty mesh");
    pos_ = mesh.vertices();
    val_ = values;
    tris_ = mesh.triangles();
    tri_alive_.assign(tris_.size(), 1);
    if (opt.priority == EdgePriority::kGradientWeighted) {
      const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
      value_range_ = std::max(*hi - *lo, 1e-300);
    }
    std::vector<std::uint32_t> count(pos_.size(), 0);
    {
      // The edges first, so their list is freed before the incidence lists
      // exist: the set-up then peaks below the collapse loop.
      const std::vector<Edge> edges = mesh.edges();
      CANOPUS_CHECK(edges.size() < kNotQueued, "decimate: too many edges");
      for (const auto& e : edges) {
        ++count[e.a];
        ++count[e.b];
      }
      edge_lists_ = ArenaLists(count);
      edges_.reserve(edges.size());
      for (const auto& e : edges) {
        const auto id = static_cast<EdgeId>(edges_.size());
        edges_.push_back(EdgeRecord{edge_priority(e.a, e.b), e.a, e.b, id});
        edge_lists_.push_back(e.a, id);
        edge_lists_.push_back(e.b, id);
      }
    }
    std::fill(count.begin(), count.end(), 0);
    for (const auto& tri : tris_) {
      for (VertexId v : tri.v) ++count[v];
    }
    inc_ = ArenaLists(count);
    for (TriangleId t = 0; t < tris_.size(); ++t) {
      for (VertexId v : tris_[t].v) inc_.push_back(v, t);
    }
    // Scale-aware degeneracy threshold (squared area units).
    const auto box = mesh.bounds();
    const double diag2 = box.width() * box.width() + box.height() * box.height();
    min_area2_ = 1e-14 * diag2;
    heap_.resize(edges_.size());
    std::iota(heap_.begin(), heap_.end(), EdgeId{0});
    for (std::size_t s = heap_.size() / 2; s-- > 0;) {
      sift_down(static_cast<std::uint32_t>(s));
    }
  }

  DecimateResult run() {
    const std::size_t n0 = pos_.size();
    const double cut_fraction_target = 1.0 - 1.0 / opt_.ratio;
    std::size_t cut = 0;
    std::size_t rejected = 0;
    while (static_cast<double>(cut) / static_cast<double>(n0) < cut_fraction_target &&
           !heap_.empty()) {
      const EdgeId e = heap_.front();
      unqueue(e);
      if (try_collapse(e)) {
        ++cut;
      } else {
        ++rejected;
      }
    }
    // Only the triangles and the moved vertices are left to read.
    release(heap_);
    release(edges_);
    edge_lists_ = {};
    inc_ = {};
    DecimateResult r = compact();
    r.achieved_ratio = static_cast<double>(n0) / static_cast<double>(r.mesh.vertex_count());
    r.collapses = cut;
    r.rejected = rejected;
    return r;
  }

 private:
  double edge_priority(VertexId a, VertexId b) const {
    const double len = distance(pos_[a], pos_[b]);
    switch (opt_.priority) {
      case EdgePriority::kShortestFirst:
        return len;
      case EdgePriority::kRandom:
        return random_priority(opt_.seed, a, b, collapse_log_.size());
      case EdgePriority::kGradientWeighted:
        return len * (1.0 + opt_.gradient_weight *
                                std::abs(val_[a] - val_[b]) / value_range_);
    }
    CANOPUS_UNREACHABLE("unknown edge priority");
  }

  VertexId other_end(EdgeId e, VertexId v) const {
    return edges_[e].a == v ? edges_[e].b : edges_[e].a;
  }

  bool adjacent(VertexId v, VertexId n) const {
    for (EdgeId e : edge_lists_[v]) {
      if (other_end(e, v) == n) return true;
    }
    return false;
  }

  // ---- the heap: a strict total order, so its layout never shows -----------

  bool before(EdgeId x, EdgeId y) const {
    const EdgeRecord& p = edges_[x];
    const EdgeRecord& q = edges_[y];
    if (p.priority != q.priority) return p.priority < q.priority;
    return p.a != q.a ? p.a < q.a : p.b < q.b;
  }

  void place(std::uint32_t slot, EdgeId e) {
    heap_[slot] = e;
    edges_[e].slot = slot;
  }

  void sift_up(std::uint32_t slot) {
    const EdgeId e = heap_[slot];
    while (slot > 0) {
      const std::uint32_t parent = (slot - 1) / 2;
      if (!before(e, heap_[parent])) break;
      place(slot, heap_[parent]);
      slot = parent;
    }
    place(slot, e);
  }

  void sift_down(std::uint32_t slot) {
    const EdgeId e = heap_[slot];
    const auto n = static_cast<std::uint32_t>(heap_.size());
    for (;;) {
      std::uint32_t child = 2 * slot + 1;
      if (child >= n) break;
      if (child + 1 < n && before(heap_[child + 1], heap_[child])) ++child;
      if (!before(heap_[child], e)) break;
      place(slot, heap_[child]);
      slot = child;
    }
    place(slot, e);
  }

  /// Restores the heap around `slot` after its entry changed.
  void fix(std::uint32_t slot) {
    if (slot > 0 && before(heap_[slot], heap_[(slot - 1) / 2])) {
      sift_up(slot);
    } else {
      sift_down(slot);
    }
  }

  void unqueue(EdgeId e) {
    const std::uint32_t slot = edges_[e].slot;
    edges_[e].slot = kNotQueued;
    const EdgeId last = heap_.back();
    heap_.pop_back();
    if (last == e) return;
    place(slot, last);
    fix(slot);
  }

  /// Gives e the key (priority, i, n) and puts it in the heap.
  void rekey(EdgeId e, VertexId i) {
    EdgeRecord& r = edges_[e];
    const VertexId n = r.a == i ? r.b : r.a;
    r.a = i;
    r.b = n;
    r.priority = edge_priority(i, n);
    if (r.slot == kNotQueued) {
      heap_.push_back(e);
      sift_up(static_cast<std::uint32_t>(heap_.size() - 1));
    } else {
      fix(r.slot);
    }
  }

  // ---- one collapse ---------------------------------------------------------

  /// Link condition: the set of vertices adjacent to both endpoints must be
  /// exactly the opposite vertices of the triangles sharing the edge. Leaves
  /// those vertices in opposite_.
  bool link_condition_ok(VertexId i, VertexId j) {
    opposite_.clear();
    for (TriangleId t : inc_[i]) {
      if (!tri_alive_[t]) continue;
      const auto& tv = tris_[t].v;
      const bool has_j = tv[0] == j || tv[1] == j || tv[2] == j;
      if (!has_j) continue;
      for (VertexId v : tv) {
        if (v != i && v != j) opposite_.push_back(v);
      }
    }
    std::size_t common = 0;
    for (EdgeId e : edge_lists_[i]) {
      const VertexId n = other_end(e, i);
      if (n != j && adjacent(j, n)) {
        ++common;
        if (std::find(opposite_.begin(), opposite_.end(), n) == opposite_.end()) {
          return false;  // shared neighbor not across the edge -> pinch
        }
      }
    }
    return common == opposite_.size() && !opposite_.empty();
  }

  /// Checks every surviving triangle around i or j keeps positive area when
  /// the collapsed endpoint moves to `m`.
  bool geometry_ok(VertexId i, VertexId j, Vec2 m) const {
    auto survives_ok = [&](VertexId endpoint) {
      for (TriangleId t : inc_[endpoint]) {
        if (!tri_alive_[t]) continue;
        const auto& tv = tris_[t].v;
        const bool has_i = tv[0] == i || tv[1] == i || tv[2] == i;
        const bool has_j = tv[0] == j || tv[1] == j || tv[2] == j;
        if (has_i && has_j) continue;  // dies with the collapse
        Vec2 p[3];
        for (int k = 0; k < 3; ++k) {
          p[k] = (tv[k] == i || tv[k] == j) ? m : pos_[tv[k]];
        }
        if (signed_area2(p[0], p[1], p[2]) <= min_area2_) return false;
      }
      return true;
    };
    return survives_ok(i) && survives_ok(j);
  }

  /// Collapses edge e = (i, j), already out of the heap, unless the link
  /// condition or the orientation check rejects it.
  bool try_collapse(EdgeId e) {
    const VertexId i = edges_[e].a;
    const VertexId j = edges_[e].b;
    if (!link_condition_ok(i, j)) return false;
    const Vec2 m = midpoint(pos_[i], pos_[j]);
    if (!geometry_ok(i, j, m)) return false;

    // Kill triangles containing the edge. Erasing never moves a list, so
    // the span over inc_[i] stays valid.
    for (TriangleId t : inc_[i]) {
      if (!tri_alive_[t]) continue;
      const auto& tv = tris_[t].v;
      if (tv[0] == j || tv[1] == j || tv[2] == j) {
        tri_alive_[t] = 0;
        for (VertexId v : tv) {
          if (v != i) inc_.erase(v, t);
        }
      }
    }
    inc_.remove_if(i, [&](TriangleId t) { return !tri_alive_[t]; });

    // Rewire triangles that referenced only j. Indexed, because pushing onto
    // inc_[i] may move the arena.
    for (std::size_t k = 0; k < inc_[j].size(); ++k) {
      const TriangleId t = inc_[j][k];
      if (!tri_alive_[t]) continue;
      for (VertexId& v : tris_[t].v) {
        if (v == j) v = i;
      }
      inc_.push_back(i, t);
    }
    inc_.clear(j);

    // Edges: (i, j) goes; j's edge to each common neighbour (opposite_, by
    // the link condition) goes, since i keeps its own; j's other edges move
    // to i, staying in their far ends' lists. Indexed for the same reason.
    edge_lists_.erase(i, e);
    for (std::size_t k = 0; k < edge_lists_[j].size(); ++k) {
      const EdgeId f = edge_lists_[j][k];
      if (f == e) continue;
      const VertexId n = other_end(f, j);
      if (std::find(opposite_.begin(), opposite_.end(), n) != opposite_.end()) {
        if (edges_[f].slot != kNotQueued) unqueue(f);
        edge_lists_.erase(n, f);
      } else {
        edges_[f].a = i;
        edges_[f].b = n;
        edge_lists_.push_back(i, f);
      }
    }
    edge_lists_.clear(j);

    // Move i to the midpoint, average the data (NewData = mean).
    pos_[i] = m;
    val_[i] = (val_[i] + val_[j]) * 0.5;
    collapse_log_.emplace_back(i, j);

    // Every edge of i changed length: re-key each as (i, n).
    for (EdgeId f : edge_lists_[i]) rekey(f, i);
    return true;
  }

  /// The output level: the slots a live triangle references, in slot order,
  /// and the live triangles in input order. A collapse can orphan a
  /// boundary-corner vertex whose only triangle died; it is dropped.
  DecimateResult compact() {
    std::vector<VertexId> remap(pos_.size(), 0);
    std::size_t tri_count = 0;
    for (TriangleId t = 0; t < tris_.size(); ++t) {
      if (!tri_alive_[t]) continue;
      ++tri_count;
      for (VertexId v : tris_[t].v) remap[v] = 1;
    }
    const auto vertex_count =
        static_cast<std::size_t>(std::count(remap.begin(), remap.end(), 1u));
    std::vector<Vec2> vertices(vertex_count);
    Field values(vertex_count);
    std::vector<VertexId> survivors(vertex_count);
    for (VertexId v = 0, next = 0; v < pos_.size(); ++v) {
      if (remap[v] == 0) continue;
      vertices[next] = pos_[v];
      values[next] = val_[v];
      survivors[next] = v;
      remap[v] = next++;
    }
    std::vector<Triangle> tris(tri_count);
    for (TriangleId t = 0, next = 0; t < tris_.size(); ++t) {
      if (!tri_alive_[t]) continue;
      for (int k = 0; k < 3; ++k) tris[next].v[k] = remap[tris_[t].v[k]];
      ++next;
    }
    DecimateResult r;
    r.mesh = TriMesh(std::move(vertices), std::move(tris));
    r.values = std::move(values);
    r.collapse_log = std::move(collapse_log_);
    r.survivor_slots = std::move(survivors);
    return r;
  }

  DecimateOptions opt_;
  std::vector<Vec2> pos_;
  std::vector<double> val_;
  std::vector<Triangle> tris_;
  std::vector<std::uint8_t> tri_alive_;
  ArenaLists inc_;                    // live triangles at each vertex
  ArenaLists edge_lists_;             // live edges at each vertex
  std::vector<EdgeRecord> edges_;
  std::vector<EdgeId> heap_;          // live edges not rejected since re-keyed
  CollapseLog collapse_log_;
  std::vector<VertexId> opposite_;    // link_condition_ok's result
  double min_area2_ = 0.0;
  double value_range_ = 1.0;
};

}  // namespace

DecimateResult decimate(const TriMesh& mesh, const Field& values,
                        const DecimateOptions& options) {
  Decimator d(mesh, values, options);
  return d.run();
}

Field replay_decimation(const CollapseLog& log,
                        const std::vector<VertexId>& survivor_slots,
                        const Field& values) {
  Field work = values;
  for (const auto& [i, j] : log) {
    CANOPUS_CHECK(i < work.size() && j < work.size(),
                  "replay: collapse log does not match field size");
    work[i] = (work[i] + work[j]) * 0.5;
  }
  Field out;
  out.reserve(survivor_slots.size());
  for (VertexId slot : survivor_slots) {
    CANOPUS_CHECK(slot < work.size(), "replay: survivor slot out of range");
    out.push_back(work[slot]);
  }
  return out;
}

TriMesh replay_collapses(const TriMesh& input, const CollapseLog& log) {
  const std::size_t n = input.vertex_count();
  std::vector<Vec2> pos = input.vertices();
  // final_of[v] is v's survivor; the forward pass marks dead slots with
  // kInvalidVertex, which the reverse pass then overwrites.
  std::vector<VertexId> final_of(n);
  for (VertexId v = 0; v < n; ++v) final_of[v] = v;
  for (const auto& [i, j] : log) {
    CANOPUS_CHECK(i < n && j < n,
                  "replay: slot past the " + std::to_string(n) +
                      "-vertex input (" + std::to_string(i) + ", " +
                      std::to_string(j) + ")");
    CANOPUS_CHECK(i != j, "replay: slot " + std::to_string(i) +
                              " collapsed into itself");
    CANOPUS_CHECK(final_of[i] != kInvalidVertex && final_of[j] != kInvalidVertex,
                  "replay: slot used after it died (" +
                      std::to_string(i) + ", " + std::to_string(j) + ")");
    pos[i] = midpoint(pos[i], pos[j]);
    final_of[j] = kInvalidVertex;
  }
  // A slot that died at collapse k follows its survivor, whose own final
  // slot later collapses have already settled.
  for (auto it = log.rbegin(); it != log.rend(); ++it) {
    final_of[it->second] = final_of[it->first];
  }

  // Surviving triangles, mapped and compacted in input order (branch-free:
  // every mapped triangle is written, and only a survivor advances).
  const auto& tris = input.triangles();
  std::vector<Triangle> kept(tris.size());
  std::size_t tri_count = 0;
  for (const auto& t : tris) {
    const Triangle m{{final_of[t.v[0]], final_of[t.v[1]], final_of[t.v[2]]}};
    kept[tri_count] = m;
    tri_count += static_cast<std::size_t>((m.v[0] != m.v[1]) &
                                          (m.v[1] != m.v[2]) &
                                          (m.v[0] != m.v[2]));
  }
  // The output vertices: the slots a surviving triangle references, in slot
  // order. remap[v] is v's output index.
  std::vector<VertexId> remap(n, 0);
  for (std::size_t k = 0; k < tri_count; ++k) {
    for (VertexId v : kept[k].v) remap[v] = 1;
  }
  std::size_t vertex_count = 0;
  for (VertexId v = 0; v < n; ++v) vertex_count += remap[v];
  std::vector<Vec2> vertices(vertex_count);
  for (VertexId v = 0, next = 0; v < n; ++v) {
    if (remap[v] == 0) continue;
    vertices[next] = pos[v];
    remap[v] = next++;
  }
  std::vector<Triangle> out(kept.begin(),
                            kept.begin() + static_cast<std::ptrdiff_t>(tri_count));
  for (auto& t : out) {
    for (VertexId& v : t.v) v = remap[v];
  }
  return TriMesh(std::move(vertices), std::move(out));
}

}  // namespace canopus::mesh
