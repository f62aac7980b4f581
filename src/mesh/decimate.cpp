#include "mesh/decimate.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <queue>
#include <span>
#include <string>
#include <vector>

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace canopus::mesh {

namespace {

/// NewVertex(Vi, Vj): where a collapse moves its surviving endpoint. The
/// decimator and replay_collapses share this one expression, so a replayed
/// mesh has the decimator's coordinates bit for bit.
Vec2 midpoint(Vec2 a, Vec2 b) { return (a + b) * 0.5; }

/// Room each list starts with beyond its initial length. A collapse grows
/// the survivor's lists by a few entries; with 8, no list of a 4-level XGC
/// cascade relocates, so each arena keeps its initial size.
constexpr std::uint32_t kListSlack = 8;

/// Per-vertex id lists packed into one arena. List v occupies the first
/// `len` entries of a slot with room for `cap`; a list that fills its slot
/// moves to the end of the arena with twice the room, leaving the old slot
/// unused for the rest of the pass. A span from operator[] stays valid until
/// the next push_back or insert on any list.
class ArenaLists {
 public:
  ArenaLists() = default;
  /// Gives list v room for `counts[v] + kListSlack` ids.
  explicit ArenaLists(const std::vector<std::uint32_t>& counts)
      : slots_(counts.size()) {
    std::size_t off = 0;
    for (std::size_t v = 0; v < counts.size(); ++v) {
      slots_[v] = Slot{off, 0, counts[v] + kListSlack};
      off += slots_[v].cap;
    }
    items_.resize(off);
  }

  std::span<std::uint32_t> operator[](std::uint32_t v) {
    return {items_.data() + slots_[v].off, slots_[v].len};
  }
  std::span<const std::uint32_t> operator[](std::uint32_t v) const {
    return {items_.data() + slots_[v].off, slots_[v].len};
  }

  bool contains(std::uint32_t v, std::uint32_t x) const {
    const auto xs = (*this)[v];
    return std::find(xs.begin(), xs.end(), x) != xs.end();
  }

  void push_back(std::uint32_t v, std::uint32_t x) {
    Slot& s = slots_[v];
    if (s.len == s.cap) {
      const std::size_t off = items_.size();
      const std::uint32_t cap = 2 * s.cap;  // never 0: every slot has slack
      items_.resize(off + cap);
      std::copy_n(items_.begin() + static_cast<std::ptrdiff_t>(s.off), s.len,
                  items_.begin() + static_cast<std::ptrdiff_t>(off));
      s.off = off;
      s.cap = cap;
    }
    items_[s.off + s.len++] = x;
  }

  /// Appends x unless the list already holds it.
  void insert(std::uint32_t v, std::uint32_t x) {
    if (!contains(v, x)) push_back(v, x);
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

  /// Drops the entries matching `pred`, keeping the others in order.
  template <class Pred>
  void remove_if(std::uint32_t v, Pred pred) {
    const auto xs = (*this)[v];
    slots_[v].len = static_cast<std::uint32_t>(
        std::remove_if(xs.begin(), xs.end(), pred) - xs.begin());
  }

  void clear(std::uint32_t v) { slots_[v].len = 0; }

 private:
  struct Slot {
    std::size_t off = 0;
    std::uint32_t len = 0;
    std::uint32_t cap = 0;
  };
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> items_;
};

/// Mutable mesh scratch state for the collapse loop. Vertex slot `i` survives
/// a collapse of edge (i, j) and is moved to the midpoint; slot `j` dies.
struct Workspace {
  std::vector<Vec2> pos;
  std::vector<double> val;
  std::vector<std::uint8_t> vertex_alive;
  ArenaLists nbr;                         // adjacent alive vertices
  std::vector<Triangle> tris;
  std::vector<std::uint8_t> tri_alive;
  ArenaLists inc;                         // incident alive triangles
  std::vector<std::uint32_t> version;     // bumped on any change at v
};

struct HeapEntry {
  double priority;
  VertexId a, b;
  std::uint32_t va_version, vb_version;
  // Min-heap via reversed comparison in a max-priority_queue.
  bool operator<(const HeapEntry& o) const { return priority > o.priority; }
};

/// Entries of equal priority pop in an order set by the binary heap's
/// layout, so the heap and the order of its pushes are part of the output:
/// the initial edges in ascending (a, b) order, then after each collapse
/// (i, n) for every n in nbr[i] order. Every list operation below keeps the
/// order nbr[i] would have as a std::vector under the same operations.
class Decimator {
 public:
  Decimator(const TriMesh& mesh, const Field& values, const DecimateOptions& opt)
      : opt_(opt), rng_(opt.seed) {
    CANOPUS_CHECK(values.size() == mesh.vertex_count(),
                  "field size does not match vertex count");
    CANOPUS_CHECK(opt.ratio >= 1.0, "decimation ratio must be >= 1");
    CANOPUS_CHECK(mesh.triangle_count() > 0, "cannot decimate an empty mesh");
    ws_.pos = mesh.vertices();
    ws_.val = values;
    ws_.vertex_alive.assign(ws_.pos.size(), 1);
    ws_.tris = mesh.triangles();
    ws_.tri_alive.assign(ws_.tris.size(), 1);
    ws_.version.assign(ws_.pos.size(), 0);
    std::vector<std::uint32_t> count(ws_.pos.size(), 0);
    for (const auto& tri : ws_.tris) {
      for (VertexId v : tri.v) ++count[v];
    }
    ws_.inc = ArenaLists(count);
    for (TriangleId t = 0; t < ws_.tris.size(); ++t) {
      for (VertexId v : ws_.tris[t].v) ws_.inc.push_back(v, t);
    }
    const std::vector<Edge> edges = mesh.edges();
    std::fill(count.begin(), count.end(), 0);
    for (const auto& e : edges) {
      ++count[e.a];
      ++count[e.b];
    }
    ws_.nbr = ArenaLists(count);
    for (const auto& e : edges) {
      ws_.nbr.push_back(e.a, e.b);
      ws_.nbr.push_back(e.b, e.a);
    }
    // Scale-aware degeneracy threshold (squared area units).
    const auto box = mesh.bounds();
    const double diag2 = box.width() * box.width() + box.height() * box.height();
    min_area2_ = 1e-14 * diag2;
    if (opt.priority == EdgePriority::kGradientWeighted) {
      const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
      value_range_ = std::max(*hi - *lo, 1e-300);
    }
    std::vector<HeapEntry> storage;
    storage.reserve(edges.size());
    heap_ = std::priority_queue<HeapEntry>(std::less<HeapEntry>(), std::move(storage));
    for (const auto& e : edges) push_edge(e.a, e.b);
  }

  DecimateResult run() {
    const std::size_t n0 = ws_.pos.size();
    const double cut_fraction_target = 1.0 - 1.0 / opt_.ratio;
    std::size_t cut = 0;
    std::size_t rejected = 0;
    while (static_cast<double>(cut) / static_cast<double>(n0) < cut_fraction_target &&
           !heap_.empty()) {
      const HeapEntry e = heap_.top();
      heap_.pop();
      if (!entry_valid(e)) continue;
      if (try_collapse(e.a, e.b)) {
        ++cut;
      } else {
        ++rejected;
      }
    }
    DecimateResult r = compact();
    r.achieved_ratio = static_cast<double>(n0) / static_cast<double>(r.mesh.vertex_count());
    r.collapses = cut;
    r.rejected = rejected;
    return r;
  }

 private:
  double edge_priority(VertexId a, VertexId b) {
    const double len = distance(ws_.pos[a], ws_.pos[b]);
    switch (opt_.priority) {
      case EdgePriority::kShortestFirst:
        return len;
      case EdgePriority::kRandom:
        return rng_.uniform();
      case EdgePriority::kGradientWeighted:
        return len * (1.0 + opt_.gradient_weight *
                                std::abs(ws_.val[a] - ws_.val[b]) / value_range_);
    }
    CANOPUS_UNREACHABLE("unknown edge priority");
  }

  void push_edge(VertexId a, VertexId b) {
    heap_.push(HeapEntry{edge_priority(a, b), a, b, ws_.version[a], ws_.version[b]});
  }

  bool entry_valid(const HeapEntry& e) const {
    return ws_.vertex_alive[e.a] && ws_.vertex_alive[e.b] &&
           ws_.version[e.a] == e.va_version && ws_.version[e.b] == e.vb_version &&
           ws_.nbr.contains(e.a, e.b);
  }

  /// Link condition: the set of vertices adjacent to both endpoints must be
  /// exactly the opposite vertices of the triangles sharing the edge.
  bool link_condition_ok(VertexId i, VertexId j) {
    opposite_.clear();
    for (TriangleId t : ws_.inc[i]) {
      if (!ws_.tri_alive[t]) continue;
      const auto& tv = ws_.tris[t].v;
      const bool has_j = tv[0] == j || tv[1] == j || tv[2] == j;
      if (!has_j) continue;
      for (VertexId v : tv) {
        if (v != i && v != j) opposite_.push_back(v);
      }
    }
    std::size_t common = 0;
    for (VertexId n : ws_.nbr[i]) {
      if (ws_.nbr.contains(j, n)) {
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
      for (TriangleId t : ws_.inc[endpoint]) {
        if (!ws_.tri_alive[t]) continue;
        const auto& tv = ws_.tris[t].v;
        const bool has_i = tv[0] == i || tv[1] == i || tv[2] == i;
        const bool has_j = tv[0] == j || tv[1] == j || tv[2] == j;
        if (has_i && has_j) continue;  // dies with the collapse
        Vec2 p[3];
        for (int k = 0; k < 3; ++k) {
          p[k] = (tv[k] == i || tv[k] == j) ? m : ws_.pos[tv[k]];
        }
        if (signed_area2(p[0], p[1], p[2]) <= min_area2_) return false;
      }
      return true;
    };
    return survives_ok(i) && survives_ok(j);
  }

  bool try_collapse(VertexId i, VertexId j) {
    if (!link_condition_ok(i, j)) return false;
    const Vec2 m = midpoint(ws_.pos[i], ws_.pos[j]);
    if (!geometry_ok(i, j, m)) return false;

    // Kill triangles containing the edge. Erasing never moves a list, so
    // the span over inc[i] stays valid.
    for (TriangleId t : ws_.inc[i]) {
      if (!ws_.tri_alive[t]) continue;
      const auto& tv = ws_.tris[t].v;
      if (tv[0] == j || tv[1] == j || tv[2] == j) {
        ws_.tri_alive[t] = 0;
        for (VertexId v : tv) {
          if (v != i) ws_.inc.erase(v, t);
        }
      }
    }
    ws_.inc.remove_if(i, [&](TriangleId t) { return !ws_.tri_alive[t]; });

    // Rewire triangles that referenced only j. Indexed, because pushing onto
    // inc[i] may move the arena.
    for (std::size_t k = 0; k < ws_.inc[j].size(); ++k) {
      const TriangleId t = ws_.inc[j][k];
      if (!ws_.tri_alive[t]) continue;
      for (VertexId& v : ws_.tris[t].v) {
        if (v == j) v = i;
      }
      ws_.inc.push_back(i, t);
    }
    ws_.inc.clear(j);

    // Merge adjacency: neighbors of j become neighbors of i (indexed for
    // the same reason).
    for (std::size_t k = 0; k < ws_.nbr[j].size(); ++k) {
      const VertexId n = ws_.nbr[j][k];
      if (n == i) continue;
      ws_.nbr.erase(n, j);
      ws_.nbr.insert(n, i);
      ws_.nbr.insert(i, n);
    }
    ws_.nbr.erase(i, j);
    ws_.nbr.clear(j);

    // Move i to the midpoint, average the data (NewData = mean).
    ws_.pos[i] = m;
    ws_.val[i] = (ws_.val[i] + ws_.val[j]) * 0.5;
    ws_.vertex_alive[j] = 0;
    collapse_log_.emplace_back(i, j);

    // Invalidate stale heap entries and re-key every edge incident to i.
    ++ws_.version[i];
    ++ws_.version[j];
    for (VertexId n : ws_.nbr[i]) push_edge(i, n);
    return true;
  }

  DecimateResult compact() {
    std::vector<VertexId> remap(ws_.pos.size(), kInvalidVertex);
    std::vector<Vec2> vertices;
    Field values;
    auto has_live_triangle = [&](VertexId v) {
      for (TriangleId t : ws_.inc[v]) {
        if (ws_.tri_alive[t]) return true;
      }
      return false;
    };
    // A collapse can orphan a boundary-corner vertex whose only triangle died;
    // drop such vertices so the compacted mesh has no isolated vertices.
    std::vector<VertexId> survivors;
    for (VertexId v = 0; v < ws_.pos.size(); ++v) {
      if (ws_.vertex_alive[v] && has_live_triangle(v)) {
        remap[v] = static_cast<VertexId>(vertices.size());
        vertices.push_back(ws_.pos[v]);
        values.push_back(ws_.val[v]);
        survivors.push_back(v);
      }
    }
    std::vector<Triangle> tris;
    for (TriangleId t = 0; t < ws_.tris.size(); ++t) {
      if (!ws_.tri_alive[t]) continue;
      Triangle tri = ws_.tris[t];
      for (VertexId& v : tri.v) v = remap[v];
      tris.push_back(tri);
    }
    DecimateResult r;
    r.mesh = TriMesh(std::move(vertices), std::move(tris));
    r.values = std::move(values);
    r.collapse_log = std::move(collapse_log_);
    r.survivor_slots = std::move(survivors);
    return r;
  }

  DecimateOptions opt_;
  util::Rng rng_;
  Workspace ws_;
  std::priority_queue<HeapEntry> heap_;
  CollapseLog collapse_log_;
  std::vector<VertexId> opposite_;  // link_condition_ok scratch
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
