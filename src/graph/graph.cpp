#include "graph/graph.h"

#include "graph/blossom.h"
#include "graph/star_incremental.h"
#include "util/assert.h"

namespace nampc {

Graph::Graph(int n) : n_(n), adj_(static_cast<std::size_t>(n)) {
  NAMPC_REQUIRE(n >= 0 && n <= PartySet::kMaxParties,
                "graph supports up to 128 vertices");
}

void Graph::add_edge(int u, int v) {
  NAMPC_REQUIRE(u >= 0 && u < n_ && v >= 0 && v < n_ && u != v, "bad edge");
  adj_[static_cast<std::size_t>(u)].insert(v);
  adj_[static_cast<std::size_t>(v)].insert(u);
}

void Graph::remove_edge(int u, int v) {
  NAMPC_REQUIRE(u >= 0 && u < n_ && v >= 0 && v < n_, "bad edge");
  adj_[static_cast<std::size_t>(u)].erase(v);
  adj_[static_cast<std::size_t>(v)].erase(u);
}

bool Graph::has_edge(int u, int v) const {
  return u >= 0 && u < n_ && adj_[static_cast<std::size_t>(u)].contains(v);
}

Graph Graph::complement() const {
  Graph g(n_);
  for (int u = 0; u < n_; ++u) {
    for (int v = u + 1; v < n_; ++v) {
      if (!has_edge(u, v)) g.add_edge(u, v);
    }
  }
  return g;
}

bool Graph::is_clique(PartySet s) const {
  // Word-parallel pair check: every member later in the order must be a
  // neighbour of the current one. O(|s|) set operations, no allocation —
  // this runs once per AOK arrival on the asynchronous acceptance path.
  PartySet rest = s;
  while (!rest.empty()) {
    const int u = rest.first();
    rest.erase(u);
    if (!rest.subset_of(adj_[static_cast<std::size_t>(u)])) return false;
  }
  return true;
}

bool Graph::edges_subset_of(const Graph& other) const {
  if (other.n_ < n_) return false;
  for (int u = 0; u < n_; ++u) {
    if (!adj_[static_cast<std::size_t>(u)].subset_of(
            other.adj_[static_cast<std::size_t>(u)])) {
      return false;
    }
  }
  return true;
}

void Graph::encode(Writer& w) const {
  // One word per adjacency row up to 64 vertices (the legacy wire format,
  // unchanged for every committed protocol run), two words beyond.
  w.u64(static_cast<std::uint64_t>(n_));
  for (const PartySet& row : adj_) {
    w.u64(row.lo());
    if (n_ > 64) w.u64(row.hi());
  }
}

Graph Graph::decode(Reader& r) {
  const auto n = static_cast<int>(r.u64());
  if (n < 0 || n > PartySet::kMaxParties) throw DecodeError("bad graph size");
  Graph g(n);
  for (int u = 0; u < n; ++u) {
    const std::uint64_t lo = r.u64();
    const PartySet row{lo, n > 64 ? r.u64() : 0};
    for (int v : row.to_vector()) {
      if (v >= n || v == u) throw DecodeError("bad adjacency row");
      if (v > u) g.add_edge(u, v);
      else if (!g.has_edge(u, v)) throw DecodeError("asymmetric adjacency");
    }
  }
  return g;
}

std::vector<std::pair<int, int>> maximum_matching(const Graph& g) {
  const std::vector<int> match = blossom_matching(g);
  std::vector<std::pair<int, int>> edges;
  for (int v = 0; v < g.size(); ++v) {
    const int u = match[static_cast<std::size_t>(v)];
    if (u > v) edges.emplace_back(v, u);
  }
  return edges;
}

std::optional<StarResult> find_star(const Graph& g, int t) {
  // Maximum matching M in the complement, then the C/D/E/F construction
  // (shared with the incremental finder in star_incremental.h).
  const Graph gc = g.complement();
  const auto m_edges = maximum_matching(gc);
  return find_star_from_matching(g, gc, m_edges, t);
}

namespace {

/// Bron-Kerbosch with pivoting over (two-word) bitmask sets. Identical
/// branch order to the historical single-word version — vertices come off
/// every set lowest-id first — so results are unchanged for n <= 64.
void bron_kerbosch(const Graph& g, PartySet r, PartySet p, PartySet x,
                   PartySet& best) {
  if (p.empty() && x.empty()) {
    if (r.size() > best.size()) best = r;
    return;
  }
  // Prune: even taking all of p cannot beat best.
  if (r.size() + p.size() <= best.size()) return;
  // Pivot: vertex in p|x maximising neighbours in p.
  int pivot = -1;
  int pivot_deg = -1;
  p.union_with(x).for_each([&](int u) {
    const int deg = g.neighbors(u).intersect(p).size();
    if (deg > pivot_deg) {
      pivot_deg = deg;
      pivot = u;
    }
  });
  PartySet candidates = p.minus(g.neighbors(pivot));
  while (!candidates.empty()) {
    const int v = candidates.first();
    candidates.erase(v);
    const PartySet nv = g.neighbors(v);
    PartySet rv = r;
    rv.insert(v);
    bron_kerbosch(g, rv, p.intersect(nv), x.intersect(nv), best);
    p.erase(v);
    x.insert(v);
  }
}

}  // namespace

PartySet maximum_clique(const Graph& g) {
  PartySet best;
  bron_kerbosch(g, {}, PartySet::full(g.size()), {}, best);
  return best;
}

std::optional<PartySet> find_clique_including(const Graph& g,
                                              PartySet must_include,
                                              int target, PartySet exclude) {
  NAMPC_REQUIRE(must_include.intersect(exclude).empty(),
                "must_include and exclude overlap");
  if (!g.is_clique(must_include)) return std::nullopt;

  // Candidates: common neighbours of everything in must_include, minus
  // exclusions.
  PartySet candidates =
      PartySet::full(g.size()).minus(must_include).minus(exclude);
  for (int u : must_include.to_vector()) {
    candidates = candidates.intersect(g.neighbors(u));
  }

  PartySet best;
  bron_kerbosch(g, {}, candidates, {}, best);
  const PartySet result = best.union_with(must_include);
  if (result.size() >= target) return result;
  return std::nullopt;
}

}  // namespace nampc
