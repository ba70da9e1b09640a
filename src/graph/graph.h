// Undirected graphs over party vertices, with the combinatorial algorithms
// the sharing protocols need:
//   * maximum matching (Edmonds' blossom algorithm — see blossom.h),
//   * the (n,t)-Star algorithm of Protocol 4.2 (with the E/F extension),
//   * maximum clique / "clique of size s containing U" (Bron-Kerbosch),
// all exact, as the paper requires (the dealer is explicitly allowed
// exponential time; see §2.1 "Challenges in achieving polynomial time").
// Vertex counts up to PartySet::kMaxParties (128) are supported.
#pragma once

#include <optional>
#include <vector>

#include "util/codec.h"
#include "util/small_set.h"

namespace nampc {

/// Undirected simple graph on vertices {0..n-1}, adjacency as bitmasks.
class Graph {
 public:
  Graph() = default;
  explicit Graph(int n);

  [[nodiscard]] int size() const { return n_; }

  void add_edge(int u, int v);
  void remove_edge(int u, int v);
  [[nodiscard]] bool has_edge(int u, int v) const;

  /// Neighbours of u as a set (never contains u).
  [[nodiscard]] PartySet neighbors(int u) const { return adj_[static_cast<std::size_t>(u)]; }

  [[nodiscard]] int degree(int u) const { return adj_[static_cast<std::size_t>(u)].size(); }

  /// Complement graph (no self-loops).
  [[nodiscard]] Graph complement() const;

  /// True if every pair in `s` is adjacent.
  [[nodiscard]] bool is_clique(PartySet s) const;

  /// True if the edge set of this graph is a subset of `other`'s.
  [[nodiscard]] bool edges_subset_of(const Graph& other) const;

  friend bool operator==(const Graph& a, const Graph& b) {
    return a.n_ == b.n_ && a.adj_ == b.adj_;
  }

  void encode(Writer& w) const;
  static Graph decode(Reader& r);

 private:
  int n_ = 0;
  std::vector<PartySet> adj_;
};

/// A maximum matching in g: pairwise disjoint edges, maximum cardinality.
/// Edmonds' blossom algorithm, polynomial for every n (blossom.h).
[[nodiscard]] std::vector<std::pair<int, int>> maximum_matching(const Graph& g);

/// Output of the (n,t)-Star algorithm (Protocol 4.2): (C,D) is the star;
/// (E,F) the extended star of [26]. `extended` is true when the E/F size
/// checks (each >= n-t) also pass.
struct StarResult {
  PartySet c;
  PartySet d;
  PartySet e;
  PartySet f;
  bool extended = false;
};

/// Runs Protocol 4.2 with parameter t. Returns nullopt when the (C,D) size
/// checks fail. Guarantee (Canetti): if g contains a clique of size n-t,
/// the (C,D) star is found.
[[nodiscard]] std::optional<StarResult> find_star(const Graph& g, int t);

/// A maximum clique of g (exact Bron-Kerbosch with pivoting).
[[nodiscard]] PartySet maximum_clique(const Graph& g);

/// A clique of size >= target containing all of `must_include`, if one
/// exists; prefers larger cliques. `must_include` must itself be a clique.
/// `exclude` vertices are never used (the VSS dealer excludes parties that
/// stalled previous runs; see §7 "restart with {phi}").
[[nodiscard]] std::optional<PartySet> find_clique_including(
    const Graph& g, PartySet must_include, int target, PartySet exclude = {});

}  // namespace nampc
