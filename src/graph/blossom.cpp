#include "graph/blossom.h"

#include <algorithm>

#include "util/assert.h"

namespace nampc {

namespace {

/// Scratch state for augmenting searches (classical contracted-blossom
/// BFS; see e.g. Tarjan's notes on Edmonds' algorithm). One Search serves
/// any number of augment() calls on the same graph, so a full matching
/// allocates its scratch once rather than once per unmatched vertex.
struct Search {
  const Graph& g;
  std::vector<int>& match;
  std::vector<int> p;        ///< BFS tree parent (through the blossom base)
  std::vector<int> base;     ///< contracted-blossom base of each vertex
  std::vector<char> used;    ///< vertex is an even (outer) node
  std::vector<char> in_blossom;
  std::vector<char> seen;    ///< lowest_common_base's path marks
  std::vector<int> queue;

  Search(const Graph& graph, std::vector<int>& m)
      : g(graph),
        match(m),
        p(static_cast<std::size_t>(graph.size())),
        base(static_cast<std::size_t>(graph.size())),
        used(static_cast<std::size_t>(graph.size())),
        in_blossom(static_cast<std::size_t>(graph.size())),
        seen(static_cast<std::size_t>(graph.size())) {
    queue.reserve(static_cast<std::size_t>(graph.size()));
  }

  /// Searches for an augmenting path from unmatched `root` and flips it.
  bool augment(int root) {
    std::fill(p.begin(), p.end(), -1);
    std::fill(used.begin(), used.end(), 0);
    queue.clear();
    int v = find_path(root);
    if (v == -1) return false;
    while (v != -1) {
      const int pv = p[static_cast<std::size_t>(v)];
      const int next = match[static_cast<std::size_t>(pv)];
      match[static_cast<std::size_t>(v)] = pv;
      match[static_cast<std::size_t>(pv)] = v;
      v = next;
    }
    return true;
  }

  [[nodiscard]] int lowest_common_base(int a, int b) {
    std::fill(seen.begin(), seen.end(), 0);
    for (;;) {
      a = base[static_cast<std::size_t>(a)];
      seen[static_cast<std::size_t>(a)] = 1;
      if (match[static_cast<std::size_t>(a)] == -1) break;
      a = p[static_cast<std::size_t>(match[static_cast<std::size_t>(a)])];
    }
    for (;;) {
      b = base[static_cast<std::size_t>(b)];
      if (seen[static_cast<std::size_t>(b)]) return b;
      b = p[static_cast<std::size_t>(match[static_cast<std::size_t>(b)])];
    }
  }

  void mark_path(int v, int stem_base, int child) {
    while (base[static_cast<std::size_t>(v)] != stem_base) {
      const int mv = match[static_cast<std::size_t>(v)];
      in_blossom[static_cast<std::size_t>(base[static_cast<std::size_t>(v)])] = 1;
      in_blossom[static_cast<std::size_t>(base[static_cast<std::size_t>(mv)])] = 1;
      p[static_cast<std::size_t>(v)] = child;
      child = mv;
      v = p[static_cast<std::size_t>(mv)];
    }
  }

  void contract(int v, int to) {
    const int stem_base = lowest_common_base(v, to);
    std::fill(in_blossom.begin(), in_blossom.end(), 0);
    mark_path(v, stem_base, to);
    mark_path(to, stem_base, v);
    for (int i = 0; i < g.size(); ++i) {
      if (!in_blossom[static_cast<std::size_t>(
              base[static_cast<std::size_t>(i)])]) {
        continue;
      }
      base[static_cast<std::size_t>(i)] = stem_base;
      if (!used[static_cast<std::size_t>(i)]) {
        used[static_cast<std::size_t>(i)] = 1;
        queue.push_back(i);
      }
    }
  }

  /// BFS from `root`; returns the far end of an augmenting path, or -1.
  [[nodiscard]] int find_path(int root) {
    for (int i = 0; i < g.size(); ++i) base[static_cast<std::size_t>(i)] = i;
    used[static_cast<std::size_t>(root)] = 1;
    queue.push_back(root);
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const int v = queue[head];
      int endpoint = -1;
      g.neighbors(v).for_each([&](int to) {
        if (endpoint != -1) return;
        if (base[static_cast<std::size_t>(v)] ==
                base[static_cast<std::size_t>(to)] ||
            match[static_cast<std::size_t>(v)] == to) {
          return;
        }
        if (to == root ||
            (match[static_cast<std::size_t>(to)] != -1 &&
             p[static_cast<std::size_t>(
                 match[static_cast<std::size_t>(to)])] != -1)) {
          contract(v, to);  // odd cycle: contract the blossom
        } else if (p[static_cast<std::size_t>(to)] == -1) {
          p[static_cast<std::size_t>(to)] = v;
          const int mt = match[static_cast<std::size_t>(to)];
          if (mt == -1) {
            endpoint = to;  // `to` is free: augmenting path found
          } else if (!used[static_cast<std::size_t>(mt)]) {
            used[static_cast<std::size_t>(mt)] = 1;
            queue.push_back(mt);
          }
        }
      });
      if (endpoint != -1) return endpoint;
    }
    return -1;
  }
};

}  // namespace

bool blossom_augment(const Graph& g, std::vector<int>& match, int root) {
  NAMPC_REQUIRE(static_cast<int>(match.size()) == g.size(),
                "matching size mismatch");
  NAMPC_REQUIRE(root >= 0 && root < g.size() &&
                    match[static_cast<std::size_t>(root)] == -1,
                "augment root must be an unmatched vertex");
  return Search(g, match).augment(root);
}

std::vector<int> blossom_matching(const Graph& g) {
  std::vector<int> match(static_cast<std::size_t>(g.size()), -1);
  // Greedy seed: pairs each vertex with its first free neighbour. Cuts the
  // number of full augmenting searches roughly in half.
  for (int v = 0; v < g.size(); ++v) {
    if (match[static_cast<std::size_t>(v)] != -1) continue;
    int pick = -1;
    g.neighbors(v).for_each([&](int u) {
      if (pick == -1 && match[static_cast<std::size_t>(u)] == -1) pick = u;
    });
    if (pick != -1) {
      match[static_cast<std::size_t>(v)] = pick;
      match[static_cast<std::size_t>(pick)] = v;
    }
  }
  Search search(g, match);
  for (int v = 0; v < g.size(); ++v) {
    if (match[static_cast<std::size_t>(v)] == -1) search.augment(v);
  }
  return match;
}

}  // namespace nampc
