// Maximum matching in general graphs via Edmonds' blossom algorithm.
//
// The classical O(V^3) blossom-contraction search, deterministic (vertices
// and neighbours are always scanned in increasing order). It is the one
// matching algorithm of the tree: both the from-scratch maximum_matching
// (graph.h) and the incremental (n,t)-Star maintenance (star_incremental.h)
// build on it.
#pragma once

#include <vector>

#include "graph/graph.h"

namespace nampc {

/// One augmenting-path search from unmatched vertex `root` under the current
/// matching (match[v] = partner or -1). Returns true and flips the path if
/// one exists; `match` is left unchanged otherwise. Precondition:
/// match[root] == -1 and `match` is a valid (symmetric) matching of g.
bool blossom_augment(const Graph& g, std::vector<int>& match, int root);

/// A maximum matching of g: match[v] = partner or -1. Greedy seeding plus
/// one augmenting search per remaining unmatched vertex.
[[nodiscard]] std::vector<int> blossom_matching(const Graph& g);

}  // namespace nampc
