// Brute-force reference enumerators: independent O(n^2)-per-target
// implementations used as differential-test oracles for motif/enumerate.h.

#ifndef TPP_REFERENCE_BRUTE_FORCE_H_
#define TPP_REFERENCE_BRUTE_FORCE_H_

#include <vector>

#include "graph/graph.h"
#include "motif/motif.h"
#include "motif/target_subgraph.h"

namespace tpp::reference {

/// Enumerates target subgraphs by scanning all node (pairs); deliberately
/// written without shared code with motif::EnumerateTargetSubgraphs so the
/// two can cross-check each other.
std::vector<motif::TargetSubgraph> BruteForceTargetSubgraphs(
    const graph::Graph& g, graph::Edge target, motif::MotifKind kind,
    int32_t target_index = 0);

}  // namespace tpp::reference

#endif  // TPP_REFERENCE_BRUTE_FORCE_H_
