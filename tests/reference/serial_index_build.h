// The single-threaded pre-parallel IncidenceIndex build, kept outside
// libtpp as the baseline of the index_build bench and the reference of the
// parallel-vs-serial differential tests.
//
// EnumerateTargetSubgraphsReference is the pre-optimization enumerator,
// frozen verbatim: it materializes CommonNeighbors vectors and answers
// every adjacency probe with a HasEdge binary search. SerialIndexBuilder
// builds over it target by target, resolving edge ids through a hash map,
// and fills the production index's private layout (it is the index's
// friend). Both outputs are required to be bit-identical to the
// production enumerator and to IncidenceIndex::Build at any thread count.

#ifndef TPP_REFERENCE_SERIAL_INDEX_BUILD_H_
#define TPP_REFERENCE_SERIAL_INDEX_BUILD_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "graph/graph.h"
#include "motif/incidence_index.h"
#include "motif/motif.h"
#include "motif/target_subgraph.h"

namespace tpp::reference {

/// The frozen pre-optimization enumerator (see file comment).
std::vector<motif::TargetSubgraph> EnumerateTargetSubgraphsReference(
    const graph::Graph& g, graph::Edge target, motif::MotifKind kind,
    int32_t target_index = 0);

class SerialIndexBuilder {
 public:
  /// Serial per-target enumeration with materialized common-neighbor
  /// vectors and hash-map edge-id resolution; same contract (and errors)
  /// as IncidenceIndex::Build.
  static Result<motif::IncidenceIndex> Build(
      const graph::Graph& g, const std::vector<graph::Edge>& targets,
      motif::MotifKind kind);
};

}  // namespace tpp::reference

#endif  // TPP_REFERENCE_SERIAL_INDEX_BUILD_H_
