// Cold-sweep reference implementations of the paper's greedy algorithms.
//
// Each round re-evaluates every candidate from scratch through the public
// Engine query API (CandidateGains / CandidatesInto / GainVectorInto) and
// takes the first strict maximum in ascending edge-key order. This is the
// historical loop the production solvers (core/greedy.h) were derived
// from; it is kept here, outside libtpp, as the differential baseline:
// production SGB/CT/WT must reproduce these picks, traces and
// gain-evaluation counts bit for bit. bench/solver_rounds times production
// against it.

#ifndef TPP_REFERENCE_COLD_GREEDY_H_
#define TPP_REFERENCE_COLD_GREEDY_H_

#include <vector>

#include "common/result.h"
#include "core/engine.h"
#include "core/greedy.h"
#include "motif/incidence_index.h"

namespace tpp::reference {

/// Lexicographic comparison of (own, cross) gains, the exact-arithmetic
/// form of the paper's own + cross / C score.
bool SplitGainLess(const motif::IncidenceIndex::SplitGain& a,
                   const motif::IncidenceIndex::SplitGain& b);

/// Cold SGB-Greedy (Algorithm 1). Honors options.scope and
/// options.cancel.
Result<core::ProtectionResult> SgbGreedyEagerCold(
    core::Engine& engine, size_t budget,
    const core::GreedyOptions& options = {});

/// Cold CT-Greedy (Algorithm 2); same contract as core::CtGreedy.
Result<core::ProtectionResult> CtGreedyCold(
    core::Engine& engine, const std::vector<size_t>& budgets,
    const core::GreedyOptions& options = {});

/// Cold WT-Greedy (Algorithm 3); same contract as core::WtGreedy.
Result<core::ProtectionResult> WtGreedyCold(
    core::Engine& engine, const std::vector<size_t>& budgets,
    const core::GreedyOptions& options = {});

}  // namespace tpp::reference

#endif  // TPP_REFERENCE_COLD_GREEDY_H_
