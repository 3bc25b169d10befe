// SelectionHeap: the addressable max-heap behind the dirty-aware CELF path
// of SGB (core/greedy.cc).
//
// The incremental round engine (PR 5) made per-round GAIN maintenance
// proportional to the dirty set of the committed deletion, but SELECTION
// stayed a flat first-strict-max scan of the whole candidate universe —
// O(universe) per round even when only a handful of gains changed. This
// heap closes that gap: it holds one entry per universe row with a 64-bit
// priority, supports decrease/increase-key by row id, and orders entries
// by (priority descending, row ascending). Because the round universe is
// ascending by edge key, the heap's top is EXACTLY the row the flat scan's
// first-strict-max rule would select, so heap picks are bit-identical to
// the cold sweep by construction. A round then costs
// O(|dirty| * log(universe)) re-keys instead of an O(universe) scan.
//
// Priorities are opaque uint64s supplied by the selection layer (SGB
// keys rows by their total gain). Priority 0 means "not selectable" (every
// greedy pick requires a positive gain): Update(row, 0) removes the row,
// and rows with priority 0 are never inserted, so Top() is always a legal
// pick.
//
// Layout: a 4-ary implicit heap of row ids (heap_) with an inverse
// position map (pos_) and a row -> priority array (prio_). 4-ary beats
// binary here: sift-down does one compare-4 per level over rows that are
// hot in cache, and the tree is half as deep. Build() is bottom-up
// heapify, O(n); Update() sifts from the row's current slot, O(log n).
//
// Determinism: the comparison (priority desc, row asc) is a total order
// over entries — no two entries share a row — so the heap's pop order is a
// pure function of the (row, priority) set, independent of insertion
// order, libstdc++ version, or sift implementation details. This is the
// fix for the CELF tie-break hazard: the historical std::priority_queue
// path kept (bound, edge, round) triples whose comparator ignored `round`,
// so its order was only deterministic as long as no two live entries ever
// collided — a property of the data, not the structure. Here it is a
// property of the structure (tests/selection_heap_test.cc pins it with an
// all-gains-equal fixture).

#ifndef TPP_CORE_SELECTION_HEAP_H_
#define TPP_CORE_SELECTION_HEAP_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace tpp::core {

/// See file comment. Reset() before use; one heap serves one selection
/// session (universe size fixed between Reset()s).
class SelectionHeap {
 public:
  /// Row sentinel: not in the heap.
  static constexpr uint32_t kAbsent = 0xffffffffu;

  /// Clears the heap and sizes it for rows [0, universe). O(universe).
  void Reset(size_t universe);

  /// Bulk (re)build: Reset(universe), then stage every row, then heapify.
  /// BuildAdd ignores priority-0 rows, so callers loop the universe
  /// unconditionally. Staging must be in ascending row order (the natural
  /// universe loop); BuildFinish() is O(n) bottom-up heapify.
  void BuildBegin(size_t universe);
  void BuildAdd(uint32_t row, uint64_t priority);
  void BuildFinish();

  /// Re-keys `row` to `priority`: sifts a live entry (decrease or
  /// increase), inserts an absent row with positive priority, removes a
  /// live row at priority 0.
  /// No-op when the priority is unchanged. O(log n).
  void Update(uint32_t row, uint64_t priority);

  bool Empty() const { return heap_.empty(); }
  size_t Size() const { return heap_.size(); }

  /// The selectable row with the maximum (priority, -row) — the pick of
  /// the flat first-strict-max scan. Requires !Empty().
  uint32_t TopRow() const { return heap_[0]; }
  uint64_t TopPriority() const { return prio_[heap_[0]]; }

  /// Current priority of `row`; 0 when absent.
  uint64_t PriorityOf(uint32_t row) const {
    return row < pos_.size() && pos_[row] != kAbsent ? prio_[row] : 0;
  }
  bool Contains(uint32_t row) const {
    return row < pos_.size() && pos_[row] != kAbsent;
  }

 private:
  static constexpr size_t kArity = 4;

  /// Entry order: (priority desc, row asc). True iff a ranks before b.
  bool Before(uint32_t a, uint32_t b) const {
    return prio_[a] != prio_[b] ? prio_[a] > prio_[b] : a < b;
  }

  void SiftUp(size_t slot);
  void SiftDown(size_t slot);

  std::vector<uint32_t> heap_;  // heap slots -> row ids
  std::vector<uint32_t> pos_;   // row id -> heap slot, or kAbsent
  std::vector<uint64_t> prio_;  // row id -> current priority
};

}  // namespace tpp::core

#endif  // TPP_CORE_SELECTION_HEAP_H_
