#include "core/selection_heap.h"

#include <algorithm>

#include "common/check.h"

namespace tpp::core {

void SelectionHeap::Reset(size_t universe) {
  heap_.clear();
  heap_.reserve(universe);
  pos_.assign(universe, kAbsent);
  prio_.assign(universe, 0);
}

void SelectionHeap::BuildBegin(size_t universe) { Reset(universe); }

void SelectionHeap::BuildAdd(uint32_t row, uint64_t priority) {
  if (priority == 0) return;
  pos_[row] = static_cast<uint32_t>(heap_.size());
  prio_[row] = priority;
  heap_.push_back(row);
}

void SelectionHeap::BuildFinish() {
  if (heap_.size() > 1) {
    // Bottom-up heapify: sift every internal node down, last parent
    // first. O(n) total — the reason session restarts (all_dirty rounds)
    // cost a scan, not n * log n pushes.
    for (size_t slot = (heap_.size() - 2) / kArity + 1; slot-- > 0;) {
      SiftDown(slot);
    }
  }
}

void SelectionHeap::Update(uint32_t row, uint64_t priority) {
  TPP_CHECK_LT(row, pos_.size());
  const uint32_t slot = pos_[row];
  if (slot == kAbsent) {
    if (priority == 0) return;  // absent and unselectable: nothing to do
    // Insert: append and sift up.
    pos_[row] = static_cast<uint32_t>(heap_.size());
    prio_[row] = priority;
    heap_.push_back(row);
    SiftUp(heap_.size() - 1);
    return;
  }
  if (priority == 0) {
    // Remove: move the last entry into the vacated slot and sift it to
    // its place (either direction — the replacement is unrelated).
    const uint32_t last = heap_.back();
    heap_.pop_back();
    pos_[row] = kAbsent;
    prio_[row] = 0;
    if (last != row) {
      heap_[slot] = last;
      pos_[last] = slot;
      SiftDown(slot);
      SiftUp(pos_[last]);
    }
    return;
  }
  if (prio_[row] == priority) return;
  const bool increased = priority > prio_[row];
  prio_[row] = priority;
  if (increased) {
    SiftUp(slot);
  } else {
    SiftDown(slot);
  }
}

void SelectionHeap::SiftUp(size_t slot) {
  const uint32_t row = heap_[slot];
  while (slot > 0) {
    const size_t parent = (slot - 1) / kArity;
    if (!Before(row, heap_[parent])) break;
    heap_[slot] = heap_[parent];
    pos_[heap_[slot]] = static_cast<uint32_t>(slot);
    slot = parent;
  }
  heap_[slot] = row;
  pos_[row] = static_cast<uint32_t>(slot);
}

void SelectionHeap::SiftDown(size_t slot) {
  const uint32_t row = heap_[slot];
  const size_t n = heap_.size();
  for (;;) {
    const size_t first = slot * kArity + 1;
    if (first >= n) break;
    // Best of up to four children; ties inside the block resolve to the
    // smallest row via Before, like everywhere else.
    size_t best = first;
    const size_t last = std::min(first + kArity, n);
    for (size_t c = first + 1; c < last; ++c) {
      if (Before(heap_[c], heap_[best])) best = c;
    }
    if (!Before(heap_[best], row)) break;
    heap_[slot] = heap_[best];
    pos_[heap_[slot]] = static_cast<uint32_t>(slot);
    slot = best;
  }
  heap_[slot] = row;
  pos_[row] = static_cast<uint32_t>(slot);
}

}  // namespace tpp::core
