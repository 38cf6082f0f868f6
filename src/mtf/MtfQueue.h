//===- MtfQueue.h - move-to-front queue over a skiplist --------*- C++ -*-===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The move-to-front queue of §5. The indexed skiplist holds the order;
/// a dense vector from element id to skiplist handle answers "have we
/// seen this element, and where is it now?" in O(log n) expected. The
/// compressor side needs that index; the decompressor side accesses by
/// position, and uses the index only to keep pushFront idempotent.
///
/// Precondition: values are dense ids (the reference coders' model
/// object ids). The index grows to the largest value pushed.
///
//===----------------------------------------------------------------------===//

#ifndef CJPACK_MTF_MTFQUEUE_H
#define CJPACK_MTF_MTFQUEUE_H

#include "mtf/IndexedSkipList.h"
#include <optional>
#include <vector>

namespace cjpack {

/// Move-to-front queue of element ids.
class MtfQueue {
public:
  /// What useAt returns for a position past the queue: an id no caller
  /// registers, so range checks downstream reject it.
  static constexpr uint32_t NoValue = UINT32_MAX;

  size_t size() const { return List.size(); }
  bool contains(uint32_t Value) const { return handleOf(Value) != 0; }

  /// Compressor: if \p Value is present, returns its current position
  /// and moves it to the front. If absent, returns nullopt and inserts
  /// it at the front when \p InsertIfNew (the transients variant keeps
  /// once-only objects out of the queue).
  std::optional<size_t> use(uint32_t Value, bool InsertIfNew = true);

  /// Compressor: position of \p Value without mutating, if present.
  std::optional<size_t> find(uint32_t Value) const;

  /// Inserts \p Value at the front (decoder's "new object" action; also
  /// used when a method reference must be seeded into several queues,
  /// §5.1.6). No-op if already present.
  void pushFront(uint32_t Value);

  /// Decompressor: returns the value at \p Pos and moves it to the
  /// front. A position past the queue (corrupt input) returns NoValue
  /// and leaves the queue as it was.
  uint32_t useAt(size_t Pos);

private:
  IndexedSkipList::Handle handleOf(uint32_t Value) const {
    return Value < Index.size() ? Index[Value] : 0;
  }

  IndexedSkipList List;
  std::vector<IndexedSkipList::Handle> Index; ///< value -> handle; 0 = absent
};

} // namespace cjpack

#endif // CJPACK_MTF_MTFQUEUE_H
