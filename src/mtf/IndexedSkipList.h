//===- IndexedSkipList.h - order-statistic skiplist ------------*- C++ -*-===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A skiplist [Pug90] modified so every link records the distance it
/// travels forward in the list, giving O(log n) expected access by
/// position and O(log k) expected move-to-front of the element at
/// position k — the structure §5 of the paper uses to implement its
/// move-to-front queues.
///
/// The list stores uint32_t element ids (reference coders map objects to
/// dense ids). Its nodes live in one arena per list: a node is a run of
/// words holding its value, its height and one (next, width) link per
/// level, and a Handle names a node by its offset in the arena. Handles
/// are stable: moveToFront detaches and re-attaches the same node, so a
/// handle kept by a caller (MtfQueue's value→handle index) stays valid
/// until clear(). The list tracks its highest live level, so searches
/// and splices touch about log2(size) levels, not MaxLevel.
///
//===----------------------------------------------------------------------===//

#ifndef CJPACK_MTF_INDEXEDSKIPLIST_H
#define CJPACK_MTF_INDEXEDSKIPLIST_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace cjpack {

/// Skiplist with positional access; front of the list is position 0.
class IndexedSkipList {
public:
  static constexpr unsigned MaxLevel = 32;

  /// A node's offset in the list's arena. Never 0 (the head's offset),
  /// so 0 can mean "no node".
  using Handle = uint32_t;

  IndexedSkipList();
  IndexedSkipList(const IndexedSkipList &) = delete;
  IndexedSkipList &operator=(const IndexedSkipList &) = delete;

  size_t size() const { return Size; }
  bool empty() const { return Size == 0; }

  /// Inserts \p Value at the front; returns its (stable) handle.
  Handle insertFront(uint32_t Value);

  /// Value at position \p Pos (0-based).
  uint32_t valueAt(size_t Pos) const;

  /// Value stored in node \p N.
  uint32_t valueOf(Handle N) const { return Arena[N]; }

  /// Detaches the node at \p Pos. Its arena words are reclaimed by
  /// clear(); the move-to-front queues never erase.
  void eraseAt(size_t Pos);

  /// Moves the element at \p Pos to the front; returns its handle.
  Handle moveToFront(size_t Pos);

  /// Position of \p N, computed by walking the highest outgoing link of
  /// each node to the end of the list and subtracting from the size —
  /// the compressor-side operation described in §5.
  size_t positionOf(Handle N) const;

  /// Removes every element and empties the arena; every handle dies.
  void clear();

private:
  // Arena layout of the node at N: Arena[N] is its value, Arena[N + 1]
  // its height, and level L's link is next at Arena[N + 2 + 2L] and
  // width (positions skipped) at Arena[N + 3 + 2L]. A null link has
  // next 0 and width 0. The head sits at offset 0 with MaxLevel links.
  static constexpr Handle HeadNode = 0;
  static size_t nextAt(Handle N, unsigned L) { return N + 2 + 2 * L; }
  static size_t widthAt(Handle N, unsigned L) { return N + 3 + 2 * L; }
  unsigned heightOf(Handle N) const { return Arena[N + 1]; }

  unsigned randomHeight();
  Handle detachAt(size_t Pos);
  void attachFront(Handle N);

  std::vector<uint32_t> Arena;
  size_t Size = 0;
  /// Number of levels in use: the tallest live node's height. Every head
  /// link at or above it is null, and every one below it is not.
  unsigned Top = 0;
  uint64_t RngState;
};

} // namespace cjpack

#endif // CJPACK_MTF_INDEXEDSKIPLIST_H
