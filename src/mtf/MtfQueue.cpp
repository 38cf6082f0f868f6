//===- MtfQueue.cpp - move-to-front queue over a skiplist -----------------===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//

#include "mtf/MtfQueue.h"
#include <cassert>

using namespace cjpack;

std::optional<size_t> MtfQueue::use(uint32_t Value, bool InsertIfNew) {
  IndexedSkipList::Handle N = handleOf(Value);
  if (!N) {
    if (InsertIfNew)
      pushFront(Value);
    return std::nullopt;
  }
  size_t Pos = List.positionOf(N);
  List.moveToFront(Pos);
  return Pos;
}

std::optional<size_t> MtfQueue::find(uint32_t Value) const {
  IndexedSkipList::Handle N = handleOf(Value);
  if (!N)
    return std::nullopt;
  return List.positionOf(N);
}

void MtfQueue::pushFront(uint32_t Value) {
  assert(Value != NoValue && "NoValue is not a dense id");
  if (Value >= Index.size())
    Index.resize(static_cast<size_t>(Value) + 1, 0);
  if (!Index[Value])
    Index[Value] = List.insertFront(Value);
}

uint32_t MtfQueue::useAt(size_t Pos) {
  if (Pos >= List.size())
    return NoValue;
  return List.valueOf(List.moveToFront(Pos));
}
