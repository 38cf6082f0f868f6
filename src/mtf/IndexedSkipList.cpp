//===- IndexedSkipList.cpp - order-statistic skiplist ---------------------===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//

#include "mtf/IndexedSkipList.h"
#include <cassert>

using namespace cjpack;

IndexedSkipList::IndexedSkipList() : RngState(0x9E3779B97F4A7C15ull) {
  clear();
}

void IndexedSkipList::clear() {
  Arena.assign(nextAt(HeadNode, MaxLevel), 0);
  Arena[HeadNode + 1] = MaxLevel;
  Size = 0;
  Top = 0;
}

unsigned IndexedSkipList::randomHeight() {
  // xorshift64*; geometric heights with p = 1/2.
  RngState ^= RngState >> 12;
  RngState ^= RngState << 25;
  RngState ^= RngState >> 27;
  uint64_t R = RngState * 0x2545F4914F6CDD1Dull;
  unsigned H = 1;
  while ((R & 1) && H < MaxLevel) {
    ++H;
    R >>= 1;
  }
  return H;
}

void IndexedSkipList::attachFront(Handle N) {
  uint32_t *A = Arena.data();
  unsigned H = heightOf(N);
  assert(H >= 1 && H <= MaxLevel);
  for (unsigned L = 0; L < H; ++L) {
    A[nextAt(N, L)] = A[nextAt(HeadNode, L)];
    A[widthAt(N, L)] = A[widthAt(HeadNode, L)];
    A[nextAt(HeadNode, L)] = N;
    A[widthAt(HeadNode, L)] = 1;
  }
  // Links from the head that skip over the new front element lengthen
  // by one; every head link below Top is live.
  for (unsigned L = H; L < Top; ++L)
    ++A[widthAt(HeadNode, L)];
  if (H > Top)
    Top = H;
  ++Size;
}

IndexedSkipList::Handle IndexedSkipList::insertFront(uint32_t Value) {
  unsigned H = randomHeight();
  size_t At = Arena.size();
  assert(nextAt(At, H) <= UINT32_MAX && "skiplist arena full");
  Arena.resize(nextAt(At, H), 0);
  Handle N = static_cast<Handle>(At);
  Arena[N] = Value;
  Arena[N + 1] = H;
  attachFront(N);
  return N;
}

uint32_t IndexedSkipList::valueAt(size_t Pos) const {
  assert(Pos < Size && "skiplist position out of range");
  const uint32_t *A = Arena.data();
  // 1-based rank search: advance while the link does not overshoot.
  size_t Rank = Pos + 1;
  size_t At = 0;
  Handle N = HeadNode;
  for (unsigned L = Top; L-- > 0;) {
    while (A[nextAt(N, L)] && At + A[widthAt(N, L)] <= Rank) {
      At += A[widthAt(N, L)];
      N = A[nextAt(N, L)];
    }
    if (At == Rank)
      return A[N];
  }
  assert(false && "rank search failed");
  return A[N];
}

IndexedSkipList::Handle IndexedSkipList::detachAt(size_t Pos) {
  assert(Pos < Size && "skiplist position out of range");
  uint32_t *A = Arena.data();
  size_t Rank = Pos + 1;
  // Collect, per level, the last node strictly before Rank.
  Handle Preds[MaxLevel];
  size_t At = 0;
  Handle N = HeadNode;
  for (unsigned L = Top; L-- > 0;) {
    while (A[nextAt(N, L)] && At + A[widthAt(N, L)] < Rank) {
      At += A[widthAt(N, L)];
      N = A[nextAt(N, L)];
    }
    Preds[L] = N;
  }
  Handle Target = A[nextAt(Preds[0], 0)];
  assert(Target && "detach target missing");
  unsigned H = heightOf(Target);
  for (unsigned L = 0; L < H; ++L) {
    Handle P = Preds[L];
    Handle Next = A[nextAt(Target, L)];
    A[nextAt(P, L)] = Next;
    A[widthAt(P, L)] = Next ? A[widthAt(P, L)] + A[widthAt(Target, L)] - 1 : 0;
  }
  // Taller links that jumped over the target shorten by one.
  for (unsigned L = H; L < Top; ++L)
    if (A[nextAt(Preds[L], L)])
      --A[widthAt(Preds[L], L)];
  while (Top > 0 && !A[nextAt(HeadNode, Top - 1)])
    --Top;
  --Size;
  return Target;
}

void IndexedSkipList::eraseAt(size_t Pos) { detachAt(Pos); }

IndexedSkipList::Handle IndexedSkipList::moveToFront(size_t Pos) {
  if (Pos == 0) {
    Handle Front = Arena[nextAt(HeadNode, 0)];
    assert(Front && "moveToFront on empty list");
    return Front;
  }
  Handle N = detachAt(Pos);
  attachFront(N);
  return N;
}

size_t IndexedSkipList::positionOf(Handle N) const {
  assert(N != HeadNode && N < Arena.size());
  const uint32_t *A = Arena.data();
  // Walk to the end following each node's highest non-null link,
  // accumulating the distance; position = size - distance-to-end.
  size_t Dist = 0;
  Handle Cur = N;
  while (true) {
    unsigned L = heightOf(Cur);
    while (L > 0 && !A[nextAt(Cur, L - 1)])
      --L;
    if (L == 0)
      break;
    Dist += A[widthAt(Cur, L - 1)];
    Cur = A[nextAt(Cur, L - 1)];
  }
  assert(Dist < Size);
  return Size - 1 - Dist;
}

// Position math: the last element has distance-to-end 0 and position
// Size-1, hence the Size - 1 - Dist above.
