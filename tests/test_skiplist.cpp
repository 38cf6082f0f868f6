//===- test_skiplist.cpp - indexed skiplist / MTF queue tests -------------===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//

#include "corpus/Rng.h"
#include "mtf/IndexedSkipList.h"
#include "mtf/MtfQueue.h"
#include <deque>
#include <gtest/gtest.h>

using namespace cjpack;

TEST(IndexedSkipList, InsertFrontAndAccess) {
  IndexedSkipList L;
  for (uint32_t V = 0; V < 10; ++V)
    L.insertFront(V);
  ASSERT_EQ(L.size(), 10u);
  // Front is the most recently inserted.
  for (size_t I = 0; I < 10; ++I)
    EXPECT_EQ(L.valueAt(I), 9 - I);
}

TEST(IndexedSkipList, MoveToFront) {
  IndexedSkipList L;
  for (uint32_t V = 0; V < 5; ++V)
    L.insertFront(V); // list: 4 3 2 1 0
  L.moveToFront(3);   // move "1": 1 4 3 2 0
  EXPECT_EQ(L.valueAt(0), 1u);
  EXPECT_EQ(L.valueAt(1), 4u);
  EXPECT_EQ(L.valueAt(2), 3u);
  EXPECT_EQ(L.valueAt(3), 2u);
  EXPECT_EQ(L.valueAt(4), 0u);
}

TEST(IndexedSkipList, PositionOfIsStableAcrossMoves) {
  IndexedSkipList L;
  std::vector<IndexedSkipList::Handle> Nodes;
  for (uint32_t V = 0; V < 50; ++V)
    Nodes.push_back(L.insertFront(V));
  // positionOf must agree with valueAt for every node.
  for (IndexedSkipList::Handle N : Nodes) {
    size_t Pos = L.positionOf(N);
    EXPECT_EQ(L.valueAt(Pos), L.valueOf(N));
  }
  L.moveToFront(37);
  L.moveToFront(12);
  for (IndexedSkipList::Handle N : Nodes) {
    size_t Pos = L.positionOf(N);
    EXPECT_EQ(L.valueAt(Pos), L.valueOf(N));
  }
}

TEST(IndexedSkipList, EraseAt) {
  IndexedSkipList L;
  for (uint32_t V = 0; V < 8; ++V)
    L.insertFront(V); // 7 6 5 4 3 2 1 0
  L.eraseAt(0);
  L.eraseAt(6); // removes "0"
  ASSERT_EQ(L.size(), 6u);
  EXPECT_EQ(L.valueAt(0), 6u);
  EXPECT_EQ(L.valueAt(5), 1u);
}

TEST(IndexedSkipList, ClearAndReuse) {
  IndexedSkipList L;
  for (uint32_t V = 0; V < 100; ++V)
    L.insertFront(V);
  L.clear();
  EXPECT_EQ(L.size(), 0u);
  EXPECT_TRUE(L.empty());
  L.insertFront(7);
  EXPECT_EQ(L.valueAt(0), 7u);
}

namespace {

/// Drives \p L and a naive std::deque model through \p Steps random
/// operations, checking that they agree. \p InsertPct of every 100 are
/// inserts; the rest split 5:1:1 into moves, reads and erases. Every
/// node's handle is kept, and positionOf on a sample of them must name
/// the node's place in the model.
void runAgainstNaiveModel(IndexedSkipList &L, uint64_t Seed, int Steps,
                          unsigned InsertPct) {
  std::deque<uint32_t> Model;
  std::vector<IndexedSkipList::Handle> Handles; ///< value -> handle
  Rng R(Seed);
  for (int Step = 0; Step < Steps; ++Step) {
    unsigned P = static_cast<unsigned>(R.below(100));
    unsigned Op =
        P < InsertPct ? 0 : 1 + (P - InsertPct) * 7 / (100 - InsertPct);
    if (Model.empty() || Op == 0) {
      uint32_t V = static_cast<uint32_t>(Handles.size());
      Handles.push_back(L.insertFront(V));
      Model.push_front(V);
    } else if (Op <= 5) {
      size_t Pos = static_cast<size_t>(R.below(Model.size()));
      IndexedSkipList::Handle N = L.moveToFront(Pos);
      uint32_t V = Model[Pos];
      ASSERT_EQ(N, Handles[V]) << "moveToFront must keep the node";
      Model.erase(Model.begin() + static_cast<long>(Pos));
      Model.push_front(V);
    } else if (Op == 6) {
      size_t Pos = static_cast<size_t>(R.below(Model.size()));
      ASSERT_EQ(L.valueAt(Pos), Model[Pos]);
    } else {
      size_t Pos = static_cast<size_t>(R.below(Model.size()));
      L.eraseAt(Pos);
      Model.erase(Model.begin() + static_cast<long>(Pos));
    }
    ASSERT_EQ(L.size(), Model.size());
    if (Step % 97 == 0 && !Model.empty()) {
      size_t Pos = static_cast<size_t>(R.below(Model.size()));
      uint32_t V = Model[Pos];
      ASSERT_EQ(L.positionOf(Handles[V]), Pos) << "value " << V;
      ASSERT_EQ(L.valueOf(Handles[V]), V);
    }
  }
  for (size_t I = 0; I < Model.size(); I += 37) {
    EXPECT_EQ(L.valueAt(I), Model[I]);
    EXPECT_EQ(L.positionOf(Handles[Model[I]]), I);
  }
}

} // namespace

/// Property test: the skiplist agrees with a naive std::deque model
/// through a long random mixed workload. The second list grows past
/// 65,536 elements, so its top level climbs above 16, and is then
/// cleared and refilled from a fresh arena.
TEST(IndexedSkipList, MatchesNaiveModelUnderRandomWorkload) {
  IndexedSkipList L;
  ASSERT_NO_FATAL_FAILURE(runAgainstNaiveModel(L, 12345, 20000, 30));

  IndexedSkipList Big;
  ASSERT_NO_FATAL_FAILURE(runAgainstNaiveModel(Big, 777, 80000, 90));
  ASSERT_GT(Big.size(), 65536u);
  Big.clear();
  EXPECT_TRUE(Big.empty());
  ASSERT_NO_FATAL_FAILURE(runAgainstNaiveModel(Big, 778, 20000, 30));
}

TEST(MtfQueue, EncoderDecoderSymmetry) {
  // Drive an encoder-side queue and a decoder-side queue with the same
  // reference stream; decoder must reproduce the values.
  MtfQueue Enc, Dec;
  Rng R(99);
  std::vector<uint32_t> Universe;
  for (uint32_t V = 100; V < 160; ++V)
    Universe.push_back(V);
  for (int Step = 0; Step < 5000; ++Step) {
    uint32_t V = Universe[R.zipf(Universe.size())];
    auto Pos = Enc.use(V, /*InsertIfNew=*/true);
    if (!Pos) {
      Dec.pushFront(V);
    } else {
      uint32_t Got = Dec.useAt(*Pos);
      ASSERT_EQ(Got, V);
    }
  }
}

TEST(MtfQueue, FindDoesNotMutate) {
  MtfQueue Q;
  Q.pushFront(1);
  Q.pushFront(2);
  Q.pushFront(3); // 3 2 1
  EXPECT_EQ(*Q.find(1), 2u);
  EXPECT_EQ(*Q.find(1), 2u); // unchanged
  EXPECT_EQ(*Q.use(1), 2u);  // now moves
  EXPECT_EQ(*Q.find(1), 0u);
  EXPECT_FALSE(Q.find(42).has_value());
}

TEST(MtfQueue, TransientBypass) {
  MtfQueue Q;
  EXPECT_FALSE(Q.use(5, /*InsertIfNew=*/false).has_value());
  EXPECT_FALSE(Q.contains(5));
  EXPECT_FALSE(Q.use(5, /*InsertIfNew=*/true).has_value());
  EXPECT_TRUE(Q.contains(5));
  EXPECT_EQ(*Q.use(5), 0u);
}

/// MTF behaviour yields small indices for skewed access patterns — the
/// property §5 relies on.
TEST(MtfQueue, SkewedAccessYieldsSmallIndices) {
  MtfQueue Q;
  Rng R(7);
  for (uint32_t V = 0; V < 1000; ++V)
    Q.pushFront(V);
  uint64_t Sum = 0;
  unsigned N = 2000;
  for (unsigned I = 0; I < N; ++I) {
    uint32_t V = 999 - static_cast<uint32_t>(R.zipf(8)); // hot set of 8
    Sum += *Q.use(V);
  }
  // Hot items stay near the front: average index must be far below a
  // uniform baseline (~500).
  EXPECT_LT(Sum / N, 20u);
}
