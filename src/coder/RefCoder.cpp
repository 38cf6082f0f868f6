//===- RefCoder.cpp - reference-encoding schemes (§5.1) -------------------===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//

#include "coder/RefCoder.h"
#include "mtf/MtfQueue.h"
#include "support/VarInt.h"
#include <algorithm>
#include <cassert>
#include <map>
#include <set>

using namespace cjpack;

const char *cjpack::refSchemeName(RefScheme S) {
  switch (S) {
  case RefScheme::Simple: return "Simple";
  case RefScheme::Basic: return "Basic";
  case RefScheme::Freq: return "Freq";
  case RefScheme::Cache: return "Cache";
  case RefScheme::MtfBasic: return "MTF Basic";
  case RefScheme::MtfTransients: return "MTF Transients";
  case RefScheme::MtfContext: return "MTF Context";
  case RefScheme::MtfTransientsContext: return "MTF Trans+Ctx";
  }
  return "?";
}

bool cjpack::refSchemeNeedsStats(RefScheme S) {
  return S == RefScheme::Freq || S == RefScheme::Cache ||
         S == RefScheme::MtfTransients ||
         S == RefScheme::MtfTransientsContext;
}

bool cjpack::refSchemeSupportsPreload(RefScheme S) {
  return S != RefScheme::Freq && S != RefScheme::Cache;
}

uint32_t &RefStats::slot(uint32_t Pool, uint32_t Object) {
  if (Pool >= Counts.size())
    Counts.resize(static_cast<size_t>(Pool) + 1);
  std::vector<uint32_t> &PoolCounts = Counts[Pool];
  if (Object >= PoolCounts.size())
    PoolCounts.resize(static_cast<size_t>(Object) + 1, 0);
  return PoolCounts[Object];
}

uint32_t RefStats::rankOf(uint32_t Pool, uint32_t Object) const {
  buildRanks();
  return lookup(Ranks, Pool, Object);
}

void RefStats::buildRanks() const {
  if (RanksBuilt)
    return;
  RanksBuilt = true;
  // Per pool, sort recurring objects by descending count (ties by id for
  // determinism) and assign ranks starting at 1.
  Ranks.assign(Counts.size(), {});
  std::vector<std::pair<uint32_t, uint32_t>> Items;
  for (uint32_t Pool = 0; Pool < Counts.size(); ++Pool) {
    const std::vector<uint32_t> &PoolCounts = Counts[Pool];
    Items.clear();
    for (uint32_t Object = 0; Object < PoolCounts.size(); ++Object)
      if (PoolCounts[Object] > 1)
        Items.push_back({PoolCounts[Object], Object});
    std::sort(Items.begin(), Items.end(),
              [](const auto &A, const auto &B) {
                if (A.first != B.first)
                  return A.first > B.first;
                return A.second < B.second;
              });
    Ranks[Pool].assign(PoolCounts.size(), 0);
    uint32_t Rank = 1;
    for (const auto &[Count, Object] : Items)
      Ranks[Pool][Object] = Rank++;
  }
}

bool PoolSeenSet::insert(uint32_t Pool, uint32_t Object) {
  if (Pool >= Seen.size())
    Seen.resize(static_cast<size_t>(Pool) + 1);
  std::vector<bool> &Bits = Seen[Pool];
  if (Object >= Bits.size())
    Bits.resize(static_cast<size_t>(Object) + 1);
  if (Bits[Object])
    return false;
  Bits[Object] = true;
  return true;
}

namespace {

//===----------------------------------------------------------------------===//
// Simple / Basic: fixed sequential ids
//===----------------------------------------------------------------------===//

class FixedIdEncoder final : public RefEncoder {
public:
  explicit FixedIdEncoder(bool TwoByte) : TwoByte(TwoByte) {}

  bool encode(uint32_t Pool, uint32_t, uint32_t Object,
              ByteWriter &W) override {
    auto &P = Pools[Pool];
    auto It = P.Ids.find(Object);
    if (It == P.Ids.end()) {
      write(W, 0);
      P.Ids.emplace(Object, ++P.NextId);
      return true;
    }
    write(W, It->second);
    return false;
  }

  bool preload(uint32_t Pool, uint32_t Object) override {
    auto &P = Pools[Pool];
    if (!P.Ids.count(Object))
      P.Ids.emplace(Object, ++P.NextId);
    return true;
  }

private:
  void write(ByteWriter &W, uint32_t V) {
    if (TwoByte) {
      assert(V <= 0xFFFF && "Simple scheme id overflow");
      W.writeU2(static_cast<uint16_t>(V));
    } else {
      writeVarUInt(W, V);
    }
  }

  struct PoolState {
    std::map<uint32_t, uint32_t> Ids;
    uint32_t NextId = 0;
  };
  std::map<uint32_t, PoolState> Pools;
  bool TwoByte;
};

class FixedIdDecoder final : public RefDecoder {
public:
  explicit FixedIdDecoder(bool TwoByte) : TwoByte(TwoByte) {}

  std::optional<uint32_t> decode(uint32_t Pool, uint32_t,
                                 ByteReader &R) override {
    uint32_t V = TwoByte ? R.readU2()
                         : static_cast<uint32_t>(readVarUInt(R));
    auto &P = Pools[Pool];
    if (V == 0)
      return std::nullopt;
    // Corrupt input: treat an unknown id like a fresh object; the
    // caller's structural validation rejects the garbage downstream.
    if (V > P.Objects.size())
      return std::nullopt;
    return P.Objects[V - 1];
  }

  void registerNew(uint32_t Pool, uint32_t, uint32_t Object) override {
    Pools[Pool].Objects.push_back(Object);
  }

  bool preload(uint32_t Pool, uint32_t Object) override {
    // The preload table repeats objects (shared packages, <init>, ...);
    // the encoder dedupes by id map, so dedupe here too.
    auto &Objects = Pools[Pool].Objects;
    if (std::find(Objects.begin(), Objects.end(), Object) ==
        Objects.end())
      Objects.push_back(Object);
    return true;
  }

private:
  struct PoolState {
    std::vector<uint32_t> Objects; ///< id-1 -> object
  };
  std::map<uint32_t, PoolState> Pools;
  bool TwoByte;
};

//===----------------------------------------------------------------------===//
// Freq: frequency-ranked ids, shared transient id 0
//===----------------------------------------------------------------------===//

class FreqEncoder final : public RefEncoder {
public:
  explicit FreqEncoder(const RefStats &Stats) : Stats(Stats) {}

  bool encode(uint32_t Pool, uint32_t, uint32_t Object,
              ByteWriter &W) override {
    if (Stats.isTransient(Pool, Object)) {
      writeVarUInt(W, 0);
      return true;
    }
    uint32_t Rank = Stats.rankOf(Pool, Object);
    assert(Rank > 0 && "recurring object without a rank");
    writeVarUInt(W, Rank);
    return Seen[Pool].insert(Object).second;
  }

private:
  const RefStats &Stats;
  std::map<uint32_t, std::set<uint32_t>> Seen;
};

class FreqDecoder final : public RefDecoder {
public:
  std::optional<uint32_t> decode(uint32_t Pool, uint32_t,
                                 ByteReader &R) override {
    uint32_t V = static_cast<uint32_t>(readVarUInt(R));
    if (V == 0) {
      Pending[Pool] = 0; // transient: learn nothing
      return std::nullopt;
    }
    auto &Bind = Bindings[Pool];
    auto It = Bind.find(V);
    if (It != Bind.end())
      return It->second;
    Pending[Pool] = V;
    return std::nullopt;
  }

  void registerNew(uint32_t Pool, uint32_t, uint32_t Object) override {
    // Definitions nest (a new field ref decodes a class ref inside it),
    // so pending state is tracked per pool.
    auto It = Pending.find(Pool);
    assert(It != Pending.end() && "registerNew without a pending decode");
    if (It->second != 0)
      Bindings[Pool][It->second] = Object;
    Pending.erase(It);
  }

private:
  std::map<uint32_t, std::map<uint32_t, uint32_t>> Bindings;
  std::map<uint32_t, uint32_t> Pending; ///< pool -> pending id (0 = none)
};

//===----------------------------------------------------------------------===//
// Cache: Freq augmented with a 16-entry move-to-front cache
//===----------------------------------------------------------------------===//

constexpr size_t CacheSize = 16;

class CacheEncoder final : public RefEncoder {
public:
  explicit CacheEncoder(const RefStats &Stats) : Stats(Stats) {}

  bool encode(uint32_t Pool, uint32_t, uint32_t Object,
              ByteWriter &W) override {
    auto &P = Pools[Pool];
    auto Hit = std::find(P.Cache.begin(), P.Cache.end(), Object);
    if (Hit != P.Cache.end()) {
      size_t Pos = static_cast<size_t>(Hit - P.Cache.begin());
      writeVarUInt(W, Pos);
      P.Cache.erase(Hit);
      P.Cache.insert(P.Cache.begin(), Object);
      return false;
    }
    if (Stats.isTransient(Pool, Object)) {
      writeVarUInt(W, CacheSize); // rank 0 + offset
      return true;
    }
    uint32_t Rank = Stats.rankOf(Pool, Object);
    assert(Rank > 0 && "recurring object without a rank");
    writeVarUInt(W, Rank + CacheSize);
    P.Cache.insert(P.Cache.begin(), Object);
    if (P.Cache.size() > CacheSize)
      P.Cache.pop_back();
    return P.Seen.insert(Object).second;
  }

private:
  struct PoolState {
    std::vector<uint32_t> Cache;
    std::set<uint32_t> Seen;
  };
  const RefStats &Stats;
  std::map<uint32_t, PoolState> Pools;
};

class CacheDecoder final : public RefDecoder {
public:
  std::optional<uint32_t> decode(uint32_t Pool, uint32_t,
                                 ByteReader &R) override {
    uint32_t V = static_cast<uint32_t>(readVarUInt(R));
    auto &P = Pools[Pool];
    if (V < CacheSize) {
      if (V >= P.Cache.size()) {
        Pending[Pool] = 0; // corrupt input: degrade to "new transient"
        return std::nullopt;
      }
      uint32_t Object = P.Cache[V];
      P.Cache.erase(P.Cache.begin() + V);
      P.Cache.insert(P.Cache.begin(), Object);
      return Object;
    }
    if (V == CacheSize) {
      Pending[Pool] = 0; // transient: learn nothing
      return std::nullopt;
    }
    uint32_t Id = V - CacheSize;
    auto It = P.Bindings.find(Id);
    if (It != P.Bindings.end()) {
      cacheFront(P, It->second);
      return It->second;
    }
    Pending[Pool] = Id;
    return std::nullopt;
  }

  void registerNew(uint32_t Pool, uint32_t, uint32_t Object) override {
    // Per-pool pending state: definitions nest across pools.
    auto It = Pending.find(Pool);
    assert(It != Pending.end() && "registerNew without a pending decode");
    if (It->second != 0) {
      auto &P = Pools[Pool];
      P.Bindings[It->second] = Object;
      cacheFront(P, Object);
    }
    Pending.erase(It);
  }

private:
  struct PoolState {
    std::vector<uint32_t> Cache;
    std::map<uint32_t, uint32_t> Bindings;
  };

  void cacheFront(PoolState &P, uint32_t Object) {
    P.Cache.insert(P.Cache.begin(), Object);
    if (P.Cache.size() > CacheSize)
      P.Cache.pop_back();
  }

  std::map<uint32_t, PoolState> Pools;
  std::map<uint32_t, uint32_t> Pending; ///< pool -> freq id (0 = transient)
};

//===----------------------------------------------------------------------===//
// The move-to-front family
//===----------------------------------------------------------------------===//

/// Shared machinery for the four MTF variants. Context variants keep one
/// queue per (Pool, Sub) and a per-pool first-seen history so a queue
/// materializing late can be seeded with every object it "might see".
/// Non-context variants collapse Sub to zero. Pools are dense ids; a
/// pool's queues sit in a short list keyed by Sub (a method pool has a
/// handful of stack-type contexts, every other pool one).
class MtfState {
public:
  explicit MtfState(bool UseContext) : UseContext(UseContext) {}

  /// The queue at (\p Pool, \p Sub), made and seeded from the pool's
  /// history on first use. Queues live on the heap and never move, so
  /// the reference survives later calls, including ones that add pools
  /// or queues.
  MtfQueue &queue(uint32_t Pool, uint32_t Sub) {
    if (!UseContext)
      Sub = 0;
    PoolState &P = pool(Pool);
    for (auto &[QSub, Q] : P.Queues)
      if (QSub == Sub)
        return *Q;
    MtfQueue &Q =
        *P.Queues.emplace_back(Sub, std::make_unique<MtfQueue>()).second;
    for (uint32_t Object : P.History)
      Q.pushFront(Object);
    return Q;
  }

  /// Marks \p Object seen in \p Pool; true on its first occurrence.
  bool firstSight(uint32_t Pool, uint32_t Object) {
    return Seen.insert(Pool, Object);
  }

  /// Records a first occurrence of a persistent object: remembers it in
  /// the history and pushes it onto every materialized queue.
  void addPersistent(uint32_t Pool, uint32_t Object) {
    PoolState &P = pool(Pool);
    P.History.push_back(Object);
    for (auto &[Sub, Q] : P.Queues)
      Q->pushFront(Object);
  }

private:
  struct PoolState {
    /// (Sub, queue), in creation order.
    std::vector<std::pair<uint32_t, std::unique_ptr<MtfQueue>>> Queues;
    std::vector<uint32_t> History; ///< persistent objects, oldest first
  };

  PoolState &pool(uint32_t Pool) {
    if (Pool >= Pools.size())
      Pools.resize(static_cast<size_t>(Pool) + 1);
    return Pools[Pool];
  }

  std::vector<PoolState> Pools;
  PoolSeenSet Seen;
  bool UseContext;
};

class MtfEncoder final : public RefEncoder {
public:
  MtfEncoder(bool Transients, bool Context, const RefStats *Stats)
      : State(Context), Stats(Stats), Transients(Transients) {
    assert((!Transients || Stats) && "transients need a stats pre-pass");
  }

  bool encode(uint32_t Pool, uint32_t Sub, uint32_t Object,
              ByteWriter &W) override {
    // Touch the queue first so creation/seeding order matches decode.
    MtfQueue &Q = State.queue(Pool, Sub);
    unsigned Base = Transients ? 2 : 1;
    if (State.firstSight(Pool, Object)) {
      if (Transients && Stats->isTransient(Pool, Object)) {
        writeVarUInt(W, 1);
      } else {
        writeVarUInt(W, 0);
        State.addPersistent(Pool, Object);
      }
      return true;
    }
    auto Pos = Q.use(Object, /*InsertIfNew=*/false);
    assert(Pos && "seen persistent object missing from context queue");
    writeVarUInt(W, *Pos + Base);
    return false;
  }

  bool preload(uint32_t Pool, uint32_t Object) override {
    if (State.firstSight(Pool, Object))
      State.addPersistent(Pool, Object);
    return true;
  }

private:
  MtfState State;
  const RefStats *Stats;
  bool Transients;
};

class MtfDecoder final : public RefDecoder {
public:
  MtfDecoder(bool Transients, bool Context)
      : State(Context), Transients(Transients) {}

  std::optional<uint32_t> decode(uint32_t Pool, uint32_t Sub,
                                 ByteReader &R) override {
    MtfQueue &Q = State.queue(Pool, Sub);
    uint32_t V = static_cast<uint32_t>(readVarUInt(R));
    unsigned Base = Transients ? 2 : 1;
    if (V == 0) {
      pending(Pool) = PendingPersistent;
      return std::nullopt;
    }
    if (Transients && V == 1) {
      pending(Pool) = PendingTransient;
      return std::nullopt;
    }
    return Q.useAt(V - Base);
  }

  void registerNew(uint32_t Pool, uint32_t, uint32_t Object) override {
    // Per-pool pending state: definitions nest across pools.
    uint8_t &Slot = pending(Pool);
    assert(Slot != NonePending && "registerNew without a pending decode");
    bool WasTransient = Slot == PendingTransient;
    Slot = NonePending;
    if (!WasTransient)
      State.addPersistent(Pool, Object);
  }

  bool preload(uint32_t Pool, uint32_t Object) override {
    if (State.firstSight(Pool, Object))
      State.addPersistent(Pool, Object);
    return true;
  }

private:
  enum : uint8_t { NonePending, PendingPersistent, PendingTransient };

  uint8_t &pending(uint32_t Pool) {
    if (Pool >= Pending.size())
      Pending.resize(static_cast<size_t>(Pool) + 1, NonePending);
    return Pending[Pool];
  }

  MtfState State;
  bool Transients;
  std::vector<uint8_t> Pending; ///< pool -> what its open definition is
};

} // namespace

std::unique_ptr<RefEncoder> cjpack::makeRefEncoder(RefScheme S,
                                                   const RefStats *Stats) {
  switch (S) {
  case RefScheme::Simple:
    return std::make_unique<FixedIdEncoder>(/*TwoByte=*/true);
  case RefScheme::Basic:
    return std::make_unique<FixedIdEncoder>(/*TwoByte=*/false);
  case RefScheme::Freq:
    assert(Stats && "Freq needs stats");
    return std::make_unique<FreqEncoder>(*Stats);
  case RefScheme::Cache:
    assert(Stats && "Cache needs stats");
    return std::make_unique<CacheEncoder>(*Stats);
  case RefScheme::MtfBasic:
    return std::make_unique<MtfEncoder>(false, false, Stats);
  case RefScheme::MtfTransients:
    return std::make_unique<MtfEncoder>(true, false, Stats);
  case RefScheme::MtfContext:
    return std::make_unique<MtfEncoder>(false, true, Stats);
  case RefScheme::MtfTransientsContext:
    return std::make_unique<MtfEncoder>(true, true, Stats);
  }
  return nullptr;
}

std::unique_ptr<RefDecoder> cjpack::makeRefDecoder(RefScheme S) {
  switch (S) {
  case RefScheme::Simple:
    return std::make_unique<FixedIdDecoder>(/*TwoByte=*/true);
  case RefScheme::Basic:
    return std::make_unique<FixedIdDecoder>(/*TwoByte=*/false);
  case RefScheme::Freq:
    return std::make_unique<FreqDecoder>();
  case RefScheme::Cache:
    return std::make_unique<CacheDecoder>();
  case RefScheme::MtfBasic:
    return std::make_unique<MtfDecoder>(false, false);
  case RefScheme::MtfTransients:
    return std::make_unique<MtfDecoder>(true, false);
  case RefScheme::MtfContext:
    return std::make_unique<MtfDecoder>(false, true);
  case RefScheme::MtfTransientsContext:
    return std::make_unique<MtfDecoder>(true, true);
  }
  return nullptr;
}
