//===- fuzz_coder.cpp - fuzz the entropy-coding layer ---------------------===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Drives the coder substrate in both directions. The first byte selects
// a reference scheme (modulo the scheme count) and, in its next bit,
// whether both coder sides start from preloaded objects.
//
//   * Round trip: the remaining bytes, two per event, name a (pool,
//     sub, object) reference stream. It is counted into RefStats,
//     encoded and decoded again; every event must come back with the
//     same "new" verdict and the same object, and "new" must mean the
//     object's first occurrence in its pool.
//   * Garbage: the same bytes decoded as a wire stream. Garbage decodes
//     to garbage, but a decoder may only name an object registered or
//     preloaded in that pool, or an id past every one handed out so far
//     (which the caller's range check rejects). It must never read past
//     the buffer or loop without bound.
//   * The varint readers and the arithmetic decoder with an adaptive
//     model, over the same bytes.
//
//===----------------------------------------------------------------------===//

#include "coder/Arithmetic.h"
#include "coder/RefCoder.h"
#include "support/VarInt.h"
#include <cstdlib>
#include <set>
#include <vector>

using namespace cjpack;

namespace {

constexpr uint32_t NumPools = 8;
/// Objects 0..PreloadedPerPool-1 are preloaded into every pool when the
/// selector asks for it and the scheme supports it.
constexpr uint32_t PreloadedPerPool = 8;

void check(bool Ok) {
  if (!Ok)
    abort();
}

struct RefEvent {
  uint32_t Pool, Sub, Object;
};

bool preloadBoth(RefEncoder *Enc, RefDecoder &Dec) {
  for (uint32_t Pool = 0; Pool < NumPools; ++Pool)
    for (uint32_t Object = 0; Object < PreloadedPerPool; ++Object) {
      if (Enc && !Enc->preload(Pool, Object))
        return false;
      if (!Dec.preload(Pool, Object))
        return false;
    }
  return true;
}

void roundTrip(RefScheme Scheme, bool Preload, const uint8_t *Data,
               size_t Size) {
  std::vector<RefEvent> Events;
  for (size_t I = 0; I + 1 < Size && Events.size() < 4096; I += 2)
    Events.push_back(
        {Data[I] % NumPools, Data[I] / NumPools, Data[I + 1]});

  RefStats Stats;
  for (const RefEvent &E : Events)
    Stats.note(E.Pool, E.Object);
  auto Enc = makeRefEncoder(Scheme, &Stats);
  auto Dec = makeRefDecoder(Scheme);
  Preload = Preload && preloadBoth(Enc.get(), *Dec);

  std::vector<std::set<uint32_t>> Seen(NumPools);
  if (Preload)
    for (std::set<uint32_t> &S : Seen)
      for (uint32_t Object = 0; Object < PreloadedPerPool; ++Object)
        S.insert(Object);
  ByteWriter W;
  std::vector<bool> New;
  for (const RefEvent &E : Events) {
    bool Def = Enc->encode(E.Pool, E.Sub, E.Object, W);
    check(Def == Seen[E.Pool].insert(E.Object).second);
    New.push_back(Def);
  }

  ByteReader R(W.data());
  for (size_t I = 0; I < Events.size(); ++I) {
    const RefEvent &E = Events[I];
    auto Got = Dec->decode(E.Pool, E.Sub, R);
    check(Got.has_value() != New[I]);
    if (Got)
      check(*Got == E.Object);
    else
      Dec->registerNew(E.Pool, E.Sub, E.Object);
  }
  check(!R.hasError() && R.atEnd());
}

void decodeGarbage(RefScheme Scheme, bool Preload, const uint8_t *Data,
                   size_t Size) {
  auto Dec = makeRefDecoder(Scheme);
  std::vector<std::set<uint32_t>> Known(NumPools);
  uint32_t NextId = 0;
  if (Preload && preloadBoth(nullptr, *Dec)) {
    for (std::set<uint32_t> &K : Known)
      for (uint32_t Object = 0; Object < PreloadedPerPool; ++Object)
        K.insert(Object);
    NextId = PreloadedPerPool;
  }
  ByteReader R(Data, Size);
  for (uint32_t Step = 0; !R.atEnd() && !R.hasError(); ++Step) {
    uint32_t Pool = Step % NumPools;
    uint32_t Sub = Step % 3;
    auto Existing = Dec->decode(Pool, Sub, R);
    if (Existing) {
      check(Known[Pool].count(*Existing) || *Existing >= NextId);
      continue;
    }
    Dec->registerNew(Pool, Sub, NextId);
    Known[Pool].insert(NextId);
    ++NextId;
  }
}

} // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t *Data, size_t Size) {
  if (Size == 0)
    return 0;

  uint8_t NumSchemes =
      static_cast<uint8_t>(RefScheme::MtfTransientsContext) + 1;
  auto Scheme = static_cast<RefScheme>(Data[0] % NumSchemes);
  bool Preload = (Data[0] / NumSchemes) & 1;
  roundTrip(Scheme, Preload, Data + 1, Size - 1);
  decodeGarbage(Scheme, Preload, Data + 1, Size - 1);

  std::vector<uint8_t> Bytes(Data, Data + Size);
  ByteReader VU(Bytes);
  while (!VU.atEnd() && !VU.hasError())
    (void)readVarUInt(VU);
  ByteReader VS(Bytes);
  while (!VS.atEnd() && !VS.hasError())
    (void)readVarInt(VS);

  AdaptiveModel Model(64);
  ArithmeticDecoder AD(Bytes);
  for (int I = 0; I < 1024; ++I) {
    uint32_t Sym = AD.decode(Model);
    Model.update(Sym);
  }
  return 0;
}
