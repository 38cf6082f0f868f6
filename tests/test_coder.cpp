//===- test_coder.cpp - reference scheme and arithmetic coder tests -------===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//

#include "coder/Arithmetic.h"
#include "coder/RefCoder.h"
#include "corpus/Rng.h"
#include "support/VarInt.h"
#include <gtest/gtest.h>
#include <map>

using namespace cjpack;

namespace {

struct RefEvent {
  uint32_t Pool, Sub, Object;
};

/// A synthetic reference stream with skewed reuse across two pools and
/// several contexts.
std::vector<RefEvent> makeStream(size_t N, uint64_t Seed,
                                 uint32_t Universe = 80) {
  Rng R(Seed);
  std::vector<RefEvent> Out;
  for (size_t I = 0; I < N; ++I) {
    RefEvent E;
    E.Pool = static_cast<uint32_t>(R.below(2));
    E.Sub = static_cast<uint32_t>(R.below(3));
    // Context-correlated objects: each (pool, sub) prefers its own slice
    // of the universe, plus a shared hot set.
    if (R.chance(70))
      E.Object = E.Pool * 1000 + E.Sub * 100 +
                 static_cast<uint32_t>(R.zipf(Universe / 4));
    else
      E.Object = E.Pool * 1000 + static_cast<uint32_t>(R.zipf(Universe));
    Out.push_back(E);
  }
  return Out;
}

/// A stream whose context queues first appear after many persistent
/// objects: 1500 events in context 0 over 400 objects per pool, then
/// contexts 1..24 reusing them, so each late queue is seeded from the
/// pool's whole history before its first use.
std::vector<RefEvent> makeLateContextStream(uint64_t Seed) {
  Rng R(Seed);
  std::vector<RefEvent> Out;
  for (uint32_t I = 0; I < 1500; ++I) {
    uint32_t Pool = I % 2;
    Out.push_back({Pool, 0, Pool * 1000 + I / 2 % 400});
  }
  for (uint32_t I = 0; I < 3000; ++I) {
    uint32_t Pool = static_cast<uint32_t>(R.below(2));
    uint32_t Sub = 1 + static_cast<uint32_t>(R.below(24));
    Out.push_back({Pool, Sub,
                   Pool * 1000 + static_cast<uint32_t>(R.zipf(450))});
  }
  return Out;
}

/// (pool, object) pairs seeded into both coder sides before a stream,
/// as the §14 standard references and the shard dictionary are.
struct Preloaded {
  uint32_t Pool, Object;
};

/// Runs encode over the stream, then decode, checking the decoder
/// reproduces the object sequence exactly. \p Preloads seed both sides
/// first when the scheme supports preloading.
void roundTrip(RefScheme S, const std::vector<RefEvent> &Stream,
               const std::vector<Preloaded> &Preloads = {}) {
  RefStats Stats;
  for (const RefEvent &E : Stream)
    Stats.note(E.Pool, E.Object);

  bool Preload = refSchemeSupportsPreload(S);
  auto Enc = makeRefEncoder(S, &Stats);
  auto Dec = makeRefDecoder(S);
  for (const Preloaded &P : Preloads) {
    ASSERT_EQ(Enc->preload(P.Pool, P.Object), Preload);
    ASSERT_EQ(Dec->preload(P.Pool, P.Object), Preload);
  }
  ByteWriter W;
  std::vector<bool> NewFlags;
  for (const RefEvent &E : Stream)
    NewFlags.push_back(Enc->encode(E.Pool, E.Sub, E.Object, W));

  ByteReader R(W.data());
  for (size_t I = 0; I < Stream.size(); ++I) {
    const RefEvent &E = Stream[I];
    auto Got = Dec->decode(E.Pool, E.Sub, R);
    if (NewFlags[I]) {
      // First occurrence: decoder must also see "new"; the caller then
      // registers the object (we use the same id space for the test).
      if (Got.has_value()) {
        // Freq/Cache may resolve a first occurrence from an already
        // bound id only if the encoder also returned false; mismatch is
        // a failure.
        FAIL() << refSchemeName(S) << ": decoder resolved event " << I
               << " but encoder saw a first occurrence";
      }
      Dec->registerNew(E.Pool, E.Sub, E.Object);
    } else {
      ASSERT_TRUE(Got.has_value())
          << refSchemeName(S) << ": decoder saw new at event " << I;
      ASSERT_EQ(*Got, E.Object) << refSchemeName(S) << " event " << I;
    }
  }
  EXPECT_FALSE(R.hasError());
}

} // namespace

class RefSchemeTest : public ::testing::TestWithParam<RefScheme> {};

TEST_P(RefSchemeTest, RoundTripsSkewedStream) {
  roundTrip(GetParam(), makeStream(5000, 42));
}

TEST_P(RefSchemeTest, RoundTripsTinyStream) {
  roundTrip(GetParam(), makeStream(3, 1));
}

TEST_P(RefSchemeTest, RoundTripsAllUniqueObjects) {
  // Every object occurs exactly once: all transients.
  std::vector<RefEvent> Stream;
  for (uint32_t I = 0; I < 200; ++I)
    Stream.push_back({I % 3, I % 2, 10000 + I});
  roundTrip(GetParam(), Stream);
}

TEST_P(RefSchemeTest, RoundTripsSingleObjectRepeated) {
  std::vector<RefEvent> Stream(500, RefEvent{0, 0, 7});
  roundTrip(GetParam(), Stream);
}

TEST_P(RefSchemeTest, RoundTripsContextsSeededFromHistory) {
  roundTrip(GetParam(), makeLateContextStream(8));
}

TEST_P(RefSchemeTest, RoundTripsPreloadedObjects) {
  // Every third object of the skewed stream's universe is preloaded
  // (so it never needs a definition), plus objects the stream never
  // names; preloading one twice must be harmless.
  std::vector<Preloaded> Preloads;
  for (uint32_t Pool = 0; Pool < 2; ++Pool)
    for (uint32_t Object = 0; Object < 300; Object += 3)
      Preloads.push_back({Pool, Pool * 1000 + Object});
  Preloads.push_back({0, 5000});
  Preloads.push_back({0, 3});
  roundTrip(GetParam(), makeStream(3000, 77), Preloads);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, RefSchemeTest,
    ::testing::Values(RefScheme::Simple, RefScheme::Basic, RefScheme::Freq,
                      RefScheme::Cache, RefScheme::MtfBasic,
                      RefScheme::MtfTransients, RefScheme::MtfContext,
                      RefScheme::MtfTransientsContext),
    [](const auto &Info) {
      std::string Name = refSchemeName(Info.param);
      for (char &C : Name)
        if (!isalnum(static_cast<unsigned char>(C)))
          C = '_';
      return Name;
    });

TEST(RefSchemes, MtfBeatsBasicOnSkewedStreams) {
  // The paper's Table 3 ordering: MTF < Freq < Basic in raw index bytes
  // on reuse-heavy streams.
  auto Stream = makeStream(20000, 9, 400);
  RefStats Stats;
  for (const RefEvent &E : Stream)
    Stats.note(E.Pool, E.Object);
  auto SizeOf = [&](RefScheme S) {
    auto Enc = makeRefEncoder(S, &Stats);
    ByteWriter W;
    for (const RefEvent &E : Stream)
      Enc->encode(E.Pool, E.Sub, E.Object, W);
    return W.size();
  };
  size_t Simple = SizeOf(RefScheme::Simple);
  size_t Basic = SizeOf(RefScheme::Basic);
  size_t Mtf = SizeOf(RefScheme::MtfTransientsContext);
  EXPECT_LT(Basic, Simple);
  EXPECT_LT(Mtf, Basic);
}

// A position past its queue can only come from corrupt input. The
// decoder must not turn it into an object the caller has registered,
// or the caller's range check accepts it and restores a wrong class.
TEST(RefSchemes, MtfPositionPastQueueDecodesNoRegisteredObject) {
  for (RefScheme S : {RefScheme::MtfBasic, RefScheme::MtfTransients,
                      RefScheme::MtfContext,
                      RefScheme::MtfTransientsContext}) {
    auto Dec = makeRefDecoder(S);
    bool Transients = S == RefScheme::MtfTransients ||
                      S == RefScheme::MtfTransientsContext;
    uint32_t Base = Transients ? 2 : 1;
    ByteWriter W;
    for (int I = 0; I < 5; ++I)
      writeVarUInt(W, 0); // five new persistent objects, ids 0..4
    writeVarUInt(W, Base + 4); // position 4: the oldest, id 0
    writeVarUInt(W, Base + 5); // position 5: past the queue
    writeVarUInt(W, Base + 125);
    ByteReader R(W.data());
    for (uint32_t Id = 0; Id < 5; ++Id) {
      ASSERT_FALSE(Dec->decode(0, 0, R).has_value()) << refSchemeName(S);
      Dec->registerNew(0, 0, Id);
    }
    auto Oldest = Dec->decode(0, 0, R);
    ASSERT_TRUE(Oldest.has_value()) << refSchemeName(S);
    EXPECT_EQ(*Oldest, 0u) << refSchemeName(S);
    for (int I = 0; I < 2; ++I) {
      auto Past = Dec->decode(0, 0, R);
      ASSERT_TRUE(Past.has_value()) << refSchemeName(S);
      EXPECT_GE(*Past, 5u) << refSchemeName(S)
                           << ": decoded a registered object";
    }
    EXPECT_FALSE(R.hasError());
  }
}

TEST(RefStats, CountsRanksAndTransients) {
  RefStats Stats;
  Stats.note(1, 10);
  Stats.note(1, 10);
  Stats.note(1, 10);
  Stats.note(1, 20);
  Stats.note(1, 20);
  Stats.note(1, 30);
  EXPECT_EQ(Stats.countOf(1, 10), 3u);
  EXPECT_TRUE(Stats.isTransient(1, 30));
  EXPECT_FALSE(Stats.isTransient(1, 20));
  EXPECT_EQ(Stats.rankOf(1, 10), 1u) << "most frequent gets rank 1";
  EXPECT_EQ(Stats.rankOf(1, 20), 2u);
  EXPECT_EQ(Stats.rankOf(1, 30), 0u) << "transients have no rank";
  EXPECT_EQ(Stats.countOf(2, 10), 0u) << "pools are independent";
}

TEST(Arithmetic, RoundTripsSkewedSymbols) {
  Rng R(5);
  std::vector<uint32_t> Symbols;
  for (int I = 0; I < 20000; ++I)
    Symbols.push_back(static_cast<uint32_t>(R.zipf(64)));
  AdaptiveModel EncModel(64);
  ArithmeticEncoder Enc;
  for (uint32_t S : Symbols)
    Enc.encode(EncModel, S);
  std::vector<uint8_t> Bytes = Enc.finish();

  AdaptiveModel DecModel(64);
  ArithmeticDecoder Dec(Bytes);
  for (uint32_t S : Symbols)
    ASSERT_EQ(Dec.decode(DecModel), S);
}

TEST(Arithmetic, ApproachesEntropyOnBiasedCoin) {
  // 95/5 binary source: entropy ~0.286 bits/symbol. The adaptive coder
  // should land well under 0.5 bits/symbol.
  Rng R(17);
  std::vector<uint32_t> Symbols;
  for (int I = 0; I < 50000; ++I)
    Symbols.push_back(R.chance(95) ? 0 : 1);
  AdaptiveModel Model(2);
  ArithmeticEncoder Enc;
  for (uint32_t S : Symbols)
    Enc.encode(Model, S);
  std::vector<uint8_t> Bytes = Enc.finish();
  double BitsPerSymbol = 8.0 * Bytes.size() / Symbols.size();
  EXPECT_LT(BitsPerSymbol, 0.5);
  EXPECT_GT(BitsPerSymbol, 0.25);
}

TEST(Arithmetic, SingleSymbolAlphabet) {
  AdaptiveModel Model(1);
  ArithmeticEncoder Enc;
  for (int I = 0; I < 100; ++I)
    Enc.encode(Model, 0);
  std::vector<uint8_t> Bytes = Enc.finish();
  AdaptiveModel DecModel(1);
  ArithmeticDecoder Dec(Bytes);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(Dec.decode(DecModel), 0u);
}
