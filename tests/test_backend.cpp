//===- test_backend.cpp - pluggable compression backend harness -----------===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The differential gate for the backend registry: every registered
// backend must round-trip byte-identical classfiles across corpus
// styles, shard counts, and wire-format families, restoring exactly
// what the default zlib pipeline restores, and statPackedArchive's
// per-backend accounting must preserve the sum identity. Plus property
// tests for the from-scratch canonical Huffman codec (random
// distributions, determinism, strict decoder taxonomy) and the
// arithmetic byte codec.
//
//===----------------------------------------------------------------------===//

#include "classfile/Writer.h"
#include "coder/Arithmetic.h"
#include "coder/Huffman.h"
#include "corpus/Corpus.h"
#include "pack/ArchiveReader.h"
#include "pack/Backend.h"
#include "pack/Packer.h"
#include "pack/Stats.h"
#include <gtest/gtest.h>
#include <random>

using namespace cjpack;

namespace {

std::vector<NamedClass> corpusFor(CodeStyle Style) {
  CorpusSpec Spec;
  Spec.Name = "backend";
  Spec.Seed = 4242;
  Spec.NumClasses = 24;
  Spec.NumPackages = 3;
  Spec.MeanMethods = 5;
  Spec.MeanStatements = 8;
  Spec.Code = Style;
  return generateCorpus(Spec);
}

/// Unpacks an archive of any version into named classfile bytes.
std::vector<NamedClass> restoreAll(const std::vector<uint8_t> &Archive) {
  std::vector<NamedClass> Out;
  if (Archive.size() > 4 && Archive[4] == FormatVersionIndexed) {
    auto Reader = PackedArchiveReader::open(Archive);
    EXPECT_TRUE(static_cast<bool>(Reader)) << Reader.message();
    if (!Reader)
      return Out;
    auto Classes = Reader->unpackAll();
    EXPECT_TRUE(static_cast<bool>(Classes)) << Classes.message();
    if (!Classes)
      return Out;
    for (const ClassFile &CF : *Classes)
      Out.push_back(
          {std::string(CF.thisClassName()) + ".class", writeClassFile(CF)});
    return Out;
  }
  auto Classes = unpackArchive(Archive, 2u);
  EXPECT_TRUE(static_cast<bool>(Classes)) << Classes.message();
  if (Classes)
    Out = std::move(*Classes);
  return Out;
}

} // namespace

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

TEST(BackendRegistry, WireIdsAndNames) {
  ASSERT_EQ(allBackends().size(), NumBackends);
  for (unsigned I = 0; I < NumBackends; ++I) {
    const CompressionBackend &B = allBackends()[I];
    EXPECT_EQ(static_cast<unsigned>(B.Id), I)
        << "registry must be indexed by wire id";
    EXPECT_STREQ(B.Name, backendName(B.Id));
    EXPECT_EQ(findBackend(static_cast<uint8_t>(I)), &B);
    EXPECT_EQ(findBackendByName(B.Name), &B);
  }
  EXPECT_EQ(findBackend(NumBackends), nullptr);
  EXPECT_EQ(findBackend(0xFF), nullptr);
  EXPECT_EQ(findBackendByName("deflate64"), nullptr);
  EXPECT_EQ(findBackendByName(""), nullptr);
}

TEST(BackendRegistry, ArchiveHeaderCodes) {
  // Zlib maps to header code 0 so default archives keep their
  // historical flag byte; every uniform code names itself.
  EXPECT_EQ(archiveBackendCode(BackendId::Zlib), 0);
  EXPECT_STREQ(archiveBackendCodeName(0), "zlib");
  EXPECT_STREQ(archiveBackendCodeName(archiveBackendCode(BackendId::Store)),
               "store");
  EXPECT_STREQ(
      archiveBackendCodeName(archiveBackendCode(BackendId::Huffman)),
      "huffman");
  EXPECT_STREQ(archiveBackendCodeName(archiveBackendCode(BackendId::Arith)),
               "arith");
  EXPECT_STREQ(archiveBackendCodeName(ArchiveBackendMixed), "mixed");
}

TEST(BackendRegistry, EveryBackendRoundTripsBytes) {
  std::mt19937 Rng(99);
  std::vector<std::vector<uint8_t>> Samples;
  Samples.push_back({});
  Samples.push_back({0x42});
  Samples.push_back(std::vector<uint8_t>(300, 0x7F));
  {
    std::vector<uint8_t> Text;
    for (unsigned I = 0; I < 2000; ++I)
      Text.push_back("the quick brown fox "[I % 20]);
    Samples.push_back(std::move(Text));
    std::vector<uint8_t> Noise(1000);
    for (uint8_t &B : Noise)
      B = static_cast<uint8_t>(Rng());
    Samples.push_back(std::move(Noise));
  }
  // Every stream under every scheme, so zlib's every deflate setting
  // too.
  for (const CompressionBackend &B : allBackends()) {
    for (unsigned I = 0; I < NumStreams; ++I) {
      StreamId Stream = static_cast<StreamId>(I);
      for (uint8_t S = 0;
           S <= static_cast<uint8_t>(RefScheme::MtfTransientsContext); ++S) {
        RefScheme Scheme = static_cast<RefScheme>(S);
        for (const std::vector<uint8_t> &Raw : Samples) {
          std::vector<uint8_t> Stored = B.Compress(Raw, Stream, Scheme);
          auto Back = B.Decompress(Stored, Raw.size());
          ASSERT_TRUE(static_cast<bool>(Back))
              << B.Name << " " << streamName(Stream) << " "
              << refSchemeName(Scheme) << " size " << Raw.size() << ": "
              << Back.message();
          EXPECT_EQ(*Back, Raw) << B.Name << " " << streamName(Stream) << " "
                                << refSchemeName(Scheme) << " size "
                                << Raw.size();
        }
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Differential round-trip matrix
//===----------------------------------------------------------------------===//

class BackendMatrix
    : public ::testing::TestWithParam<std::tuple<CodeStyle, unsigned, bool>> {
};

TEST_P(BackendMatrix, RoundTripsIdenticallyAcrossBackends) {
  auto [Style, Shards, Indexed] = GetParam();
  auto Classes = corpusFor(Style);

  // The default pipeline's restore is the reference every backend must
  // reproduce byte-for-byte.
  PackOptions Default;
  Default.Shards = Shards;
  Default.Threads = 2;
  Default.RandomAccessIndex = Indexed;
  auto Reference = packClassBytes(Classes, Default);
  ASSERT_TRUE(static_cast<bool>(Reference)) << Reference.message();
  std::vector<NamedClass> Want = restoreAll(Reference->Archive);
  ASSERT_EQ(Want.size(), Classes.size());

  for (const CompressionBackend &B : allBackends()) {
    PackOptions Options = Default;
    Options.Backend = B.Id;
    auto Packed = packClassBytes(Classes, Options);
    ASSERT_TRUE(static_cast<bool>(Packed))
        << B.Name << ": " << Packed.message();

    // The header advertises the uniform backend (zlib archives keep
    // the historical code 0 — checked implicitly by the stats decode).
    auto Stats = statPackedArchive(Packed->Archive);
    ASSERT_TRUE(static_cast<bool>(Stats))
        << B.Name << ": " << Stats.message();
    EXPECT_EQ(Stats->BackendCode, archiveBackendCode(B.Id)) << B.Name;

    // Sum identities: framing + streams == archive, and the per-backend
    // split covers every packed stream byte.
    EXPECT_EQ(Stats->HeaderBytes + Stats->IndexBytes +
                  Stats->DictionaryBytes + Stats->Sizes.totalPacked(),
              Packed->Archive.size())
        << B.Name;
    size_t BackendSum = 0;
    for (unsigned K = 0; K < NumBackends; ++K)
      BackendSum += Stats->BackendPacked[K];
    EXPECT_EQ(BackendSum, Stats->Sizes.totalPacked()) << B.Name;
    // A uniform non-store plan may still store streams that refuse to
    // shrink, but it must never use a third backend.
    for (unsigned K = 0; K < NumBackends; ++K) {
      if (K != static_cast<unsigned>(B.Id) &&
          K != static_cast<unsigned>(BackendId::Store)) {
        EXPECT_EQ(Stats->BackendStreams[K], 0u)
            << B.Name << " unexpectedly used "
            << backendName(static_cast<BackendId>(K));
      }
    }

    std::vector<NamedClass> Got = restoreAll(Packed->Archive);
    ASSERT_EQ(Got.size(), Want.size()) << B.Name;
    for (size_t I = 0; I < Want.size(); ++I) {
      EXPECT_EQ(Got[I].Name, Want[I].Name) << B.Name << " #" << I;
      EXPECT_EQ(Got[I].Data, Want[I].Data) << B.Name << " " << Got[I].Name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCells, BackendMatrix,
    ::testing::Combine(::testing::Values(CodeStyle::Balanced,
                                         CodeStyle::Numeric,
                                         CodeStyle::StringHeavy),
                       ::testing::Values(1u, 4u),
                       ::testing::Bool()));

TEST(BackendMatrix, MixedPerStreamPlanRoundTrips) {
  auto Classes = corpusFor(CodeStyle::Balanced);
  PackOptions Default;
  Default.Shards = 4;
  Default.Threads = 2;
  auto Reference = packClassBytes(Classes, Default);
  ASSERT_TRUE(static_cast<bool>(Reference)) << Reference.message();
  std::vector<NamedClass> Want = restoreAll(Reference->Archive);

  // A deliberately motley plan: every backend appears.
  std::array<BackendId, NumStreams> Plan;
  for (unsigned I = 0; I < NumStreams; ++I)
    Plan[I] = static_cast<BackendId>(I % NumBackends);
  for (bool Indexed : {false, true}) {
    PackOptions Options = Default;
    Options.RandomAccessIndex = Indexed;
    Options.StreamBackends = Plan;
    auto Packed = packClassBytes(Classes, Options);
    ASSERT_TRUE(static_cast<bool>(Packed)) << Packed.message();

    auto Stats = statPackedArchive(Packed->Archive);
    ASSERT_TRUE(static_cast<bool>(Stats)) << Stats.message();
    EXPECT_EQ(Stats->BackendCode, ArchiveBackendMixed);
    size_t BackendSum = 0;
    for (unsigned K = 0; K < NumBackends; ++K)
      BackendSum += Stats->BackendPacked[K];
    EXPECT_EQ(BackendSum, Stats->Sizes.totalPacked());

    std::vector<NamedClass> Got = restoreAll(Packed->Archive);
    ASSERT_EQ(Got.size(), Want.size());
    for (size_t I = 0; I < Want.size(); ++I)
      EXPECT_EQ(Got[I].Data, Want[I].Data) << Got[I].Name;
  }
}

TEST(BackendMatrix, UncompressedOptionOverridesBackend) {
  // CompressStreams=false must force all-store no matter the backend
  // knob — it reproduces the paper's "not gzip'd" rows.
  auto Classes = corpusFor(CodeStyle::Balanced);
  PackOptions Raw;
  Raw.CompressStreams = false;
  PackOptions RawHuffman = Raw;
  RawHuffman.Backend = BackendId::Huffman;
  auto A = packClassBytes(Classes, Raw);
  auto B = packClassBytes(Classes, RawHuffman);
  ASSERT_TRUE(A && B);
  EXPECT_EQ(A->Archive, B->Archive);
}

//===----------------------------------------------------------------------===//
// Canonical Huffman property tests
//===----------------------------------------------------------------------===//

namespace {

/// Encode→decode identity plus determinism for one input.
void expectHuffmanRoundTrip(const std::vector<uint8_t> &Raw) {
  std::vector<uint8_t> Stored = huffmanCompress(Raw);
  std::vector<uint8_t> Again = huffmanCompress(Raw);
  EXPECT_EQ(Stored, Again) << "encoder must be deterministic";
  auto Back = huffmanDecompress(Stored, Raw.size());
  ASSERT_TRUE(static_cast<bool>(Back)) << Back.message();
  EXPECT_EQ(*Back, Raw);
}

} // namespace

TEST(Huffman, RandomDistributions) {
  std::mt19937 Rng(7);
  // Skewed: geometric-ish byte distribution, the shape MTF leaves.
  for (unsigned Round = 0; Round < 8; ++Round) {
    std::geometric_distribution<int> Skew(0.05 + 0.1 * Round);
    std::vector<uint8_t> Raw(1 + Rng() % 5000);
    for (uint8_t &B : Raw)
      B = static_cast<uint8_t>(std::min(Skew(Rng), 255));
    expectHuffmanRoundTrip(Raw);
  }
  // Uniform: all 256 symbols roughly equally likely (incompressible;
  // the stream layer would store it, but the codec must still be
  // lossless).
  for (unsigned Round = 0; Round < 4; ++Round) {
    std::vector<uint8_t> Raw(1 + Rng() % 3000);
    for (uint8_t &B : Raw)
      B = static_cast<uint8_t>(Rng());
    expectHuffmanRoundTrip(Raw);
  }
}

TEST(Huffman, DegenerateInputs) {
  expectHuffmanRoundTrip({});
  expectHuffmanRoundTrip({0});
  expectHuffmanRoundTrip({255});
  expectHuffmanRoundTrip(std::vector<uint8_t>(1, 7));
  expectHuffmanRoundTrip(std::vector<uint8_t>(100000, 7)); // one symbol
  expectHuffmanRoundTrip({1, 2});                          // two symbols
  std::vector<uint8_t> AllBytes(256);
  for (unsigned I = 0; I < 256; ++I)
    AllBytes[I] = static_cast<uint8_t>(I);
  expectHuffmanRoundTrip(AllBytes); // every symbol exactly once
}

TEST(Huffman, CodeLengthsAreDeterministicAndValid) {
  std::mt19937 Rng(11);
  for (unsigned Round = 0; Round < 32; ++Round) {
    std::array<uint64_t, 256> Freq{};
    unsigned Distinct = 2 + Rng() % 254;
    for (unsigned I = 0; I < Distinct; ++I)
      Freq[Rng() % 256] += 1 + Rng() % 100000;
    std::array<uint8_t, 256> A = huffmanCodeLengths(Freq);
    std::array<uint8_t, 256> B = huffmanCodeLengths(Freq);
    EXPECT_EQ(A, B) << "lengths must be a pure function of the histogram";
    // Kraft sum exactly one over the used symbols: a complete prefix
    // code with no length beyond the cap.
    uint64_t Kraft = 0;
    for (unsigned Sym = 0; Sym < 256; ++Sym) {
      if (Freq[Sym] == 0) {
        EXPECT_EQ(A[Sym], 0u) << Sym;
        continue;
      }
      ASSERT_GE(A[Sym], 1u) << Sym;
      ASSERT_LE(A[Sym], MaxHuffmanCodeLen) << Sym;
      Kraft += 1ull << (MaxHuffmanCodeLen - A[Sym]);
    }
    EXPECT_EQ(Kraft, 1ull << MaxHuffmanCodeLen);
    // More frequent symbols never get longer codes.
    for (unsigned X = 0; X < 256; ++X)
      for (unsigned Y = 0; Y < 256; ++Y)
        if (Freq[X] != 0 && Freq[Y] != 0 && Freq[X] > Freq[Y]) {
          EXPECT_LE(A[X], A[Y]) << X << " vs " << Y;
        }
  }
}

TEST(Huffman, LengthLimitKicksInOnExtremeSkew) {
  // Fibonacci-like weights force unlimited Huffman depths past 15; the
  // codec must fold them under the cap and still round-trip.
  std::array<uint64_t, 256> Freq{};
  uint64_t A = 1, B = 1;
  for (unsigned I = 0; I < 40; ++I) {
    Freq[I] = A;
    uint64_t Next = A + B;
    A = B;
    B = Next;
  }
  std::array<uint8_t, 256> Lengths = huffmanCodeLengths(Freq);
  unsigned MaxLen = 0;
  for (unsigned I = 0; I < 40; ++I)
    MaxLen = std::max<unsigned>(MaxLen, Lengths[I]);
  EXPECT_EQ(MaxLen, MaxHuffmanCodeLen);

  std::vector<uint8_t> Raw;
  for (unsigned I = 0; I < 40; ++I)
    Raw.insert(Raw.end(), static_cast<size_t>(std::min<uint64_t>(
                              Freq[I], 3000)),
               static_cast<uint8_t>(I));
  expectHuffmanRoundTrip(Raw);
}

TEST(Huffman, DecoderRejectsHostileBlobs) {
  std::vector<uint8_t> Raw(500);
  for (size_t I = 0; I < Raw.size(); ++I)
    Raw[I] = static_cast<uint8_t>(I % 7);
  std::vector<uint8_t> Stored = huffmanCompress(Raw);

  // Truncation anywhere is Truncated (or, once the final byte's
  // padding is gone mid-table, Corrupt) — never success, never a crash.
  for (size_t Len = 0; Len < Stored.size(); ++Len) {
    std::vector<uint8_t> Cut(Stored.begin(), Stored.begin() + Len);
    auto R = huffmanDecompress(Cut, Raw.size());
    ASSERT_FALSE(static_cast<bool>(R)) << Len;
    EXPECT_NE(R.code(), ErrorCode::Other) << Len;
  }

  // A blob declaring more than the container promised is LimitExceeded.
  auto Lying = huffmanDecompress(Stored, Raw.size() - 1);
  ASSERT_FALSE(static_cast<bool>(Lying));
  EXPECT_EQ(Lying.code(), ErrorCode::LimitExceeded);

  // Trailing bytes after the bit stream are Corrupt.
  std::vector<uint8_t> Padded = Stored;
  Padded.push_back(0);
  auto Trailing = huffmanDecompress(Padded, Raw.size());
  ASSERT_FALSE(static_cast<bool>(Trailing));
  EXPECT_EQ(Trailing.code(), ErrorCode::Corrupt);

  // An incomplete code-length table (Kraft sum below one) is Corrupt.
  std::vector<uint8_t> BadTable = Stored;
  // varint RawLen occupies 2 bytes for 500; kind byte next; table after.
  size_t TableAt = 3;
  BadTable[TableAt] = 0x01; // symbol 0: length 1, symbol 1: length 0 ...
  for (size_t I = 1; I < 128; ++I)
    BadTable[TableAt + I] = 0;
  auto Incomplete = huffmanDecompress(BadTable, Raw.size());
  ASSERT_FALSE(static_cast<bool>(Incomplete));
  EXPECT_EQ(Incomplete.code(), ErrorCode::Corrupt);

  // An unknown blob kind is Corrupt.
  std::vector<uint8_t> BadKind = Stored;
  BadKind[2] = 9;
  auto Unknown = huffmanDecompress(BadKind, Raw.size());
  ASSERT_FALSE(static_cast<bool>(Unknown));
  EXPECT_EQ(Unknown.code(), ErrorCode::Corrupt);

  // Random bit flips decode to the right length or fail typed.
  std::mt19937 Rng(23);
  for (unsigned Round = 0; Round < 500; ++Round) {
    std::vector<uint8_t> Mutant = Stored;
    Mutant[Rng() % Mutant.size()] ^= 1u << (Rng() % 8);
    auto R = huffmanDecompress(Mutant, Raw.size());
    if (R)
      EXPECT_EQ(R->size(), Raw.size());
    else
      EXPECT_NE(R.code(), ErrorCode::Other);
  }
}

//===----------------------------------------------------------------------===//
// Arithmetic byte codec
//===----------------------------------------------------------------------===//

TEST(ArithBytes, RoundTripsAndRejectsLies) {
  std::mt19937 Rng(31);
  for (size_t Size : {0u, 1u, 2u, 100u, 5000u}) {
    std::vector<uint8_t> Raw(Size);
    for (uint8_t &B : Raw)
      B = static_cast<uint8_t>(Rng() % 17);
    std::vector<uint8_t> Stored = arithCompressBytes(Raw);
    EXPECT_EQ(arithCompressBytes(Raw), Stored);
    auto Back = arithDecompressBytes(Stored, Raw.size());
    ASSERT_TRUE(static_cast<bool>(Back)) << Back.message();
    EXPECT_EQ(*Back, Raw);
    // The cap is max(DeclaredRaw, 1) — the zlib wrapper's historical
    // floor — so a one-byte lie is only detectable above two bytes.
    if (Raw.size() >= 2) {
      auto Lying = arithDecompressBytes(Stored, Raw.size() - 1);
      ASSERT_FALSE(static_cast<bool>(Lying));
      EXPECT_EQ(Lying.code(), ErrorCode::LimitExceeded);
    }
  }
  // An empty blob is Truncated, not a crash.
  auto Empty = arithDecompressBytes({}, 10);
  ASSERT_FALSE(static_cast<bool>(Empty));
  EXPECT_EQ(Empty.code(), ErrorCode::Truncated);
}
