//===- test_wire_compat.cpp - golden archive-byte compatibility -----------===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The differential gate for codec refactors: archives packed from a
// pinned corpus must stay byte-for-byte identical to golden SHA-1
// hashes recorded from the pre-refactor encoder, across corpus styles,
// shard counts 1 and 4, preload, opcode collapsing off, ordering off,
// and every reference scheme. Uncompressed archives are asserted
// unconditionally (pure function of the codec); compressed archives
// additionally depend on the zlib version, so those hashes are only
// asserted under the zlib versions verified to write them.
//
// To regenerate after an INTENDED change of the archive bytes (a wire
// change, which must also bump the format version, or an encoder-only
// one such as a new per-stream deflate setting): print
// sha1Hex(packClassBytes(...)->Archive) for each key below with
// Threads=2 and update the table. Record the compressed rows under
// every zlib in GoldenZlibVersions and check that they agree.
//
// The restored bytes are pinned the same way: the canonical (§12) form
// of each corpus style must come back, byte for byte, from its raw v1
// and v3 archives. These rows involve no zlib output and always run.
//
// Also checks here because it shares the corpus: the statPackedArchive
// sum identity (header + index + dictionary + per-stream packed ==
// archive bytes), its agreement with the encoder's own accounting, and
// the cross-version decode matrix (each decoder accepts exactly the
// versions it claims, with typed VersionMismatch otherwise), and the
// short-header rule (Truncated from every surface).
//
//===----------------------------------------------------------------------===//

#include "classfile/Reader.h"
#include "classfile/Writer.h"
#include "corpus/Corpus.h"
#include "pack/ArchiveFormat.h"
#include "pack/ArchiveReader.h"
#include "pack/Packer.h"
#include "pack/Stats.h"
#include "support/Sha1.h"
#include "support/VarInt.h"
#include <algorithm>
#include <gtest/gtest.h>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <zlib.h>

using namespace cjpack;

namespace {

/// zlib versions verified to write the pinned bytes of every row that
/// holds deflate output. Under any other version those rows skip.
const std::set<std::string> GoldenZlibVersions = {"1.2.13", "1.3.1"};

/// Golden SHA-1 of the archive bytes for each (corpus, options) key.
const std::map<std::string, std::string> GoldenHashes = {
    {"balanced/s1/raw", "bf33effb4a399a16d75c0880ebb68608fd348ab8"},
    {"balanced/s1/z", "09b7ce2c478c305fe682150e10be0332488714fd"},
    {"balanced/s4/raw", "7cad34cc0afbd91947cf1252d73998b88b4e3dca"},
    {"balanced/s4/z", "d4225fd5b36bc83020c0c05644923c92ae6b4297"},
    {"numeric/s1/raw", "bc5031a55f75dcf2699aa82ce30f42b4a5728b3a"},
    {"numeric/s1/z", "529fe19941852ef10a1f6fb9c52bf6ee845ae919"},
    {"numeric/s4/raw", "981b1c869fef3335322bb807b6e47cf854f58484"},
    {"numeric/s4/z", "f3f752e6331f9e335f31e6c6bb3bdb70218018f1"},
    {"stringheavy/s1/raw", "f5a558f93ecbe0dcb45c505459d069fdc92a2855"},
    {"stringheavy/s1/z", "43f27505473b2228fba72454792b6d28c992ec8e"},
    {"stringheavy/s4/raw", "83d3025a9809256514e25f2db8ef632f61d66b4f"},
    {"stringheavy/s4/z", "21ce13c4b551ed6e86c6276df48cdb8c2962ad40"},
    {"balanced/s1/preload", "9d2c8af60b868c44523825e80cf02fe9c01a703b"},
    {"balanced/s4/preload", "7a671cb18780a1d3a1829067a20b21703c641f59"},
    {"balanced/s1/nocollapse", "73412ab33f34329d0e8c0b00c7b9465b860a3802"},
    {"balanced/s1/noorder", "bf33effb4a399a16d75c0880ebb68608fd348ab8"},
    {"balanced/s1/scheme-Simple",
     "f034dda72c7c8c5b625e1392661b8aa22e148739"},
    {"balanced/s1/scheme-Basic",
     "d6941b715ad16d7f3d8f5db7b498506e00d577b5"},
    {"balanced/s1/scheme-Freq",
     "136c9b08f4eb30b71ada9cf812d1cef41a1ff42f"},
    {"balanced/s1/scheme-Cache",
     "0e3319f04144edd25c1845a448947325d9d21c25"},
    {"balanced/s1/scheme-MTF Basic",
     "c11324435557831ef943fa437cc6f5e95bfa6096"},
    {"balanced/s1/scheme-MTF Transients",
     "fe054393c6fc725162bdb0d0739dfde8d6d42378"},
    {"balanced/s1/scheme-MTF Context",
     "8c886cd993767368c599c06c904940f80a2ccead"},
    {"balanced/s1/scheme-MTF Trans+Ctx",
     "bf33effb4a399a16d75c0880ebb68608fd348ab8"},
    {"balanced/s4/scheme-Simple",
     "aff35dddd467cb31431c650701a7ed761b030c5e"},
    {"balanced/s4/scheme-Basic",
     "ac1943a87e5771ad1128893710c2ef4b93414c3e"},
    {"balanced/s4/scheme-Freq",
     "dc6a0fd9051860c2091b0d689829f1a70deb9946"},
    {"balanced/s4/scheme-Cache",
     "20b590e05e55fbc7aa6afa018c0d6c6fb20c48cd"},
    {"balanced/s4/scheme-MTF Basic",
     "3889b7dbbc228ff8ccf1937d2f2b0c5608a4d4ab"},
    {"balanced/s4/scheme-MTF Transients",
     "e669a933514839b042d6b2684c4f17635e1e6c3e"},
    {"balanced/s4/scheme-MTF Context",
     "9d5e3ae13f6e8c67331d1bf67a00e19b8b500c17"},
    {"balanced/s4/scheme-MTF Trans+Ctx",
     "7cad34cc0afbd91947cf1252d73998b88b4e3dca"},
    // Version-3 indexed archives. These rows pin the v3 layout itself;
    // the rows above double as proof the v3 code path leaves v1/v2
    // byte-identical.
    {"balanced/s1/v3raw", "180936faf6d5b9160b1c22fe49b506f0216dbb69"},
    {"balanced/s1/v3z", "71a51645937cd4d941758f7d0fbb4daf5dcd5bce"},
    {"balanced/s4/v3raw", "acdbc96f64b3d2a5a630525da52e04a94e742414"},
    {"balanced/s4/v3z", "5b09db662d2af10607d008185fc8c278aec46a6f"},
    // Non-default compression backends. The s1 rows are zlib-free (a
    // version-1 archive has no dictionary frame), so they hold under
    // any zlib; the s4 rows deflate the dictionary and are pinned to
    // GoldenZlibVersions.
    {"balanced/s1/b-store", "8e2e977765132ab6626d7fd1d278444ee34e587d"},
    {"balanced/s1/b-huffman",
     "358f66e9215dc23689a47fe115bfcc16c04b9f2a"},
    {"balanced/s4/b-store", "03f11144bdf4f19fd423aad32f98845e192babc9"},
    {"balanced/s4/b-huffman",
     "6671f354536aad39321bdbf58e8ddb3b160d4084"},
    {"balanced/s1/b-arith", "c84f14cb07c2dffdaec5c1768351d5221161c3cf"},
    {"balanced/s4/b-arith", "a11157ec500bf79316d83ab431fe749b6eef44d7"},
};

/// Golden SHA-1 of each corpus's canonical (§12) form: the prepared
/// classes' writeClassFile bytes, concatenated in name order. Every
/// restore must reproduce it. No zlib output is involved, so the rows
/// hold under any zlib.
const std::map<std::string, std::string> CanonicalFormHashes = {
    {"balanced", "6cb3525cd04cc1c1d6e8505ef729c07836b08911"},
    {"numeric", "ff0d6ad4a885b4d8e54d87e93fa192a78ca0df9d"},
    {"stringheavy", "cd604ba4448322a211f58ca648b92817e3fd499a"},
};

const char *styleName(CodeStyle Style) {
  return Style == CodeStyle::Balanced  ? "balanced"
         : Style == CodeStyle::Numeric ? "numeric"
                                       : "stringheavy";
}

/// SHA-1 over \p Classes' bytes, concatenated in name order.
std::string classSetDigest(std::vector<NamedClass> Classes) {
  std::sort(Classes.begin(), Classes.end(),
            [](const NamedClass &A, const NamedClass &B) {
              return A.Name < B.Name;
            });
  std::vector<uint8_t> All;
  for (const NamedClass &C : Classes)
    All.insert(All.end(), C.Data.begin(), C.Data.end());
  return sha1Hex(All);
}

std::vector<NamedClass> corpusFor(CodeStyle Style) {
  CorpusSpec Spec;
  Spec.Name = "wirecompat";
  Spec.Seed = 1234;
  Spec.NumClasses = 48;
  Spec.NumPackages = 4;
  Spec.MeanMethods = 6;
  Spec.MeanStatements = 10;
  Spec.Code = Style;
  return generateCorpus(Spec);
}

/// Packs (Threads=2, like the recording run) and checks the archive
/// hash against the golden table, plus the stats sum identity.
/// \p HoldsDeflate says whether the archive holds zlib output, so that
/// its hash is pinned only under GoldenZlibVersions; unset, it follows
/// Options.CompressStreams (a zlib-free row holds under any zlib).
void expectGolden(const std::string &Key,
                  const std::vector<NamedClass> &Classes,
                  PackOptions Options,
                  std::optional<bool> HoldsDeflate = std::nullopt) {
  Options.Threads = 2;
  auto Packed = packClassBytes(Classes, Options);
  ASSERT_TRUE(static_cast<bool>(Packed)) << Key << ": "
                                         << Packed.message();

  // Composition identity: the wire-level walk must account for every
  // archive byte and agree with the encoder's own per-stream packing.
  auto Stats = statPackedArchive(Packed->Archive);
  ASSERT_TRUE(static_cast<bool>(Stats)) << Key << ": "
                                        << Stats.message();
  EXPECT_EQ(Stats->HeaderBytes + Stats->IndexBytes +
                Stats->DictionaryBytes + Stats->Sizes.totalPacked(),
            Packed->Archive.size())
      << Key;
  EXPECT_EQ(Stats->IndexBytes, Packed->IndexBytes) << Key;
  for (unsigned I = 0; I < NumStreams; ++I) {
    EXPECT_EQ(Stats->Sizes.Raw[I], Packed->Sizes.Raw[I])
        << Key << " raw " << streamName(static_cast<StreamId>(I));
    EXPECT_EQ(Stats->Sizes.Packed[I], Packed->Sizes.Packed[I])
        << Key << " packed " << streamName(static_cast<StreamId>(I));
  }

  if (HoldsDeflate.value_or(Options.CompressStreams) &&
      !GoldenZlibVersions.contains(zlibVersion()))
    GTEST_SKIP() << "golden verified under zlib 1.2.13 and 1.3.1, running "
                 << zlibVersion();
  auto It = GoldenHashes.find(Key);
  ASSERT_NE(It, GoldenHashes.end()) << "no golden hash for " << Key;
  EXPECT_EQ(sha1Hex(Packed->Archive), It->second)
      << Key << ": archive bytes changed — wire format break";
}

} // namespace

class WireCompatStyles
    : public ::testing::TestWithParam<std::tuple<CodeStyle, unsigned>> {};

TEST_P(WireCompatStyles, UncompressedArchiveMatchesGolden) {
  auto [Style, Shards] = GetParam();
  const char *Name = styleName(Style);
  PackOptions Raw;
  Raw.Shards = Shards;
  Raw.CompressStreams = false;
  expectGolden(std::string(Name) + "/s" + std::to_string(Shards) +
                   "/raw",
               corpusFor(Style), Raw);
}

TEST_P(WireCompatStyles, CompressedArchiveMatchesGolden) {
  auto [Style, Shards] = GetParam();
  const char *Name = styleName(Style);
  PackOptions Z;
  Z.Shards = Shards;
  expectGolden(std::string(Name) + "/s" + std::to_string(Shards) + "/z",
               corpusFor(Style), Z);
}

INSTANTIATE_TEST_SUITE_P(
    AllStyles, WireCompatStyles,
    ::testing::Combine(::testing::Values(CodeStyle::Balanced,
                                         CodeStyle::Numeric,
                                         CodeStyle::StringHeavy),
                       ::testing::Values(1u, 4u)));

// The restored bytes are the archive's contract: the prepared form of
// each corpus is pinned, and the raw v1 and v3 archives must restore
// exactly it. (Every round-trip test elsewhere compares a restore with
// prepareForPacking from the same build, which a change moving both
// would pass.)
TEST(WireCompat, RestoresPinnedCanonicalForm) {
  for (CodeStyle Style :
       {CodeStyle::Balanced, CodeStyle::Numeric, CodeStyle::StringHeavy}) {
    const char *Name = styleName(Style);
    auto Golden = CanonicalFormHashes.find(Name);
    ASSERT_NE(Golden, CanonicalFormHashes.end()) << Name;
    std::vector<NamedClass> Classes = corpusFor(Style);
    std::vector<NamedClass> Prepared;
    for (const NamedClass &C : Classes) {
      auto CF = parseClassFile(C.Data);
      ASSERT_TRUE(static_cast<bool>(CF)) << C.Name << ": " << CF.message();
      ASSERT_FALSE(static_cast<bool>(prepareForPacking(*CF))) << C.Name;
      Prepared.push_back({std::string(CF->thisClassName()) + ".class",
                          writeClassFile(*CF)});
    }
    EXPECT_EQ(classSetDigest(Prepared), Golden->second)
        << Name << ": prepared (canonical) form changed";

    for (bool Indexed : {false, true}) {
      PackOptions Raw;
      Raw.Shards = Indexed ? 4 : 1;
      Raw.CompressStreams = false;
      Raw.RandomAccessIndex = Indexed;
      Raw.Threads = 2;
      auto Packed = packClassBytes(Classes, Raw);
      ASSERT_TRUE(static_cast<bool>(Packed)) << Name << ": "
                                             << Packed.message();
      auto Restored = unpackArchive(Packed->Archive, 2);
      ASSERT_TRUE(static_cast<bool>(Restored))
          << Name << ": " << Restored.message();
      EXPECT_EQ(classSetDigest(*Restored), Golden->second)
          << Name << (Indexed ? " v3" : " v1")
          << ": restored bytes changed";
    }
  }
}

TEST(WireCompat, PreloadedArchives) {
  auto Classes = corpusFor(CodeStyle::Balanced);
  for (unsigned Shards : {1u, 4u}) {
    PackOptions Options;
    Options.Shards = Shards;
    Options.CompressStreams = false;
    Options.PreloadStandardRefs = true;
    expectGolden("balanced/s" + std::to_string(Shards) + "/preload",
                 Classes, Options);
  }
}

TEST(WireCompat, CollapseAndOrderingKnobs) {
  auto Classes = corpusFor(CodeStyle::Balanced);
  PackOptions NoCollapse;
  NoCollapse.CompressStreams = false;
  NoCollapse.CollapseOpcodes = false;
  expectGolden("balanced/s1/nocollapse", Classes, NoCollapse);
  PackOptions NoOrder;
  NoOrder.CompressStreams = false;
  NoOrder.OrderForEagerLoading = false;
  expectGolden("balanced/s1/noorder", Classes, NoOrder);
}

TEST(WireCompat, EveryReferenceScheme) {
  auto Classes = corpusFor(CodeStyle::Balanced);
  for (unsigned Shards : {1u, 4u}) {
    for (uint8_t S = 0;
         S <= static_cast<uint8_t>(RefScheme::MtfTransientsContext);
         ++S) {
      PackOptions Options;
      Options.Shards = Shards;
      Options.CompressStreams = false;
      Options.Scheme = static_cast<RefScheme>(S);
      expectGolden("balanced/s" + std::to_string(Shards) + "/scheme-" +
                       refSchemeName(Options.Scheme),
                   Classes, Options);
    }
  }
}

// The zlib-free v3 rows have their own test, so that a zlib outside
// GoldenZlibVersions skips only the v3z rows below.
TEST(WireCompat, IndexedRawArchives) {
  auto Classes = corpusFor(CodeStyle::Balanced);
  for (unsigned Shards : {1u, 4u}) {
    PackOptions Raw;
    Raw.Shards = Shards;
    Raw.CompressStreams = false;
    Raw.RandomAccessIndex = true;
    expectGolden("balanced/s" + std::to_string(Shards) + "/v3raw",
                 Classes, Raw);
  }
}

TEST(WireCompat, IndexedArchives) {
  auto Classes = corpusFor(CodeStyle::Balanced);
  for (unsigned Shards : {1u, 4u}) {
    PackOptions Z;
    Z.Shards = Shards;
    Z.RandomAccessIndex = true;
    expectGolden("balanced/s" + std::to_string(Shards) + "/v3z", Classes,
                 Z);
  }
}

// The pluggable backends pin their own wire bytes: the per-stream
// method bytes, the header backend code, and the codec output itself.
// (The zlib rows above pin the default pipeline and its per-stream
// deflate settings.)
TEST(WireCompat, BackendArchives) {
  auto Classes = corpusFor(CodeStyle::Balanced);
  for (unsigned Shards : {1u, 4u}) {
    for (BackendId Backend :
         {BackendId::Store, BackendId::Huffman, BackendId::Arith}) {
      PackOptions Options;
      Options.Shards = Shards;
      Options.Backend = Backend;
      expectGolden("balanced/s" + std::to_string(Shards) + "/b-" +
                       backendName(Backend),
                   Classes, Options, Shards != 1);
    }
  }
}

namespace {

/// The compression units of each stream of an uncompressed archive, as
/// its container compresses them: one per stream in versions 1 and 2
/// (v2 joins the shards' bytes), one per shard blob in version 3.
std::vector<std::vector<std::vector<uint8_t>>>
compressionUnits(const std::vector<uint8_t> &Archive) {
  ByteReader R(Archive);
  auto H = readArchiveHeader(R);
  EXPECT_TRUE(static_cast<bool>(H)) << H.message();
  if (!H)
    return {};
  std::vector<StreamSet> Sets;
  bool Joined = H->Version == FormatVersionSharded;
  if (Joined) {
    EXPECT_TRUE(static_cast<bool>(SharedDictionary::deserialize(R)));
    auto Shards = deserializeShardedStreams(R);
    EXPECT_TRUE(static_cast<bool>(Shards)) << Shards.message();
    if (Shards)
      Sets = std::move(*Shards);
  } else {
    std::vector<std::span<const uint8_t>> Blobs;
    if (H->Version == FormatVersionIndexed) {
      auto F = readIndexedFrames(R, DecodeLimits());
      EXPECT_TRUE(static_cast<bool>(F)) << F.message();
      for (size_t K = 0; F && K < F->Index.Shards.size(); ++K)
        Blobs.push_back(F->blob(Archive, K));
    } else {
      Blobs.push_back(R.readSpan(R.remaining()));
    }
    for (std::span<const uint8_t> Blob : Blobs) {
      ByteReader BR(Blob);
      EXPECT_FALSE(static_cast<bool>(Sets.emplace_back().deserialize(BR)));
    }
  }
  std::vector<std::vector<std::vector<uint8_t>>> Units(NumStreams);
  for (unsigned I = 0; I < NumStreams; ++I) {
    for (StreamSet &S : Sets) {
      ByteReader &In = S.in(static_cast<StreamId>(I));
      std::span<const uint8_t> Bytes = In.readSpan(In.remaining());
      if (!Joined || Units[I].empty())
        Units[I].emplace_back();
      Units[I].back().insert(Units[I].back().end(), Bytes.begin(),
                             Bytes.end());
    }
  }
  return Units;
}

/// A stream unit's archive cost: its stored bytes plus the varint that
/// declares their length (the rest of a directory entry does not
/// depend on how the unit is compressed).
size_t storedCost(const std::vector<uint8_t> &Raw,
                  const std::vector<uint8_t> &Compressed) {
  size_t Stored = !Raw.empty() && Compressed.size() < Raw.size()
                      ? Compressed.size()
                      : Raw.size();
  ByteWriter Len;
  writeVarUInt(Len, Stored);
  return Stored + Len.size();
}

} // namespace

// The deflate settings (deflateSetting) must never trade bytes
// silently: on every corpus style and container, for the default scheme
// and the id-coded ones, each reference stream and StringLengths stores
// no more than level-9 deflate would, and the archive's streams total no
// more than the same raw streams deflated uniformly at level 9.
// (LongConsts trades a few bytes for most of its deflate time, so only
// the total bounds it.)
TEST(WireCompat, DeflateSettingsNeverCostBytes) {
  for (CodeStyle Style :
       {CodeStyle::Balanced, CodeStyle::Numeric, CodeStyle::StringHeavy}) {
    auto Classes = corpusFor(Style);
    for (RefScheme Scheme : {RefScheme::MtfTransientsContext,
                             RefScheme::Simple, RefScheme::Basic,
                             RefScheme::Freq}) {
      for (unsigned Shards : {1u, 4u}) {
        for (bool Indexed : {false, true}) {
          std::string Key = std::string(styleName(Style)) + "/" +
                            refSchemeName(Scheme) + "/s" +
                            std::to_string(Shards) + (Indexed ? "/v3" : "");
          PackOptions Options;
          Options.Shards = Shards;
          Options.Threads = 2;
          Options.RandomAccessIndex = Indexed;
          Options.Scheme = Scheme;
          auto Default = packClassBytes(Classes, Options);
          Options.CompressStreams = false;
          auto Raw = packClassBytes(Classes, Options);
          ASSERT_TRUE(Default && Raw) << Key;
          auto Units = compressionUnits(Raw->Archive);

          const CompressionBackend &Zlib = *findBackend(
              static_cast<uint8_t>(BackendId::Zlib));
          size_t PlanTotal = 0, Level9Total = 0;
          for (unsigned I = 0; I < NumStreams; ++I) {
            StreamId Id = static_cast<StreamId>(I);
            // A stream's packed size in the uncompressed archive, with
            // each unit's stored cost swapped for its cost under the plan
            // (Compress, the archive's own path) and under level 9.
            size_t Plan = Raw->Sizes.Packed[I];
            size_t Level9 = Raw->Sizes.Packed[I];
            for (const std::vector<uint8_t> &Unit : Units[I]) {
              Plan += storedCost(Unit, Zlib.Compress(Unit, Id, Scheme));
              Level9 += storedCost(Unit, deflateBytes(Unit));
              Plan -= storedCost(Unit, Unit);
              Level9 -= storedCost(Unit, Unit);
            }
            // The swap reproduces the default archive exactly, so the
            // bounds below are about the archive pack writes.
            EXPECT_EQ(Plan, Default->Sizes.Packed[I])
                << Key << " " << streamName(Id);
            if ((streamCategory(Id) == StreamCategory::Refs &&
                 Id != StreamId::SimpleNameRefs) ||
                Id == StreamId::StringLengths) {
              EXPECT_LE(Plan, Level9) << Key << " " << streamName(Id);
            }
            PlanTotal += Plan;
            Level9Total += Level9;
          }
          EXPECT_EQ(PlanTotal, Default->Sizes.totalPacked()) << Key;
          EXPECT_LE(PlanTotal, Level9Total) << Key;
        }
      }
    }
  }
}

// Each decoder must accept exactly the versions it claims and reject
// the rest with a typed VersionMismatch — never a crash, never a decode
// of bytes laid out for a different version. unpackClasses claims all
// three; the lazy reader only the indexed one.
TEST(WireCompat, CrossVersionDecodeMatrix) {
  auto Classes = corpusFor(CodeStyle::Balanced);
  PackOptions V1;
  V1.Shards = 1;
  PackOptions V2;
  V2.Shards = 4;
  V2.Threads = 2;
  PackOptions V3 = V2;
  V3.RandomAccessIndex = true;
  auto P1 = packClassBytes(Classes, V1);
  auto P2 = packClassBytes(Classes, V2);
  auto P3 = packClassBytes(Classes, V3);
  ASSERT_TRUE(P1 && P2 && P3);
  ASSERT_EQ(P1->Archive[4], FormatVersionSerial);
  ASSERT_EQ(P2->Archive[4], FormatVersionSharded);
  ASSERT_EQ(P3->Archive[4], FormatVersionIndexed);

  // The lazy reader handles v3, rejects v1/v2.
  EXPECT_TRUE(static_cast<bool>(PackedArchiveReader::open(P3->Archive)));
  for (const auto *P : {&P1, &P2}) {
    auto Reject = PackedArchiveReader::open((*P)->Archive);
    ASSERT_FALSE(static_cast<bool>(Reject));
    EXPECT_EQ(Reject.code(), ErrorCode::VersionMismatch);
  }

  // An unknown future version is VersionMismatch everywhere.
  std::vector<uint8_t> Future = P1->Archive;
  Future[4] = 99;
  auto U = unpackClasses(Future);
  ASSERT_FALSE(static_cast<bool>(U));
  EXPECT_EQ(U.code(), ErrorCode::VersionMismatch);
  auto R = PackedArchiveReader::open(Future);
  ASSERT_FALSE(static_cast<bool>(R));
  EXPECT_EQ(R.code(), ErrorCode::VersionMismatch);
  auto S = statPackedArchive(Future);
  ASSERT_FALSE(static_cast<bool>(S));
  EXPECT_EQ(S.code(), ErrorCode::VersionMismatch);

  // Stats reads all three real versions.
  for (const auto *P : {&P1, &P2, &P3})
    EXPECT_TRUE(static_cast<bool>(statPackedArchive((*P)->Archive)));

  // The whole-archive decoder takes all three versions and decodes
  // them to the identical classfiles, the lazy reader's included.
  auto C1 = unpackClasses(P1->Archive);
  auto C2 = unpackClasses(P2->Archive, 2u);
  auto C3 = unpackClasses(P3->Archive);
  auto Rd = PackedArchiveReader::open(P3->Archive);
  ASSERT_TRUE(C1 && C2 && C3 && Rd);
  auto Lazy = Rd->unpackAll();
  ASSERT_TRUE(static_cast<bool>(Lazy));
  ASSERT_EQ(C1->size(), Classes.size());
  ASSERT_EQ(C2->size(), Classes.size());
  ASSERT_EQ(C3->size(), Classes.size());
  ASSERT_EQ(Lazy->size(), Classes.size());
  for (size_t I = 0; I < C1->size(); ++I) {
    EXPECT_EQ(writeClassFile((*C1)[I]), writeClassFile((*C2)[I])) << I;
    EXPECT_EQ(writeClassFile((*C2)[I]), writeClassFile((*C3)[I])) << I;
    EXPECT_EQ(writeClassFile((*C3)[I]), writeClassFile((*Lazy)[I])) << I;
  }
}

// A header cut short is Truncated from every decode surface, whatever
// its version: the shared header reader checks length before anything
// the missing bytes would hold.
TEST(WireCompat, ShortHeaderIsTruncatedEverywhere) {
  auto Classes = corpusFor(CodeStyle::Balanced);
  for (unsigned Version = 1; Version <= 3; ++Version) {
    PackOptions Options;
    Options.Shards = Version == 1 ? 1 : 2;
    Options.RandomAccessIndex = Version == 3;
    auto Packed = packClassBytes(Classes, Options);
    ASSERT_TRUE(static_cast<bool>(Packed)) << Packed.message();
    ASSERT_EQ(Packed->Archive[4], Version);
    for (size_t Len = 0; Len < 7; ++Len) {
      std::vector<uint8_t> Short(Packed->Archive.begin(),
                                 Packed->Archive.begin() +
                                     static_cast<ptrdiff_t>(Len));
      auto U = unpackClasses(Short);
      ASSERT_FALSE(static_cast<bool>(U)) << "v" << Version << " " << Len;
      EXPECT_EQ(U.code(), ErrorCode::Truncated)
          << "v" << Version << " " << Len << ": " << U.message();
      auto R = PackedArchiveReader::open(Short);
      ASSERT_FALSE(static_cast<bool>(R)) << "v" << Version << " " << Len;
      EXPECT_EQ(R.code(), ErrorCode::Truncated)
          << "v" << Version << " " << Len << ": " << R.message();
      auto S = statPackedArchive(Short);
      ASSERT_FALSE(static_cast<bool>(S)) << "v" << Version << " " << Len;
      EXPECT_EQ(S.code(), ErrorCode::Truncated)
          << "v" << Version << " " << Len << ": " << S.message();
    }
  }
}

TEST(WireCompat, StatsRejectsMalformedFraming) {
  auto Classes = corpusFor(CodeStyle::Balanced);
  PackOptions Options;
  Options.Shards = 4;
  auto Packed = packClassBytes(Classes, Options);
  ASSERT_TRUE(static_cast<bool>(Packed)) << Packed.message();

  std::vector<uint8_t> Bad = Packed->Archive;
  Bad[0] ^= 0xFF; // magic
  EXPECT_FALSE(static_cast<bool>(statPackedArchive(Bad)));

  Bad = Packed->Archive;
  Bad[4] = 99; // version
  EXPECT_FALSE(static_cast<bool>(statPackedArchive(Bad)));

  Bad = Packed->Archive;
  Bad.resize(Bad.size() / 2); // truncation
  EXPECT_FALSE(static_cast<bool>(statPackedArchive(Bad)));

  Bad = Packed->Archive;
  Bad.push_back(0); // trailing garbage breaks the sum identity
  EXPECT_FALSE(static_cast<bool>(statPackedArchive(Bad)));
}
