//===- test_pack.cpp - packed archive end-to-end tests --------------------===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The central invariant (§12): decompression is deterministic and
// reproduces the prepared (canonical) classfiles exactly, byte for byte.
//
//===----------------------------------------------------------------------===//

#include "bytecode/Instruction.h"
#include "classfile/Reader.h"
#include "classfile/Writer.h"
#include "corpus/Corpus.h"
#include "jazz/Jazz.h"
#include "pack/ClassOrder.h"
#include "pack/Packer.h"
#include "corpus/Rng.h"
#include "zip/Jar.h"
#include <gtest/gtest.h>
#include <map>

using namespace cjpack;

namespace {

CorpusSpec testSpec(uint64_t Seed, CodeStyle Style = CodeStyle::Balanced,
                    unsigned NumClasses = 30) {
  CorpusSpec S;
  S.Name = "packtest";
  S.Seed = Seed;
  S.NumClasses = NumClasses;
  S.NumPackages = 3;
  S.MeanMethods = 6;
  S.MeanStatements = 10;
  S.Code = Style;
  return S;
}

/// Prepared classfiles of the spec, in eager-load order (the order the
/// packer will emit them), keyed by class name for comparison.
std::map<std::string, std::vector<uint8_t>>
preparedBytes(const std::vector<ClassFile> &Classes) {
  std::map<std::string, std::vector<uint8_t>> Out;
  for (const ClassFile &CF : Classes)
    Out[std::string(CF.thisClassName())] = writeClassFile(CF);
  return Out;
}

void expectRoundTrip(const PackOptions &Options, uint64_t Seed,
                     CodeStyle Style = CodeStyle::Balanced,
                     unsigned NumClasses = 30) {
  std::vector<ClassFile> Classes =
      generateCorpusClasses(testSpec(Seed, Style, NumClasses));
  for (ClassFile &CF : Classes)
    ASSERT_FALSE(static_cast<bool>(prepareForPacking(CF)));
  auto Want = preparedBytes(Classes);

  auto Packed = packClasses(Classes, Options);
  ASSERT_TRUE(static_cast<bool>(Packed)) << Packed.message();
  auto Unpacked = unpackClasses(Packed->Archive);
  ASSERT_TRUE(static_cast<bool>(Unpacked)) << Unpacked.message();
  ASSERT_EQ(Unpacked->size(), Classes.size());

  for (const ClassFile &CF : *Unpacked) {
    auto It = Want.find(std::string(CF.thisClassName()));
    ASSERT_NE(It, Want.end()) << CF.thisClassName();
    EXPECT_EQ(writeClassFile(CF), It->second)
        << "byte mismatch for " << CF.thisClassName();
  }
}

} // namespace

TEST(PackRoundTrip, DefaultOptions) {
  expectRoundTrip(PackOptions(), 1001);
}

TEST(PackRoundTrip, NumericCorpus) {
  expectRoundTrip(PackOptions(), 1002, CodeStyle::Numeric);
}

TEST(PackRoundTrip, StringHeavyCorpus) {
  expectRoundTrip(PackOptions(), 1003, CodeStyle::StringHeavy);
}

TEST(PackRoundTrip, NoCollapse) {
  PackOptions O;
  O.CollapseOpcodes = false;
  expectRoundTrip(O, 1004);
}

TEST(PackRoundTrip, NoCompression) {
  PackOptions O;
  O.CompressStreams = false;
  expectRoundTrip(O, 1005);
}

TEST(PackRoundTrip, NoEagerOrdering) {
  PackOptions O;
  O.OrderForEagerLoading = false;
  expectRoundTrip(O, 1006);
}

class PackSchemeTest : public ::testing::TestWithParam<RefScheme> {};

TEST_P(PackSchemeTest, RoundTripsUnderEveryScheme) {
  PackOptions O;
  O.Scheme = GetParam();
  expectRoundTrip(O, 1100 + static_cast<uint64_t>(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, PackSchemeTest,
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

TEST(PackRoundTrip, SingleClass) {
  expectRoundTrip(PackOptions(), 1200, CodeStyle::Balanced, 2);
}

// §9 holds on the restored class whenever it held on the packed one:
// 150 ldc ints and 60 ldc strings take 210 canonical slots, although
// they would overflow index 255 if each string's Utf8 entry sat beside
// it.
TEST(PackRoundTrip, ManyLdcConstantsRestore) {
  ClassFile CF;
  CF.AccessFlags = AccPublic | AccSuper;
  std::vector<uint16_t> Loaded;
  for (int32_t K = 0; K < 150; ++K)
    Loaded.push_back(CF.CP.addInteger(100000 + K));
  std::vector<uint16_t> Strings;
  for (int K = 0; K < 60; ++K) {
    CpEntry S;
    S.Tag = CpTag::String;
    Strings.push_back(CF.CP.appendRaw(S));
  }
  for (int K = 0; K < 60; ++K)
    CF.CP.entry(Strings[K]).Ref1 = CF.CP.addUtf8("s" + std::to_string(K));
  Loaded.insert(Loaded.end(), Strings.begin(), Strings.end());
  CF.CP.invalidateIndex();
  CF.ThisClass = CF.CP.addClass("pkg/Constants");
  CF.SuperClass = CF.CP.addClass("java/lang/Object");

  ByteWriter W;
  for (uint16_t Index : Loaded) {
    ASSERT_LE(Index, 0xFF);
    W.writeU1(static_cast<uint8_t>(Op::Ldc));
    W.writeU1(static_cast<uint8_t>(Index));
    W.writeU1(static_cast<uint8_t>(Op::Pop));
  }
  W.writeU1(static_cast<uint8_t>(Op::Return));
  CodeAttribute Code;
  Code.MaxStack = 1;
  Code.MaxLocals = 0;
  Code.Code = CF.arena().copy(W.data());
  MemberInfo Load;
  Load.AccessFlags = AccPublic | AccStatic;
  Load.NameIndex = CF.CP.addUtf8("load");
  Load.DescriptorIndex = CF.CP.addUtf8("()V");
  Load.Attributes.push_back(encodeCodeAttribute(Code, CF.CP));
  CF.Methods.push_back(std::move(Load));
  ASSERT_FALSE(static_cast<bool>(prepareForPacking(CF)));

  auto Packed = packClasses({CF}, PackOptions());
  ASSERT_TRUE(static_cast<bool>(Packed)) << Packed.message();
  auto Unpacked = unpackClasses(Packed->Archive);
  ASSERT_TRUE(static_cast<bool>(Unpacked)) << Unpacked.message();
  ASSERT_EQ(Unpacked->size(), 1u);
  EXPECT_EQ(writeClassFile(Unpacked->front()), writeClassFile(CF));
}

TEST(PackRoundTrip, DecompressionIsDeterministic) {
  std::vector<ClassFile> Classes = generateCorpusClasses(testSpec(1300));
  for (ClassFile &CF : Classes)
    ASSERT_FALSE(static_cast<bool>(prepareForPacking(CF)));
  auto Packed = packClasses(Classes, PackOptions());
  ASSERT_TRUE(static_cast<bool>(Packed));
  auto A = unpackArchive(Packed->Archive);
  auto B = unpackArchive(Packed->Archive);
  ASSERT_TRUE(static_cast<bool>(A));
  ASSERT_TRUE(static_cast<bool>(B));
  ASSERT_EQ(A->size(), B->size());
  for (size_t I = 0; I < A->size(); ++I) {
    EXPECT_EQ((*A)[I].Name, (*B)[I].Name);
    EXPECT_EQ((*A)[I].Data, (*B)[I].Data);
  }
}

TEST(PackRoundTrip, PackedIdempotence) {
  // Packing the unpacked classes again yields the identical archive —
  // the property that makes sign-after-decompress (§12) workable.
  std::vector<ClassFile> Classes = generateCorpusClasses(testSpec(1301));
  for (ClassFile &CF : Classes)
    ASSERT_FALSE(static_cast<bool>(prepareForPacking(CF)));
  auto P1 = packClasses(Classes, PackOptions());
  ASSERT_TRUE(static_cast<bool>(P1));
  auto U1 = unpackClasses(P1->Archive);
  ASSERT_TRUE(static_cast<bool>(U1));
  auto P2 = packClasses(*U1, PackOptions());
  ASSERT_TRUE(static_cast<bool>(P2));
  EXPECT_EQ(P1->Archive, P2->Archive);
}

TEST(PackFromBytes, ParsesPreparesAndPacks) {
  std::vector<NamedClass> Raw = generateCorpus(testSpec(1400));
  auto Packed = packClassBytes(Raw, PackOptions());
  ASSERT_TRUE(static_cast<bool>(Packed)) << Packed.message();
  EXPECT_EQ(Packed->ClassCount, Raw.size());
  auto Unpacked = unpackArchive(Packed->Archive);
  ASSERT_TRUE(static_cast<bool>(Unpacked)) << Unpacked.message();
  EXPECT_EQ(Unpacked->size(), Raw.size());
  for (const NamedClass &C : *Unpacked) {
    auto CF = parseClassFile(C.Data);
    ASSERT_TRUE(static_cast<bool>(CF)) << CF.message();
  }
}

// A class that does not parse fails the pack with its parse error's
// code, named for the class.
TEST(PackFromBytes, KeepsTheParseErrorCode) {
  std::vector<NamedClass> Raw = generateCorpus(testSpec(1401));
  Raw[1].Data.resize(Raw[1].Data.size() / 2);
  auto Packed = packClassBytes(Raw, PackOptions());
  ASSERT_FALSE(static_cast<bool>(Packed));
  EXPECT_EQ(Packed.message().rfind(Raw[1].Name + ": ", 0), 0u)
      << Packed.message();
  EXPECT_NE(Packed.code(), ErrorCode::Other) << Packed.message();
}

TEST(PackCompression, BeatsJarAndJ0rGz) {
  // The headline claim: packed < j0r.gz < jar on realistic corpora.
  std::vector<NamedClass> Raw =
      generateCorpus(testSpec(1500, CodeStyle::Balanced, 120));
  std::vector<ClassFile> Prepared;
  for (const NamedClass &C : Raw) {
    auto CF = parseClassFile(C.Data);
    ASSERT_TRUE(static_cast<bool>(CF));
    ASSERT_FALSE(static_cast<bool>(prepareForPacking(*CF)));
    Prepared.push_back(std::move(*CF));
  }
  std::vector<NamedClass> Stripped;
  for (const ClassFile &CF : Prepared)
    Stripped.push_back(
        {std::string(CF.thisClassName()) + ".class", writeClassFile(CF)});

  size_t Jar = buildJar(Stripped).size();
  size_t J0rGz = buildJ0rGz(Stripped).size();
  auto Packed = packClasses(Prepared, PackOptions());
  ASSERT_TRUE(static_cast<bool>(Packed));
  size_t Pack = Packed->Archive.size();

  EXPECT_LT(J0rGz, Jar);
  EXPECT_LT(Pack, J0rGz);
  // Factor of ~2+ over jar on this corpus (paper reports 2-5x).
  EXPECT_LT(Pack * 2, Jar);
}

TEST(PackStats, StreamSizesAddUp) {
  std::vector<ClassFile> Classes = generateCorpusClasses(testSpec(1600));
  for (ClassFile &CF : Classes)
    ASSERT_FALSE(static_cast<bool>(prepareForPacking(CF)));
  auto Packed = packClasses(Classes, PackOptions());
  ASSERT_TRUE(static_cast<bool>(Packed));
  size_t Sum = Packed->Sizes.totalPacked();
  // Archive = 7-byte header + streams.
  EXPECT_EQ(Packed->Archive.size(), Sum + 7);
  // Every category is represented on a balanced corpus.
  EXPECT_GT(Packed->Sizes.packedOf(StreamCategory::Strings), 0u);
  EXPECT_GT(Packed->Sizes.packedOf(StreamCategory::Opcodes), 0u);
  EXPECT_GT(Packed->Sizes.packedOf(StreamCategory::Refs), 0u);
  EXPECT_GT(Packed->Sizes.packedOf(StreamCategory::Ints), 0u);
  EXPECT_GT(Packed->Sizes.packedOf(StreamCategory::Misc), 0u);
}

TEST(PackErrors, RejectsCorruptArchive) {
  std::vector<ClassFile> Classes =
      generateCorpusClasses(testSpec(1700, CodeStyle::Balanced, 5));
  for (ClassFile &CF : Classes)
    ASSERT_FALSE(static_cast<bool>(prepareForPacking(CF)));
  auto Packed = packClasses(Classes, PackOptions());
  ASSERT_TRUE(static_cast<bool>(Packed));
  auto Bad = Packed->Archive;
  Bad[0] ^= 0xFF;
  EXPECT_FALSE(static_cast<bool>(unpackArchive(Bad)));
  auto Short = Packed->Archive;
  Short.resize(Short.size() / 2);
  EXPECT_FALSE(static_cast<bool>(unpackArchive(Short)));
}

// ldc and ldc_w load one-slot constants, ldc2_w two-slot ones. Any
// other pairing is Corrupt where the operand is read; packed, it would
// desynchronize the decoder from the encoder.
TEST(PackErrors, LdcMustMatchItsConstantWidth) {
  for (auto [Opcode, Wide] :
       {std::pair{Op::Ldc, true}, std::pair{Op::LdcW, true},
        std::pair{Op::Ldc2W, false}}) {
    ClassFile CF;
    uint16_t Constant =
        Wide ? CF.CP.addLong(1234567890123) : CF.CP.addInteger(70000);
    CF.ThisClass = CF.CP.addClass("pkg/Load");
    CF.SuperClass = CF.CP.addClass("java/lang/Object");
    ByteWriter W;
    W.writeU1(static_cast<uint8_t>(Opcode));
    if (Opcode == Op::Ldc)
      W.writeU1(static_cast<uint8_t>(Constant));
    else
      W.writeU2(Constant);
    W.writeU1(static_cast<uint8_t>(Wide ? Op::Pop2 : Op::Pop));
    W.writeU1(static_cast<uint8_t>(Op::Return));
    CodeAttribute Code;
    Code.MaxStack = 2;
    Code.Code = CF.arena().copy(W.data());
    MemberInfo Load;
    Load.AccessFlags = AccPublic | AccStatic;
    Load.NameIndex = CF.CP.addUtf8("load");
    Load.DescriptorIndex = CF.CP.addUtf8("()V");
    Load.Attributes.push_back(encodeCodeAttribute(Code, CF.CP));
    CF.Methods.push_back(std::move(Load));

    auto Packed = packClasses({CF}, PackOptions());
    ASSERT_FALSE(static_cast<bool>(Packed)) << opInfo(Opcode).Mnemonic;
    EXPECT_EQ(Packed.code(), ErrorCode::Corrupt) << Packed.message();
    Error E = prepareForPacking(CF);
    ASSERT_TRUE(static_cast<bool>(E)) << opInfo(Opcode).Mnemonic;
    EXPECT_EQ(E.code(), ErrorCode::Corrupt) << E.message();
  }
}

// The wire carries only what the format keeps, so raw parsed classes
// (debug and unknown attributes, pool order and all) pack to the same
// archive as their prepared forms.
TEST(PackRoundTrip, RawAndPreparedClassesPackAlike) {
  std::vector<ClassFile> Raw = generateCorpusClasses(testSpec(1800));
  static constexpr uint8_t MysteryBytes[] = {0, 0};
  Raw[0].Attributes.push_back({"MysteryAttr", MysteryBytes});
  std::vector<ClassFile> Prepared = Raw;
  for (ClassFile &CF : Prepared)
    ASSERT_FALSE(static_cast<bool>(prepareForPacking(CF)));
  PackOptions Indexed;
  Indexed.Shards = 3;
  Indexed.RandomAccessIndex = true;
  for (const PackOptions &O : {PackOptions(), Indexed}) {
    auto FromRaw = packClasses(Raw, O);
    auto FromPrepared = packClasses(Prepared, O);
    ASSERT_TRUE(static_cast<bool>(FromRaw)) << FromRaw.message();
    ASSERT_TRUE(static_cast<bool>(FromPrepared)) << FromPrepared.message();
    EXPECT_EQ(FromRaw->Archive, FromPrepared->Archive);
  }
}

// Shapes on which a pool-only canonicalizer and the materializer once
// disagreed (a duplicate Utf8, attributes out of the written order, a
// repeated marker): each restores to its prepared form byte for byte,
// and a StripUnreferenced pack passes its own restore gate.
TEST(PackRoundTrip, NonCanonicalShapesRestoreTheirPreparedForm) {
  CorpusSpec Spec = testSpec(1850, CodeStyle::Balanced, 1);
  Spec.PctInterfaces = 0;
  NamedClass Base = generateCorpus(Spec)[0];
  std::vector<NamedClass> Shapes = nonCanonicalShapes(Base);
  ASSERT_EQ(Shapes.size(), 4u);
  for (const NamedClass &Shape : Shapes) {
    auto CF = parseClassFile(Shape.Data);
    ASSERT_TRUE(static_cast<bool>(CF)) << Shape.Name << ": " << CF.message();
    ASSERT_FALSE(static_cast<bool>(prepareForPacking(*CF))) << Shape.Name;
    std::vector<NamedClass> Input{{Base.Name, Shape.Data}};
    auto Packed = packClassBytes(Input, PackOptions());
    ASSERT_TRUE(static_cast<bool>(Packed)) << Shape.Name;
    auto Restored = unpackClasses(Packed->Archive);
    ASSERT_TRUE(static_cast<bool>(Restored)) << Shape.Name;
    ASSERT_EQ(Restored->size(), 1u);
    EXPECT_EQ(writeClassFile(Restored->front()), writeClassFile(*CF))
        << Shape.Name;
    PackOptions Strip;
    Strip.StripUnreferenced = true;
    auto Stripped = packClassBytes(Input, Strip);
    EXPECT_TRUE(static_cast<bool>(Stripped))
        << Shape.Name << ": " << Stripped.message();
  }
}

TEST(PackOrdering, ArchiveIsEagerLoadable) {
  std::vector<ClassFile> Classes = generateCorpusClasses(testSpec(1900));
  std::reverse(Classes.begin(), Classes.end());
  for (ClassFile &CF : Classes)
    ASSERT_FALSE(static_cast<bool>(prepareForPacking(CF)));
  auto Packed = packClasses(Classes, PackOptions());
  ASSERT_TRUE(static_cast<bool>(Packed));
  auto Unpacked = unpackClasses(Packed->Archive);
  ASSERT_TRUE(static_cast<bool>(Unpacked));
  EXPECT_TRUE(isEagerLoadable(*Unpacked))
      << "archive order must allow defineClass-as-bytes-arrive (§11)";
}

TEST(Jazz, RoundTripsAndLandsBetweenBaselines) {
  std::vector<NamedClass> Raw =
      generateCorpus(testSpec(2000, CodeStyle::Balanced, 80));
  std::vector<ClassFile> Prepared;
  for (const NamedClass &C : Raw) {
    auto CF = parseClassFile(C.Data);
    ASSERT_TRUE(static_cast<bool>(CF));
    ASSERT_FALSE(static_cast<bool>(prepareForPacking(*CF)));
    Prepared.push_back(std::move(*CF));
  }
  auto Want = preparedBytes(Prepared);

  auto Jazz = jazzPack(Prepared);
  ASSERT_TRUE(static_cast<bool>(Jazz)) << Jazz.message();
  auto Back = jazzUnpack(*Jazz);
  ASSERT_TRUE(static_cast<bool>(Back)) << Back.message();
  ASSERT_EQ(Back->size(), Prepared.size());
  for (const ClassFile &CF : *Back)
    EXPECT_EQ(writeClassFile(CF), Want[std::string(CF.thisClassName())])
        << CF.thisClassName();

  // Size ordering on a realistic corpus: Packed < Jazz < jar.
  std::vector<NamedClass> Stripped;
  for (const ClassFile &CF : Prepared)
    Stripped.push_back(
        {std::string(CF.thisClassName()) + ".class", writeClassFile(CF)});
  auto Packed = packClasses(Prepared, PackOptions());
  ASSERT_TRUE(static_cast<bool>(Packed));
  EXPECT_LT(Packed->Archive.size(), Jazz->size());
  EXPECT_LT(Jazz->size(), buildJar(Stripped).size());
}

TEST(PackPreload, RoundTripsWithStandardRefs) {
  PackOptions O;
  O.PreloadStandardRefs = true;
  expectRoundTrip(O, 2100);
}

TEST(PackPreload, ShrinksSmallArchives) {
  // §14: preloading helps most when the archive is small relative to
  // the standard-library references it makes.
  std::vector<ClassFile> Classes =
      generateCorpusClasses(testSpec(2101, CodeStyle::Balanced, 4));
  for (ClassFile &CF : Classes)
    ASSERT_FALSE(static_cast<bool>(prepareForPacking(CF)));
  auto Plain = packClasses(Classes, PackOptions());
  PackOptions O;
  O.PreloadStandardRefs = true;
  auto Pre = packClasses(Classes, O);
  ASSERT_TRUE(static_cast<bool>(Plain));
  ASSERT_TRUE(static_cast<bool>(Pre));
  EXPECT_LT(Pre->Archive.size(), Plain->Archive.size());
}

TEST(PackPreload, RejectedForStatsSchemes) {
  std::vector<ClassFile> Classes =
      generateCorpusClasses(testSpec(2102, CodeStyle::Balanced, 3));
  for (ClassFile &CF : Classes)
    ASSERT_FALSE(static_cast<bool>(prepareForPacking(CF)));
  for (RefScheme S : {RefScheme::Freq, RefScheme::Cache}) {
    PackOptions O;
    O.Scheme = S;
    O.PreloadStandardRefs = true;
    auto P = packClasses(Classes, O);
    EXPECT_FALSE(static_cast<bool>(P)) << refSchemeName(S);
  }
}

TEST(PackPreload, WorksWithEveryNonStatsScheme) {
  for (RefScheme S : {RefScheme::Simple, RefScheme::Basic,
                      RefScheme::MtfBasic, RefScheme::MtfContext}) {
    PackOptions O;
    O.Scheme = S;
    O.PreloadStandardRefs = true;
    expectRoundTrip(O, 2103, CodeStyle::Balanced, 10);
  }
}

TEST(PackFuzz, ByteFlipsNeverCrash) {
  // Corruption sweep: flipping any single byte of the archive must
  // yield either a decode error or a structurally valid (if wrong)
  // result — never a crash or hang.
  std::vector<ClassFile> Classes =
      generateCorpusClasses(testSpec(2200, CodeStyle::Balanced, 8));
  for (ClassFile &CF : Classes)
    ASSERT_FALSE(static_cast<bool>(prepareForPacking(CF)));
  auto Packed = packClasses(Classes, PackOptions());
  ASSERT_TRUE(static_cast<bool>(Packed));
  const std::vector<uint8_t> &Good = Packed->Archive;
  size_t Step = std::max<size_t>(1, Good.size() / 300);
  size_t Errors = 0, Survived = 0;
  for (size_t At = 0; At < Good.size(); At += Step) {
    std::vector<uint8_t> Bad = Good;
    Bad[At] ^= 0x41;
    auto U = unpackClasses(Bad);
    if (U)
      ++Survived;
    else
      ++Errors;
  }
  // Most flips must be detected (deflate checksums, structural checks).
  EXPECT_GT(Errors, Survived);
}

TEST(PackFuzz, TruncationsNeverCrash) {
  std::vector<ClassFile> Classes =
      generateCorpusClasses(testSpec(2201, CodeStyle::Balanced, 6));
  for (ClassFile &CF : Classes)
    ASSERT_FALSE(static_cast<bool>(prepareForPacking(CF)));
  auto Packed = packClasses(Classes, PackOptions());
  ASSERT_TRUE(static_cast<bool>(Packed));
  const std::vector<uint8_t> &Good = Packed->Archive;
  for (size_t Len = 0; Len < Good.size(); Len += 7) {
    std::vector<uint8_t> Short(Good.begin(),
                               Good.begin() + static_cast<long>(Len));
    auto U = unpackClasses(Short);
    EXPECT_FALSE(static_cast<bool>(U)) << "truncation at " << Len
                                       << " decoded successfully";
  }
}

TEST(PackFuzz, RandomBytesAreRejected) {
  Rng R(2202);
  for (int Trial = 0; Trial < 50; ++Trial) {
    std::vector<uint8_t> Junk(16 + R.below(4000));
    for (auto &B : Junk)
      B = static_cast<uint8_t>(R.next());
    // Make some trials wear the right magic to get past the header.
    if (Trial % 2 == 0) {
      Junk[0] = 'C'; Junk[1] = 'J'; Junk[2] = 'P'; Junk[3] = 'K';
      Junk[4] = 1;
      Junk[5] = static_cast<uint8_t>(R.below(8));
      Junk[6] = static_cast<uint8_t>(R.below(8));
    }
    auto U = unpackClasses(Junk);
    EXPECT_FALSE(static_cast<bool>(U));
  }
}

TEST(PackDeterminism, RepackIsByteIdentical) {
  std::vector<ClassFile> Classes = generateCorpusClasses(testSpec(2300));
  for (ClassFile &CF : Classes)
    ASSERT_FALSE(static_cast<bool>(prepareForPacking(CF)));
  auto A = packClasses(Classes, PackOptions());
  auto B = packClasses(Classes, PackOptions());
  ASSERT_TRUE(static_cast<bool>(A));
  ASSERT_TRUE(static_cast<bool>(B));
  EXPECT_EQ(A->Archive, B->Archive);
}

class PackSeedSweep : public ::testing::TestWithParam<uint64_t> {};

/// Property sweep: the end-to-end byte-exact round trip holds across
/// many generator seeds and styles.
TEST_P(PackSeedSweep, RoundTripHolds) {
  uint64_t Seed = GetParam();
  CodeStyle Style = static_cast<CodeStyle>(Seed % 3);
  expectRoundTrip(PackOptions(), 3000 + Seed, Style,
                  6 + static_cast<unsigned>(Seed % 20));
}

INSTANTIATE_TEST_SUITE_P(Seeds, PackSeedSweep,
                         ::testing::Range<uint64_t>(0, 16));
