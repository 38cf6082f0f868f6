//===- test_fault_injection.cpp - hostile-input fault injection -----------===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Deterministic fault-injection driver for the decode surfaces. Takes
// valid artifacts (packed archives across the wire-format matrix,
// classfiles, zip/gzip containers) and derives hostile variants:
//
//   * truncation at every byte offset (a superset of every frame
//     boundary in the format),
//   * single-byte corruption at every offset with several XOR patterns
//     (0xFF inverts, 0x80 flips sign/continuation bits, 0x01 nudges
//     varint values off-by-one),
//   * >= 10k pseudo-random multi-byte mutations per archive, including
//     0xFF-run splices that turn varint lengths and counts into huge
//     values.
//
// Every variant must decode cleanly: either classes that re-parse,
// decode and are already canonical, or a typed Error from the decode
// taxonomy (Truncated / Corrupt / LimitExceeded) — never a crash,
// sanitizer report, unbounded allocation, or hang. Hostile classfiles
// are packed too, and must restore to their canonical form. The
// whole driver is deterministic (fixed seeds, xorshift RNG), so a
// failure reproduces exactly. It runs under the ASan+UBSan CI matrix.
//
//===----------------------------------------------------------------------===//

#include "bytecode/Instruction.h"
#include "classfile/ClassFile.h"
#include "classfile/Reader.h"
#include "classfile/Writer.h"
#include "corpus/Corpus.h"
#include "pack/ArchiveIndex.h"
#include "pack/ArchiveReader.h"
#include "pack/Backend.h"
#include "pack/Packer.h"
#include "pack/Stats.h"
#include "pack/Streams.h"
#include "support/VarInt.h"
#include "zip/ZipFile.h"
#include <gtest/gtest.h>

using namespace cjpack;

namespace {

// Tight limits so a mutation that smuggles a huge length through the
// checks shows up as a slow/large allocation immediately rather than
// relying on the 4GiB default inflate budget.
DecodeLimits testLimits() {
  DecodeLimits Limits;
  Limits.MaxClasses = 1u << 12;
  Limits.MaxPoolEntries = 1u << 16;
  Limits.MaxStringBytes = 1u << 16;
  Limits.MaxStreamBytes = 1u << 22;
  Limits.MaxInflateBytes = 1u << 24;
  Limits.MaxZipEntries = 1u << 10;
  return Limits;
}

UnpackOptions testOptions() {
  UnpackOptions Options;
  Options.Threads = 1; // keep each of the ~10^4 decodes cheap
  Options.Limits = testLimits();
  return Options;
}

/// xorshift64* — tiny deterministic RNG; libc rand() would make the
/// mutation schedule platform-dependent.
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed ? Seed : 0x9E3779B97F4A7C15ull) {}
  uint64_t next() {
    State ^= State >> 12;
    State ^= State << 25;
    State ^= State >> 27;
    return State * 0x2545F4914F6CDD1Dull;
  }
  /// Uniform value in [0, Bound).
  uint64_t below(uint64_t Bound) { return next() % Bound; }

private:
  uint64_t State;
};

std::vector<NamedClass> smallCorpus() {
  CorpusSpec Spec;
  Spec.Name = "faultinject";
  Spec.Seed = 41;
  Spec.NumClasses = 5;
  Spec.NumPackages = 2;
  Spec.MeanMethods = 3;
  Spec.MeanFields = 2;
  Spec.MeanStatements = 5;
  return generateCorpus(Spec);
}

std::vector<uint8_t> packedArchive(unsigned Shards, RefScheme Scheme,
                                   bool Indexed = false,
                                   BackendId Backend = BackendId::Zlib) {
  PackOptions Options;
  Options.Shards = Shards;
  Options.Scheme = Scheme;
  Options.RandomAccessIndex = Indexed;
  Options.Backend = Backend;
  auto Packed = packClassBytes(smallCorpus(), Options);
  EXPECT_TRUE(static_cast<bool>(Packed)) << Packed.message();
  return Packed ? Packed->Archive : std::vector<uint8_t>();
}

/// What a successful decode must return, however hostile its input:
/// every class re-parses from its written bytes under the test limits,
/// every Code attribute decodes, and prepareForPacking gives the class
/// back unchanged (a restored class is its own canonical form). The
/// materializer writes each class once and never reads it back, so this
/// is checked here.
void expectValidCanonical(const std::vector<ClassFile> &Classes,
                          const char *What, size_t Detail) {
  for (size_t I = 0; I < Classes.size(); ++I) {
    std::vector<uint8_t> Bytes = writeClassFile(Classes[I]);
    auto CF = parseClassFile(Bytes, testLimits());
    ASSERT_TRUE(static_cast<bool>(CF))
        << What << " at " << Detail << ": class " << I
        << " does not re-parse: " << CF.message();
    for (const MemberInfo &M : CF->Methods) {
      const AttributeInfo *A = findAttribute(M.Attributes, "Code");
      if (!A)
        continue;
      auto Code = parseCodeAttribute(*A, CF->CP);
      ASSERT_TRUE(static_cast<bool>(Code))
          << What << " at " << Detail << ": class " << I << ": "
          << Code.message();
      auto Insns = decodeCode(Code->Code);
      ASSERT_TRUE(static_cast<bool>(Insns))
          << What << " at " << Detail << ": class " << I
          << " has undecodable code: " << Insns.message();
    }
    Error E = prepareForPacking(*CF);
    ASSERT_FALSE(static_cast<bool>(E))
        << What << " at " << Detail << ": class " << I << ": "
        << E.message();
    EXPECT_EQ(writeClassFile(*CF), Bytes)
        << What << " at " << Detail << ": class " << I
        << " is not in canonical form";
  }
}

/// Decodes one hostile archive variant; the only acceptable outcomes
/// are a typed decode-taxonomy error or valid, canonical classes. A
/// version-2 variant decodes its shards in parallel, so it is decoded
/// on four threads too, which must give the same classes or the same
/// error.
void expectCleanUnpack(const std::vector<uint8_t> &Bytes,
                       const char *What, size_t Detail) {
  auto Classes = unpackClasses(Bytes, testOptions());
  if (Bytes.size() > 4 && Bytes[4] == FormatVersionSharded) {
    UnpackOptions Four = testOptions();
    Four.Threads = 4;
    auto Parallel = unpackClasses(Bytes, Four);
    ASSERT_EQ(static_cast<bool>(Parallel), static_cast<bool>(Classes))
        << What << " at " << Detail << ": thread count changed the outcome";
    if (!Classes) {
      EXPECT_EQ(Parallel.code(), Classes.code()) << What << " at " << Detail;
      EXPECT_EQ(Parallel.message(), Classes.message())
          << What << " at " << Detail;
    } else {
      ASSERT_EQ(Parallel->size(), Classes->size())
          << What << " at " << Detail;
      for (size_t I = 0; I < Classes->size(); ++I)
        EXPECT_EQ(writeClassFile((*Parallel)[I]),
                  writeClassFile((*Classes)[I]))
            << What << " at " << Detail << ": class " << I;
    }
  }
  if (Classes) {
    expectValidCanonical(*Classes, What, Detail);
    return;
  }
  EXPECT_NE(Classes.code(), ErrorCode::Other)
      << What << " at " << Detail
      << ": decode failure escaped the taxonomy: " << Classes.message();
}

/// Same contract for the lazy reader: open, list, decode every indexed
/// class. Valid canonical classes or a typed error, never a crash or
/// OOB read. The parallel decode, on a second fresh reader, must agree
/// exactly with the serial one: the same classes, or the same error.
void expectCleanReader(const std::vector<uint8_t> &Bytes, const char *What,
                       size_t Detail) {
  auto Reader = PackedArchiveReader::open(Bytes, testLimits());
  if (!Reader) {
    EXPECT_NE(Reader.code(), ErrorCode::Other)
        << What << " at " << Detail
        << ": reader open failure escaped the taxonomy: "
        << Reader.message();
    return;
  }
  auto All = Reader->unpackAll(1);
  if (!All) {
    EXPECT_NE(All.code(), ErrorCode::Other)
        << What << " at " << Detail
        << ": lazy decode failure escaped the taxonomy: "
        << All.message();
  }
  auto Parallel = PackedArchiveReader::open(Bytes, testLimits());
  ASSERT_TRUE(static_cast<bool>(Parallel)) << What << " at " << Detail;
  auto AllParallel = Parallel->unpackAll(4);
  ASSERT_EQ(static_cast<bool>(AllParallel), static_cast<bool>(All))
      << What << " at " << Detail << ": thread count changed the outcome";

  // Serving bytes changes no outcome: class by class, a fresh reader's
  // unpackClassBytes gives writeClassFile of unpackClass, or the same
  // error. When unpackAll succeeded its classes are unpackClass's (its
  // contract); otherwise a fresh reader walks unpackClass alongside.
  auto Served = PackedArchiveReader::open(Bytes, testLimits());
  ASSERT_TRUE(static_cast<bool>(Served)) << What << " at " << Detail;
  std::vector<std::string> Names = Served->classNames();
  if (!All) {
    EXPECT_EQ(AllParallel.code(), All.code()) << What << " at " << Detail;
    EXPECT_EQ(AllParallel.message(), All.message())
        << What << " at " << Detail;
    auto Restored = PackedArchiveReader::open(Bytes, testLimits());
    ASSERT_TRUE(static_cast<bool>(Restored)) << What << " at " << Detail;
    for (const std::string &Name : Names) {
      auto Got = Served->unpackClassBytes(Name);
      auto CF = Restored->unpackClass(Name);
      ASSERT_EQ(static_cast<bool>(Got), static_cast<bool>(CF))
          << What << " at " << Detail << ": " << Name;
      if (!CF) {
        EXPECT_EQ(Got.code(), CF.code()) << What << " at " << Detail;
        EXPECT_EQ(Got.message(), CF.message()) << What << " at " << Detail;
      } else {
        EXPECT_EQ(*Got, writeClassFile(*CF))
            << What << " at " << Detail << ": " << Name;
      }
    }
    return;
  }
  ASSERT_EQ(AllParallel->size(), All->size()) << What << " at " << Detail;
  ASSERT_EQ(Names.size(), All->size()) << What << " at " << Detail;
  for (size_t I = 0; I < All->size(); ++I) {
    std::vector<uint8_t> Want = writeClassFile((*All)[I]);
    EXPECT_EQ(writeClassFile((*AllParallel)[I]), Want)
        << What << " at " << Detail << ": class " << I;
    auto Got = Served->unpackClassBytes(Names[I]);
    ASSERT_TRUE(static_cast<bool>(Got))
        << What << " at " << Detail << ": " << Got.message();
    EXPECT_EQ(*Got, Want) << What << " at " << Detail << ": class " << I;
  }
  expectValidCanonical(*All, What, Detail);
}

/// A hostile classfile must parse, or fail inside the taxonomy. One that
/// parses is also packed (one class, one thread): packing may refuse
/// it, but an archive it writes restores exactly prepareForPacking of
/// the class, or fails to restore exactly when prepareForPacking fails.
void expectCleanClassfile(const std::vector<uint8_t> &Bytes,
                          const char *What, size_t Detail) {
  auto CF = parseClassFile(Bytes, testLimits());
  if (!CF) {
    EXPECT_NE(CF.code(), ErrorCode::Other)
        << What << " at " << Detail
        << ": parse failure escaped the taxonomy: " << CF.message();
    return;
  }
  for (const MemberInfo &M : CF->Methods)
    for (const AttributeInfo &A : M.Attributes)
      if (A.Name == "Code") {
        auto Code = parseCodeAttribute(A, CF->CP);
        if (!Code) {
          EXPECT_NE(Code.code(), ErrorCode::Other)
              << What << " at " << Detail << ": " << Code.message();
          continue;
        }
        auto Insns = decodeCode(Code->Code);
        if (!Insns) {
          EXPECT_NE(Insns.code(), ErrorCode::Other)
              << What << " at " << Detail << ": " << Insns.message();
        }
      }

  PackOptions Options;
  Options.Threads = 1;
  auto Packed = packClasses({*CF}, Options);
  if (!Packed)
    return;
  Error Prepared = prepareForPacking(*CF);
  auto Restored = unpackClasses(Packed->Archive, testOptions());
  ASSERT_EQ(static_cast<bool>(Restored), !Prepared)
      << What << " at " << Detail << ": "
      << (Prepared ? Prepared.message() : Restored.message());
  if (!Restored)
    return;
  ASSERT_EQ(Restored->size(), 1u) << What << " at " << Detail;
  EXPECT_EQ(writeClassFile((*Restored)[0]), writeClassFile(*CF))
      << What << " at " << Detail
      << ": the restored class is not the prepared one";
}

void expectCleanZip(const std::vector<uint8_t> &Bytes, const char *What,
                    size_t Detail) {
  auto Entries = readZip(Bytes, testLimits());
  if (!Entries) {
    EXPECT_NE(Entries.code(), ErrorCode::Other)
        << What << " at " << Detail
        << ": zip failure escaped the taxonomy: " << Entries.message();
  }
  auto Inflated = gunzipBytes(Bytes, testLimits());
  if (!Inflated) {
    EXPECT_NE(Inflated.code(), ErrorCode::Other)
        << What << " at " << Detail
        << ": gzip failure escaped the taxonomy: " << Inflated.message();
  }
}

using CheckFn = void (*)(const std::vector<uint8_t> &, const char *, size_t);

/// Truncation at every byte offset — a superset of cutting at every
/// frame boundary (header fields, dictionary frame, shard table,
/// per-stream headers, stream payloads all land on some offset).
void truncateEverywhere(const std::vector<uint8_t> &Valid, CheckFn Check) {
  for (size_t Len = 0; Len < Valid.size(); ++Len)
    Check(std::vector<uint8_t>(Valid.begin(),
                               Valid.begin() + static_cast<ptrdiff_t>(Len)),
          "truncation", Len);
}

/// Single-byte XOR corruption at every offset, for each pattern.
void flipEverywhere(const std::vector<uint8_t> &Valid, CheckFn Check) {
  static const uint8_t Patterns[] = {0xFF, 0x80, 0x01};
  std::vector<uint8_t> Mutant = Valid;
  for (size_t I = 0; I < Valid.size(); ++I) {
    for (uint8_t Pattern : Patterns) {
      Mutant[I] = Valid[I] ^ Pattern;
      Check(Mutant, "byte flip", I);
    }
    Mutant[I] = Valid[I];
  }
}

/// Pseudo-random multi-byte mutations. Three deterministic kinds:
/// scattered byte rewrites, 0xFF-run splices (varint/length bombs:
/// a run of 0xFF continuation bytes encodes a huge value wherever a
/// varint is read), and truncate-then-corrupt combinations.
void mutateRandomly(const std::vector<uint8_t> &Valid, CheckFn Check,
                    uint64_t Seed, size_t Rounds) {
  Rng R(Seed);
  std::vector<uint8_t> Mutant;
  for (size_t Round = 0; Round < Rounds; ++Round) {
    Mutant = Valid;
    switch (R.below(3)) {
    case 0: { // scattered rewrites
      size_t N = 1 + R.below(8);
      for (size_t I = 0; I < N; ++I)
        Mutant[R.below(Mutant.size())] = static_cast<uint8_t>(R.next());
      break;
    }
    case 1: { // 0xFF run: turns any varint underneath into a huge value
      size_t Pos = R.below(Mutant.size());
      size_t Run = 1 + R.below(12);
      for (size_t I = Pos; I < Mutant.size() && I < Pos + Run; ++I)
        Mutant[I] = 0xFF;
      break;
    }
    default: { // truncate, then corrupt one byte of what is left
      Mutant.resize(1 + R.below(Mutant.size()));
      Mutant[R.below(Mutant.size())] = static_cast<uint8_t>(R.next());
      break;
    }
    }
    Check(Mutant, "random mutation round", Round);
  }
}

/// Re-frames a valid version-3 archive around a tampered index: parses
/// the real index, lets \p Mutate rewrite it, and splices the new frame
/// back between the header and the dictionary. Every other byte is
/// untouched, so the failure the reader reports is attributable to the
/// index alone.
std::vector<uint8_t> rebuildWithIndex(const std::vector<uint8_t> &Valid,
                                      void (*Mutate)(ArchiveIndex &)) {
  ByteReader R(Valid);
  R.skip(7);
  uint64_t IndexLen = readVarUInt(R);
  EXPECT_FALSE(R.hasError());
  ByteReader IndexR(Valid.data() + R.position(),
                    static_cast<size_t>(IndexLen));
  auto Index = ArchiveIndex::deserialize(IndexR);
  EXPECT_TRUE(static_cast<bool>(Index)) << Index.message();
  Mutate(*Index);
  ByteWriter W;
  W.writeBytes(Valid.data(), 7);
  std::vector<uint8_t> Body = Index->serialize();
  writeVarUInt(W, Body.size());
  W.writeBytes(Body);
  size_t Rest = R.position() + static_cast<size_t>(IndexLen);
  W.writeBytes(Valid.data() + Rest, Valid.size() - Rest);
  return W.take();
}

/// Opens + fully decodes a tampered v3 archive and requires the exact
/// error class the tampering must produce.
void expectReaderRejects(const std::vector<uint8_t> &Bytes, ErrorCode Code,
                         const char *What) {
  auto Reader = PackedArchiveReader::open(Bytes, testLimits());
  if (!Reader) {
    EXPECT_EQ(Reader.code(), Code) << What << ": " << Reader.message();
    return;
  }
  auto All = Reader->unpackAll();
  ASSERT_FALSE(static_cast<bool>(All))
      << What << ": tampered archive decoded successfully";
  EXPECT_EQ(All.code(), Code) << What << ": " << All.message();
}

} // namespace

// Every archive variant of the wire-format matrix survives truncation
// at every single byte offset.
TEST(FaultInjection, TruncatedArchiveEveryOffset) {
  for (unsigned Shards : {1u, 4u}) {
    auto Archive = packedArchive(Shards, RefScheme::MtfTransientsContext);
    ASSERT_FALSE(Archive.empty());
    truncateEverywhere(Archive, expectCleanUnpack);
  }
}

TEST(FaultInjection, FlippedArchiveEveryOffset) {
  for (unsigned Shards : {1u, 4u}) {
    auto Archive = packedArchive(Shards, RefScheme::MtfTransientsContext);
    ASSERT_FALSE(Archive.empty());
    flipEverywhere(Archive, expectCleanUnpack);
  }
}

// >= 10k deterministic mutations against each corpus archive (the
// ISSUE floor), across the single-shard and sharded wire formats.
TEST(FaultInjection, RandomMutationsSingleShard) {
  auto Archive = packedArchive(1, RefScheme::MtfTransientsContext);
  ASSERT_FALSE(Archive.empty());
  mutateRandomly(Archive, expectCleanUnpack, /*Seed=*/1, /*Rounds=*/10000);
}

TEST(FaultInjection, RandomMutationsSharded) {
  auto Archive = packedArchive(4, RefScheme::MtfTransientsContext);
  ASSERT_FALSE(Archive.empty());
  mutateRandomly(Archive, expectCleanUnpack, /*Seed=*/2, /*Rounds=*/10000);
}

// The alternate reference schemes share the decode entry but exercise
// different ref-decoder state machines; give each a smaller dose.
TEST(FaultInjection, RandomMutationsAltSchemes) {
  for (RefScheme Scheme : {RefScheme::Simple, RefScheme::Freq}) {
    auto Archive = packedArchive(1, Scheme);
    ASSERT_FALSE(Archive.empty());
    mutateRandomly(Archive, expectCleanUnpack,
                   /*Seed=*/3 + static_cast<uint64_t>(Scheme),
                   /*Rounds=*/2500);
  }
}

// The version-3 lazy reader under the same truncation / flip / mutation
// schedule as the whole-archive decoder.
TEST(FaultInjection, IndexedArchiveSweeps) {
  for (unsigned Shards : {1u, 3u}) {
    auto Archive =
        packedArchive(Shards, RefScheme::MtfTransientsContext, true);
    ASSERT_FALSE(Archive.empty());
    truncateEverywhere(Archive, expectCleanReader);
    flipEverywhere(Archive, expectCleanReader);
    mutateRandomly(Archive, expectCleanReader,
                   /*Seed=*/11 + Shards, /*Rounds=*/5000);
  }
}

// The whole-decode inflate bound holds for every version: each
// unpackClasses call charges one budget on every path.
TEST(FaultInjection, InflateBudgetBindsEveryVersion) {
  CorpusSpec Spec;
  Spec.Name = "inflatebudget";
  Spec.Seed = 43;
  Spec.NumClasses = 20;
  std::vector<NamedClass> Classes = generateCorpus(Spec);
  UnpackOptions Tight = testOptions();
  Tight.Limits.MaxInflateBytes = 1000;
  for (auto [Shards, Indexed] :
       {std::pair{1u, false}, std::pair{4u, false}, std::pair{4u, true}}) {
    PackOptions Options;
    Options.Shards = Shards;
    Options.RandomAccessIndex = Indexed;
    auto Packed = packClassBytes(Classes, Options);
    ASSERT_TRUE(static_cast<bool>(Packed)) << Packed.message();
    int Version = Packed->Archive[4];
    ASSERT_TRUE(static_cast<bool>(
        unpackClasses(Packed->Archive, testOptions())))
        << "v" << Version;
    auto Out = unpackClasses(Packed->Archive, Tight);
    ASSERT_FALSE(static_cast<bool>(Out))
        << "v" << Version << " decoded past its inflate budget";
    EXPECT_EQ(Out.code(), ErrorCode::LimitExceeded)
        << "v" << Version << ": " << Out.message();
  }
}

// Crafted hostile indexes with the exact typed rejection each must
// produce — the attack surface the v3 format adds over v2.
TEST(FaultInjection, HostileIndexTyped) {
  auto Valid = packedArchive(3, RefScheme::MtfTransientsContext, true);
  ASSERT_FALSE(Valid.empty());
  // Sanity: the untampered archive decodes.
  {
    auto Reader = PackedArchiveReader::open(Valid, testLimits());
    ASSERT_TRUE(static_cast<bool>(Reader)) << Reader.message();
    ASSERT_TRUE(static_cast<bool>(Reader->unpackAll()));
  }

  // Index frame longer than the archive: the length prefix promises
  // bytes that do not exist.
  {
    std::vector<uint8_t> Short(Valid.begin(), Valid.begin() + 10);
    auto Reader = PackedArchiveReader::open(Short, testLimits());
    ASSERT_FALSE(static_cast<bool>(Reader));
    EXPECT_EQ(Reader.code(), ErrorCode::Truncated) << Reader.message();
  }

  // Shard extent reaching past the end of the archive.
  expectReaderRejects(
      rebuildWithIndex(Valid,
                       [](ArchiveIndex &I) { I.Shards.back().Length += 4; }),
      ErrorCode::Truncated, "extent past EOF");

  // Overlapping extents: shard 1 aliased onto shard 0's bytes.
  expectReaderRejects(
      rebuildWithIndex(Valid,
                       [](ArchiveIndex &I) { I.Shards[1].Offset = 0; }),
      ErrorCode::Corrupt, "overlapping extents");

  // A gap between extents.
  expectReaderRejects(
      rebuildWithIndex(Valid,
                       [](ArchiveIndex &I) { I.Shards[1].Offset += 1; }),
      ErrorCode::Corrupt, "extent gap");

  // Two entries claiming the same (shard, ordinal) slot.
  expectReaderRejects(rebuildWithIndex(Valid,
                                       [](ArchiveIndex &I) {
                                         I.Classes[1].Shard =
                                             I.Classes[0].Shard;
                                         I.Classes[1].Ordinal =
                                             I.Classes[0].Ordinal;
                                       }),
                      ErrorCode::Corrupt, "duplicate slot");

  // Duplicate class names.
  expectReaderRejects(rebuildWithIndex(Valid,
                                       [](ArchiveIndex &I) {
                                         I.Classes[1].Name =
                                             I.Classes[0].Name;
                                       }),
                      ErrorCode::Corrupt, "duplicate name");

  // Index claims more classes than the shard's own directory declares.
  expectReaderRejects(
      rebuildWithIndex(Valid,
                       [](ArchiveIndex &I) { I.Classes[0].Ordinal = 99; }),
      ErrorCode::Corrupt, "ordinal beyond directory");

  // An index entry whose name disagrees with the class decoded at its
  // slot (two swapped names).
  expectReaderRejects(rebuildWithIndex(Valid,
                                       [](ArchiveIndex &I) {
                                         std::swap(I.Classes[0].Name,
                                                   I.Classes[1].Name);
                                       }),
                      ErrorCode::Corrupt, "name mismatch");

  // An entry naming a shard that does not exist.
  expectReaderRejects(
      rebuildWithIndex(Valid,
                       [](ArchiveIndex &I) { I.Classes[0].Shard = 7; }),
      ErrorCode::Corrupt, "shard out of range");
}

// The classfile parser plus bytecode decoder under the same schedule.
TEST(FaultInjection, ClassfileTruncationAndMutation) {
  auto Classes = smallCorpus();
  ASSERT_FALSE(Classes.empty());
  const std::vector<uint8_t> &Bytes = Classes[0].Data;
  truncateEverywhere(Bytes, expectCleanClassfile);
  flipEverywhere(Bytes, expectCleanClassfile);
  mutateRandomly(Bytes, expectCleanClassfile, /*Seed=*/5, /*Rounds=*/2500);
}

// A class-ref definition no classfile type spells is Corrupt. Raw
// archives of one class with a native method m(Z)V and of the same class
// with m(B)V differ only in that parameter's base letter; writing 'V'
// there asks for m(V)V, and 'Q' for a type with no descriptor letter.
TEST(FaultInjection, MalformedClassRefDefinitionsAreCorrupt) {
  auto RawArchive = [](const char *Desc) {
    ClassFile CF;
    CF.ThisClass = CF.CP.addClass("p/A");
    CF.SuperClass = CF.CP.addClass("java/lang/Object");
    MemberInfo M;
    M.AccessFlags = AccPublic | AccStatic | AccNative;
    M.NameIndex = CF.CP.addUtf8("m");
    M.DescriptorIndex = CF.CP.addUtf8(Desc);
    CF.Methods.push_back(M);
    PackOptions Options;
    Options.CompressStreams = false;
    auto Packed = packClasses({CF}, Options);
    EXPECT_TRUE(static_cast<bool>(Packed)) << Packed.message();
    return Packed ? Packed->Archive : std::vector<uint8_t>();
  };
  std::vector<uint8_t> Z = RawArchive("(Z)V"), B = RawArchive("(B)V");
  ASSERT_EQ(Z.size(), B.size());
  std::vector<size_t> Diff;
  for (size_t I = 0; I < Z.size(); ++I)
    if (Z[I] != B[I])
      Diff.push_back(I);
  ASSERT_EQ(Diff.size(), 1u);
  ASSERT_EQ(Z[Diff[0]], 'Z');
  ASSERT_TRUE(static_cast<bool>(unpackClasses(Z, testOptions())));
  for (char Base : {'V', 'Q'}) {
    std::vector<uint8_t> Bad = Z;
    Bad[Diff[0]] = static_cast<uint8_t>(Base);
    auto Classes = unpackClasses(Bad, testOptions());
    ASSERT_FALSE(static_cast<bool>(Classes))
        << "base '" << Base << "' restored a class";
    EXPECT_EQ(Classes.code(), ErrorCode::Corrupt) << Classes.message();
  }
}

// The zip central-directory reader and the gzip frame reader.
TEST(FaultInjection, ZipTruncationAndMutation) {
  auto Classes = smallCorpus();
  ASSERT_FALSE(Classes.empty());
  std::vector<ZipEntry> Entries;
  for (size_t I = 0; I < Classes.size() && I < 2; ++I)
    Entries.push_back({Classes[I].Name, Classes[I].Data});
  for (ZipMethod Method : {ZipMethod::Deflated, ZipMethod::Stored}) {
    std::vector<uint8_t> Zip = writeZip(Entries, Method);
    truncateEverywhere(Zip, expectCleanZip);
    mutateRandomly(Zip, expectCleanZip, /*Seed=*/7, /*Rounds=*/1500);
  }
  std::vector<uint8_t> Gz = gzipBytes(Classes[0].Data);
  truncateEverywhere(Gz, expectCleanZip);
  flipEverywhere(Gz, expectCleanZip);
}

namespace {

/// One stream directory entry of a version-1 archive: where its method
/// byte and payload sit in the archive and what they say.
struct StreamEntry {
  size_t MethodOffset;
  uint8_t Id;
  uint8_t Method;
  uint64_t RawLength;
  size_t PayloadOffset;
  size_t StoredLength;
};

/// Walks a version-1 archive's stream directory (7-byte header, then
/// per stream: id byte, method byte, raw-length varint, stored-length
/// varint, payload) and returns each entry's method-byte and payload
/// locations.
std::vector<StreamEntry> walkV1Streams(const std::vector<uint8_t> &Archive) {
  std::vector<StreamEntry> Entries;
  ByteReader R(Archive);
  R.skip(7);
  for (unsigned I = 0; I < NumStreams; ++I) {
    size_t MethodAt = R.position() + 1;
    uint8_t Id = R.readU1();
    uint8_t Method = R.readU1();
    uint64_t RawLen = readVarUInt(R);
    size_t StoredLen = static_cast<size_t>(readVarUInt(R));
    EXPECT_FALSE(R.hasError()) << "stream " << I;
    if (R.hasError())
      break;
    Entries.push_back(
        {MethodAt, Id, Method, RawLen, R.position(), StoredLen});
    R.skip(StoredLen);
  }
  EXPECT_TRUE(R.atEnd());
  return Entries;
}

/// unpackClasses + statPackedArchive must both reject \p Bytes with the
/// exact error class.
void expectUnpackAndStatsReject(const std::vector<uint8_t> &Bytes,
                                ErrorCode Code, const char *What) {
  auto Classes = unpackClasses(Bytes, testOptions());
  ASSERT_FALSE(static_cast<bool>(Classes))
      << What << ": tampered archive decoded successfully";
  EXPECT_EQ(Classes.code(), Code) << What << ": " << Classes.message();
  auto Stats = statPackedArchive(Bytes, testLimits());
  ASSERT_FALSE(static_cast<bool>(Stats))
      << What << ": tampered archive stat'd successfully";
  EXPECT_EQ(Stats.code(), Code) << What << ": " << Stats.message();
}

} // namespace

// The non-default backends under the same truncation / flip / mutation
// schedule as the zlib pipeline: the Huffman and arithmetic decoders
// face every byte-level fault the container can deliver. The indexed
// truncations also run through unpackClasses, which decodes version 3
// through the reader.
TEST(FaultInjection, BackendArchiveSweeps) {
  for (BackendId Backend : {BackendId::Huffman, BackendId::Arith}) {
    auto Archive = packedArchive(1, RefScheme::MtfTransientsContext,
                                 /*Indexed=*/false, Backend);
    ASSERT_FALSE(Archive.empty());
    truncateEverywhere(Archive, expectCleanUnpack);
    flipEverywhere(Archive, expectCleanUnpack);
    mutateRandomly(Archive, expectCleanUnpack,
                   /*Seed=*/21 + static_cast<uint64_t>(Backend),
                   /*Rounds=*/4000);

    auto Indexed = packedArchive(3, RefScheme::MtfTransientsContext,
                                 /*Indexed=*/true, Backend);
    ASSERT_FALSE(Indexed.empty());
    truncateEverywhere(Indexed, expectCleanReader);
    truncateEverywhere(Indexed, expectCleanUnpack);
    flipEverywhere(Indexed, expectCleanReader);
    mutateRandomly(Indexed, expectCleanReader,
                   /*Seed=*/31 + static_cast<uint64_t>(Backend),
                   /*Rounds=*/2500);
  }
}

// An MTF position past its queue must name no object: an id such as 0
// passes the Transcriber's range checks whenever the model holds any
// object of that kind, and the archive would restore different classes
// without an error. Here each one-byte queue position in a stored
// archive's MethodRefs stream is raised to 125 (0x7F) at every site
// where that is past the queue; every variant must fail as Corrupt.
TEST(FaultInjection, MtfPositionsPastTheQueueAreCorrupt) {
  CorpusSpec Spec = scaleBenchmark(2000);
  Spec.Seed = 9001;
  std::vector<NamedClass> Corpus = generateCorpus(Spec);
  Corpus.resize(40);
  PackOptions Options;
  Options.CompressStreams = false; // MtfTransientsContext, one shard
  auto Packed = packClassBytes(Corpus, Options);
  ASSERT_TRUE(static_cast<bool>(Packed)) << Packed.message();
  const std::vector<uint8_t> &Archive = Packed->Archive;
  ASSERT_TRUE(static_cast<bool>(unpackClasses(Archive, testOptions())));

  std::vector<StreamEntry> Streams = walkV1Streams(Archive);
  const StreamEntry *Refs = nullptr;
  for (const StreamEntry &E : Streams)
    if (E.Id == static_cast<uint8_t>(StreamId::MethodRefs))
      Refs = &E;
  ASSERT_NE(Refs, nullptr);
  ASSERT_EQ(Refs->RawLength, Refs->StoredLength) << "stream not stored";
  // The stream is one varint per reference: 0 and 1 are first
  // occurrences (persistent, transient), 2 + k is queue position k. No
  // queue holds more objects than the stream has defined so far, so
  // position 125 is past the queue wherever fewer than 126 came first.
  std::vector<size_t> Sites;
  size_t Defined = 0;
  ByteReader R(Archive.data() + Refs->PayloadOffset, Refs->StoredLength);
  while (!R.atEnd() && !R.hasError()) {
    size_t At = R.position();
    uint64_t V = readVarUInt(R);
    Defined += V == 0;
    if (R.position() == At + 1 && V >= 2 && V < 0x7F && Defined < 126)
      Sites.push_back(Refs->PayloadOffset + At);
  }
  ASSERT_FALSE(R.hasError());
  ASSERT_GE(Sites.size(), 100u);

  for (size_t At : Sites) {
    std::vector<uint8_t> Bad = Archive;
    Bad[At] = 0x7F;
    auto Classes = unpackClasses(Bad, testOptions());
    ASSERT_FALSE(static_cast<bool>(Classes))
        << "position at offset " << At << " decoded to other classes";
    EXPECT_EQ(Classes.code(), ErrorCode::Corrupt)
        << "offset " << At << ": " << Classes.message();
  }
}

// Crafted backend-id attacks with the exact typed rejection each must
// produce — the attack surface the pluggable registry adds.
TEST(FaultInjection, HostileBackendTyped) {
  auto Valid = packedArchive(1, RefScheme::MtfTransientsContext,
                             /*Indexed=*/false, BackendId::Huffman);
  ASSERT_FALSE(Valid.empty());
  ASSERT_TRUE(static_cast<bool>(unpackClasses(Valid, testOptions())));
  std::vector<StreamEntry> Streams = walkV1Streams(Valid);
  ASSERT_EQ(Streams.size(), NumStreams);

  // Unknown method bytes on every stream: one past the registry and a
  // far-out value.
  for (uint8_t Hostile : {uint8_t(NumBackends), uint8_t(0xFF)}) {
    for (const StreamEntry &E : Streams) {
      std::vector<uint8_t> Mutant = Valid;
      Mutant[E.MethodOffset] = Hostile;
      expectUnpackAndStatsReject(Mutant, ErrorCode::Corrupt,
                                 "unknown backend id");
    }
  }

  // Relabeling a compressed stream as stored breaks the stored-size
  // invariant (stored length != raw length) and must be Corrupt.
  for (const StreamEntry &E : Streams) {
    if (E.Method == static_cast<uint8_t>(BackendId::Store))
      continue;
    std::vector<uint8_t> Mutant = Valid;
    Mutant[E.MethodOffset] = static_cast<uint8_t>(BackendId::Store);
    expectUnpackAndStatsReject(Mutant, ErrorCode::Corrupt,
                               "compressed stream relabeled store");
  }

  // Relabeling across compressed backends (huffman bytes fed to the
  // zlib or arithmetic decoder and vice versa) cannot promise a
  // specific code — the payload is garbage to the other decoder — but
  // must stay inside the taxonomy.
  for (const StreamEntry &E : Streams) {
    for (unsigned Method = 1; Method < NumBackends; ++Method) {
      if (Method == E.Method)
        continue;
      std::vector<uint8_t> Mutant = Valid;
      Mutant[E.MethodOffset] = static_cast<uint8_t>(Method);
      expectCleanUnpack(Mutant, "backend relabel", E.MethodOffset);
    }
  }
}

// Hostile whole-archive backend codes in the header flags (bits 3..5):
// every reserved value must be Corrupt from all three decode surfaces.
TEST(FaultInjection, HostileArchiveBackendCode) {
  auto V1 = packedArchive(1, RefScheme::MtfTransientsContext);
  auto V3 = packedArchive(3, RefScheme::MtfTransientsContext, true);
  ASSERT_FALSE(V1.empty());
  ASSERT_FALSE(V3.empty());
  for (uint8_t Code = ArchiveBackendMixed + 1;
       Code <= BackendFlagMask; ++Code) {
    std::vector<uint8_t> BadV1 = V1;
    BadV1[6] = static_cast<uint8_t>(
        (BadV1[6] & ~(BackendFlagMask << BackendFlagShift)) |
        (Code << BackendFlagShift));
    expectUnpackAndStatsReject(BadV1, ErrorCode::Corrupt,
                               "reserved archive backend code");

    std::vector<uint8_t> BadV3 = V3;
    BadV3[6] = static_cast<uint8_t>(
        (BadV3[6] & ~(BackendFlagMask << BackendFlagShift)) |
        (Code << BackendFlagShift));
    expectUnpackAndStatsReject(BadV3, ErrorCode::Corrupt,
                               "reserved archive backend code (v3)");
    auto Reader = PackedArchiveReader::open(BadV3, testLimits());
    ASSERT_FALSE(static_cast<bool>(Reader))
        << "reader accepted reserved backend code " << unsigned(Code);
    EXPECT_EQ(Reader.code(), ErrorCode::Corrupt) << Reader.message();
  }
}
