//===- test_arena.cpp - arena and ownership-model tests -------------------===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The zero-copy classfile model rests on two lifetime contracts:
// arena views stay valid until the arena dies (stable addresses, no
// reallocation), and Owning-mode classfiles are self-contained while
// Borrowed-mode ones borrow from the caller's buffer. These tests
// abuse both contracts on purpose — freed input buffers, unmapped
// pages, arena reuse — so a regression shows up as an ASan report (or
// a wrong byte) here rather than as corruption deep in a pack run.
//
//===----------------------------------------------------------------------===//

#include "classfile/Reader.h"
#include "classfile/Writer.h"
#include "corpus/Corpus.h"
#include "pack/Packer.h"
#include "support/Arena.h"
#include <algorithm>
#include <cstring>
#include <gtest/gtest.h>

#ifdef __unix__
#include <sys/mman.h>
#include <unistd.h>
#endif

using namespace cjpack;

namespace {

CorpusSpec tinySpec(uint64_t Seed = 41) {
  CorpusSpec S;
  S.Name = "arena";
  S.Seed = Seed;
  S.NumClasses = 12;
  S.NumPackages = 2;
  S.MeanMethods = 4;
  S.MeanStatements = 6;
  return S;
}

} // namespace

//===----------------------------------------------------------------------===//
// Arena contract
//===----------------------------------------------------------------------===//

TEST(Arena, CountersTrackAllocations) {
  Arena A;
  EXPECT_EQ(A.bytesUsed(), 0u);
  EXPECT_EQ(A.allocationCount(), 0u);
  EXPECT_EQ(A.bytesReserved(), 0u);
  A.allocate(100);
  A.allocate(28);
  EXPECT_EQ(A.bytesUsed(), 128u);
  EXPECT_EQ(A.allocationCount(), 2u);
  EXPECT_GE(A.bytesReserved(), 128u);
}

TEST(Arena, ViewsSurviveChunkGrowth) {
  // A tiny chunk size forces many chunks; every earlier view must stay
  // byte-for-byte intact as later chunks are added (stable addresses).
  Arena A(64);
  std::vector<std::string_view> Views;
  std::vector<std::string> Expect;
  for (int I = 0; I < 300; ++I) {
    std::string S = "string-" + std::to_string(I);
    Views.push_back(A.internString(S));
    Expect.push_back(std::move(S));
  }
  for (size_t I = 0; I < Views.size(); ++I)
    EXPECT_EQ(Views[I], Expect[I]) << "view " << I << " moved or corrupted";
}

TEST(Arena, OversizedAllocationDoesNotWasteCurrentChunk) {
  Arena A(64);
  uint8_t *Small1 = A.allocate(8);
  // Oversized: gets its own chunk, leaving the first chunk's cursor
  // untouched for the next small allocation.
  uint8_t *Big = A.allocate(1000);
  uint8_t *Small2 = A.allocate(8);
  EXPECT_EQ(Small2, Small1 + 8) << "cursor was disturbed by the big chunk";
  std::memset(Big, 0xAB, 1000); // the dedicated chunk is fully usable
  EXPECT_EQ(A.bytesUsed(), 1016u);
}

TEST(Arena, CopyAndAdoptPreserveBytes) {
  Arena A;
  std::vector<uint8_t> Buf = {1, 2, 3, 4, 5};
  std::span<const uint8_t> Copied = A.copy(Buf);
  EXPECT_NE(Copied.data(), Buf.data());
  EXPECT_TRUE(std::equal(Copied.begin(), Copied.end(), Buf.begin()));

  const uint8_t *Donated = Buf.data();
  std::span<const uint8_t> Adopted = A.adopt(std::move(Buf));
  EXPECT_EQ(Adopted.data(), Donated) << "adopt must not copy";
  EXPECT_EQ(Adopted.size(), 5u);
  EXPECT_EQ(Adopted[4], 5);
}

TEST(Arena, ResetRecyclesForReuse) {
  Arena A(128);
  for (int I = 0; I < 50; ++I)
    A.internString("some reasonably long interned string payload");
  ASSERT_GT(A.bytesReserved(), 0u);
  A.reset();
  EXPECT_EQ(A.bytesUsed(), 0u);
  EXPECT_EQ(A.allocationCount(), 0u);
  // The arena is fully usable again after reset.
  std::string_view V = A.internString("after-reset");
  EXPECT_EQ(V, "after-reset");
}

TEST(Arena, EmptyInputsAllocateNothing) {
  Arena A;
  EXPECT_TRUE(A.internString("").empty());
  EXPECT_TRUE(A.copy(std::span<const uint8_t>()).empty());
  EXPECT_EQ(A.allocationCount(), 0u);
}

//===----------------------------------------------------------------------===//
// ParseMode ownership
//===----------------------------------------------------------------------===//

TEST(ParseMode, BorrowedAndOwningAreBitIdentical) {
  // The two modes differ only in who keeps the backing bytes alive;
  // everything derived from them — re-serialization and full archives —
  // must be byte-identical.
  std::vector<NamedClass> Classes = generateCorpus(tinySpec());
  std::vector<ClassFile> Owning, Borrowed;
  for (const NamedClass &C : Classes) {
    auto O = parseClassFile(C.Data, {}, ParseMode::Owning);
    auto B = parseClassFile(C.Data, {}, ParseMode::Borrowed);
    ASSERT_TRUE(static_cast<bool>(O)) << O.message();
    ASSERT_TRUE(static_cast<bool>(B)) << B.message();
    EXPECT_EQ(writeClassFile(*O), writeClassFile(*B)) << C.Name;
    ASSERT_FALSE(static_cast<bool>(prepareForPacking(*O)));
    ASSERT_FALSE(static_cast<bool>(prepareForPacking(*B)));
    Owning.push_back(std::move(*O));
    Borrowed.push_back(std::move(*B));
  }
  // C.Data stays alive in Classes, so the Borrowed models are valid to
  // pack here.
  auto PO = packClasses(Owning, PackOptions());
  auto PB = packClasses(Borrowed, PackOptions());
  ASSERT_TRUE(static_cast<bool>(PO)) << PO.message();
  ASSERT_TRUE(static_cast<bool>(PB)) << PB.message();
  EXPECT_EQ(PO->Archive, PB->Archive);
}

TEST(ParseMode, OwningSurvivesInputDestruction) {
  // Parse in Owning mode, then clobber and free the input buffer. If
  // any view still pointed into it, the reads below would be
  // use-after-free (caught by ASan) or return the poison bytes.
  std::vector<NamedClass> Classes = generateCorpus(tinySpec(43));
  NamedClass &C = Classes.front();
  std::string WantName = C.Name.substr(0, C.Name.size() - 6); // .class
  std::vector<uint8_t> Input = C.Data;
  auto CF = parseClassFile(Input, {}, ParseMode::Owning);
  ASSERT_TRUE(static_cast<bool>(CF)) << CF.message();
  std::vector<uint8_t> Want = writeClassFile(*CF);
  std::fill(Input.begin(), Input.end(), uint8_t(0xDD));
  Input.clear();
  Input.shrink_to_fit();
  EXPECT_EQ(CF->thisClassName(), WantName);
  EXPECT_EQ(writeClassFile(*CF), Want);
}

TEST(ParseMode, AdoptOverloadIsZeroCopy) {
  std::vector<NamedClass> Classes = generateCorpus(tinySpec(47));
  std::vector<uint8_t> Input = Classes.front().Data;
  const uint8_t *Lo = Input.data();
  const uint8_t *Hi = Lo + Input.size();
  auto CF = parseClassFile(std::move(Input));
  ASSERT_TRUE(static_cast<bool>(CF)) << CF.message();
  // The adopted buffer was donated to the arena at its original
  // address, so the class's views must point into it — proof no bulk
  // copy happened.
  std::string_view Name = CF->thisClassName();
  const uint8_t *P = reinterpret_cast<const uint8_t *>(Name.data());
  EXPECT_TRUE(P >= Lo && P < Hi) << "views were copied, not adopted";
}

TEST(ParseMode, BorrowedViewsPointIntoCallerBuffer) {
  std::vector<NamedClass> Classes = generateCorpus(tinySpec(53));
  const std::vector<uint8_t> &Input = Classes.front().Data;
  auto CF = parseClassFile(Input, {}, ParseMode::Borrowed);
  ASSERT_TRUE(static_cast<bool>(CF)) << CF.message();
  std::string_view Name = CF->thisClassName();
  const uint8_t *P = reinterpret_cast<const uint8_t *>(Name.data());
  EXPECT_TRUE(P >= Input.data() && P < Input.data() + Input.size())
      << "Borrowed mode copied";
  // And it allocated nothing to own.
  EXPECT_EQ(CF->CP.arena().bytesUsed(), 0u);
}

#ifdef __unix__
TEST(ParseMode, OwningSurvivesUnmap) {
  // The motivating case: parse straight out of a memory mapping, drop
  // the mapping, keep using the class. Owning mode must have landed
  // every byte it needs in the arena; a stale view would fault or trip
  // ASan the moment the page is gone.
  std::vector<NamedClass> Classes = generateCorpus(tinySpec(59));
  const std::vector<uint8_t> &Data = Classes.front().Data;
  long Page = sysconf(_SC_PAGESIZE);
  size_t MapLen = ((Data.size() + Page - 1) / Page) * Page;
  void *Map = mmap(nullptr, MapLen, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  ASSERT_NE(Map, MAP_FAILED);
  std::memcpy(Map, Data.data(), Data.size());

  auto CF = parseClassFile(
      std::span<const uint8_t>(static_cast<const uint8_t *>(Map),
                               Data.size()),
      {}, ParseMode::Owning);
  ASSERT_TRUE(static_cast<bool>(CF)) << CF.message();
  ASSERT_EQ(munmap(Map, MapLen), 0);

  EXPECT_EQ(writeClassFile(*CF), Data);
}
#endif
