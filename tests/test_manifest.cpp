//===- test_manifest.cpp - SHA-1, manifests, §12 signing ------------------===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//

#include "corpus/Corpus.h"
#include "pack/Packer.h"
#include "support/Sha1.h"
#include "zip/Manifest.h"
#include <gtest/gtest.h>

using namespace cjpack;

namespace {

std::vector<uint8_t> bytesOf(const std::string &S) {
  return std::vector<uint8_t>(S.begin(), S.end());
}

} // namespace

TEST(Sha1, Fips180TestVectors) {
  // The canonical FIPS 180-1 vectors.
  EXPECT_EQ(sha1Hex(bytesOf("abc")),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
  EXPECT_EQ(sha1Hex(bytesOf(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
  EXPECT_EQ(sha1Hex(bytesOf("")),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709");
}

TEST(Sha1, MillionAs) {
  Sha1 S;
  std::vector<uint8_t> Chunk(1000, 'a');
  for (int I = 0; I < 1000; ++I)
    S.update(Chunk);
  auto Digest = S.finish();
  static const char *Hex = "0123456789abcdef";
  std::string Out;
  for (uint8_t B : Digest) {
    Out.push_back(Hex[B >> 4]);
    Out.push_back(Hex[B & 0xF]);
  }
  EXPECT_EQ(Out, "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1, IncrementalMatchesOneShot) {
  std::vector<uint8_t> Data = bytesOf("the quick brown fox jumps over "
                                      "the lazy dog, repeatedly");
  Sha1 S;
  for (uint8_t B : Data)
    S.update(&B, 1);
  EXPECT_EQ(S.finish(), sha1Of(Data));
}

TEST(Manifest, BuildWriteParseRoundTrip) {
  std::vector<NamedClass> Classes = {
      {"a/B.class", bytesOf("hello")},
      {"c/D.class", bytesOf("world")},
  };
  Manifest M = buildManifest(Classes);
  ASSERT_EQ(M.Entries.size(), 2u);
  std::string Text = writeManifest(M);
  auto Back = parseManifest(Text);
  ASSERT_TRUE(static_cast<bool>(Back)) << Back.message();
  EXPECT_EQ(Back->Version, "1.0");
  ASSERT_EQ(Back->Entries.size(), 2u);
  EXPECT_EQ(Back->Entries[0].Name, "a/B.class");
  EXPECT_EQ(Back->Entries[0].Sha1Digest, sha1Hex(bytesOf("hello")));
}

TEST(Manifest, VerifyDetectsTampering) {
  std::vector<NamedClass> Classes = {{"a/B.class", bytesOf("payload")}};
  Manifest M = buildManifest(Classes);
  EXPECT_TRUE(verifyManifest(M, Classes));
  Classes[0].Data[0] ^= 1;
  EXPECT_FALSE(verifyManifest(M, Classes));
  // A class absent from the manifest also fails.
  std::vector<NamedClass> Extra = {{"x/Y.class", bytesOf("new")}};
  EXPECT_FALSE(verifyManifest(M, Extra));
}

TEST(Manifest, ParseToleratesCrLfAndUnknownAttributes) {
  std::string Text = "Manifest-Version: 1.0\r\n"
                     "Created-By: cjpack test\r\n\r\n"
                     "Name: p/Q.class\r\n"
                     "SHA1-Digest: 0123\r\n\r\n";
  auto M = parseManifest(Text);
  ASSERT_TRUE(static_cast<bool>(M)) << M.message();
  ASSERT_EQ(M->Entries.size(), 1u);
  EXPECT_EQ(M->Entries[0].Name, "p/Q.class");
}

TEST(Manifest, ParseRejectsMalformed) {
  EXPECT_FALSE(static_cast<bool>(parseManifest("no colon here\n")));
  EXPECT_FALSE(
      static_cast<bool>(parseManifest("SHA1-Digest: orphaned\n")));
}

TEST(Signing, Section12WorkflowEndToEnd) {
  // Sender: pack, then immediately decompress and sign the result.
  CorpusSpec Spec;
  Spec.Name = "signing";
  Spec.Seed = 99;
  Spec.NumClasses = 12;
  Spec.NumPackages = 2;
  std::vector<NamedClass> Raw = generateCorpus(Spec);
  auto Packed = packClassBytes(Raw, PackOptions());
  ASSERT_TRUE(static_cast<bool>(Packed));
  auto SenderManifest = manifestForPackedArchive(Packed->Archive);
  ASSERT_TRUE(static_cast<bool>(SenderManifest))
      << SenderManifest.message();

  // The manifest travels as text next to the packed archive.
  std::string Wire = writeManifest(*SenderManifest);

  // Receiver: decompress and verify against the shipped manifest.
  auto Received = parseManifest(Wire);
  ASSERT_TRUE(static_cast<bool>(Received));
  auto Restored = unpackArchive(Packed->Archive);
  ASSERT_TRUE(static_cast<bool>(Restored));
  EXPECT_TRUE(verifyManifest(*Received, *Restored))
      << "deterministic decompression must reproduce signed bytes";

  // A signature over the ORIGINAL (pre-pack) classfiles would NOT
  // verify — packing renumbers constant pools (the problem §12 solves).
  Manifest Original = buildManifest(Raw);
  EXPECT_FALSE(verifyManifest(Original, *Restored));
}

// The §12 workflow holds for the indexed layout too: a version-3
// archive digests to exactly the manifest of the version-2 archive of
// the same input, so a receiver can check either against one signature.
TEST(Signing, IndexedManifestEqualsShardedManifest) {
  CorpusSpec Spec;
  Spec.Name = "signing";
  Spec.Seed = 99;
  Spec.NumClasses = 12;
  Spec.NumPackages = 2;
  std::vector<NamedClass> Raw = generateCorpus(Spec);
  PackOptions Sharded;
  Sharded.Shards = 2;
  PackOptions Indexed = Sharded;
  Indexed.RandomAccessIndex = true;
  auto V2 = packClassBytes(Raw, Sharded);
  auto V3 = packClassBytes(Raw, Indexed);
  ASSERT_TRUE(V2 && V3);
  ASSERT_EQ(V2->Archive[4], FormatVersionSharded);
  ASSERT_EQ(V3->Archive[4], FormatVersionIndexed);

  auto M2 = manifestForPackedArchive(V2->Archive);
  auto M3 = manifestForPackedArchive(V3->Archive);
  ASSERT_TRUE(static_cast<bool>(M2)) << M2.message();
  ASSERT_TRUE(static_cast<bool>(M3)) << M3.message();
  EXPECT_EQ(M3->Entries.size(), Raw.size());
  EXPECT_EQ(writeManifest(*M3), writeManifest(*M2));
}
