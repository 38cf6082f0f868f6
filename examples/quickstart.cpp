//===- quickstart.cpp - cjpack in twenty lines -----------------*- C++ -*-===//
//
// Part of cjpack. MIT license.
//
// The minimal end-to-end flow: take a collection of classfiles, pack
// them into the paper's wire format, unpack them back, and check the
// round trip. Here the classfiles come from the synthetic corpus
// generator; in a real deployment they would come from a jar.
//
//===----------------------------------------------------------------------===//

#include "corpus/Corpus.h"
#include "pack/Packer.h"
#include "zip/Jar.h"
#include <cstdio>

using namespace cjpack;

int main() {
  // 1. Get some classfiles (name + raw bytes).
  CorpusSpec Spec;
  Spec.Name = "quickstart";
  Spec.Seed = 42;
  Spec.NumClasses = 50;
  Spec.NumPackages = 4;
  std::vector<NamedClass> Classes = generateCorpus(Spec);
  printf("input: %zu classfiles, %zu bytes\n", Classes.size(),
         totalClassBytes(Classes));

  // 2. Pack. packClassBytes parses each class and lowers it into the
  //    wire format, keeping only what the format carries (debug info and
  //    constant-pool order never travel: the paper's §2 preprocessing),
  //    with the shipping configuration (move-to-front with transients
  //    and stack-state contexts).
  auto Packed = packClassBytes(Classes, PackOptions());
  if (!Packed) {
    fprintf(stderr, "pack failed: %s\n", Packed.message().c_str());
    return 1;
  }
  size_t JarSize = buildJar(Classes).size();
  printf("jar:    %zu bytes\n", JarSize);
  printf("packed: %zu bytes (%.0f%% of the jar)\n",
         Packed->Archive.size(),
         100.0 * Packed->Archive.size() / JarSize);

  // 3. Unpack. Decompression is deterministic (§12): the same archive
  //    always reproduces identical classfiles, ready for any JVM.
  auto Restored = unpackArchive(Packed->Archive);
  if (!Restored) {
    fprintf(stderr, "unpack failed: %s\n", Restored.message().c_str());
    return 1;
  }
  printf("unpacked %zu classfiles, %zu bytes\n", Restored->size(),
         totalClassBytes(*Restored));

  // 4. Verify: pack the restored classes again; byte-identical archive.
  auto Again = packClassBytes(*Restored, PackOptions());
  if (!Again || Again->Archive != Packed->Archive) {
    fprintf(stderr, "round trip mismatch!\n");
    return 1;
  }
  printf("round trip verified: repack is byte-identical\n");
  return 0;
}
