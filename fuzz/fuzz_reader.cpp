//===- fuzz_reader.cpp - fuzz the lazy indexed-archive reader -------------===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Feeds arbitrary bytes to PackedArchiveReader, covering the version-3
// header, the per-class index frame, the shared dictionary, lazy shard
// setup, and single-class materialization — the random-access surface.
// Where fuzz_unpack reaches the reader only through the full sweep,
// this target also drives the point lookup, so a shard can decode a
// prefix before the sweep. Any outcome but a typed Error, or classes
// meeting the restore contract (RestoreContract.h), is a bug.
//
// The sweep decodes shards concurrently, so the target also checks that
// the thread count changes nothing: two fresh readers decoding on one
// and on four threads must restore the same class bytes, or fail with
// the same error code and message. Serving bytes must change nothing
// either: class by class, a fresh reader's unpackClassBytes must give
// writeClassFile of a fresh reader's unpackClass, or the same error.
//
//===----------------------------------------------------------------------===//

#include "RestoreContract.h"
#include "pack/ArchiveReader.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t *Data, size_t Size) {
  cjpack::DecodeLimits Limits;
  // Tightened limits bound the memory a hostile index or stream header
  // can demand per iteration.
  Limits.MaxClasses = 1u << 12;
  Limits.MaxStreamBytes = 1u << 24;
  Limits.MaxInflateBytes = 1u << 26;
  auto Reader = cjpack::PackedArchiveReader::open(Data, Size, Limits);
  if (!Reader)
    return 0; // a typed Error is the expected outcome on garbage
  // One point lookup first (decodes a single shard lazily), then the
  // full sweep; both may fail with typed errors on mutated payloads.
  auto Names = Reader->classNames();
  if (!Names.empty())
    (void)Reader->unpackClass(Names[Names.size() / 2]);
  (void)Reader->unpackAll();

  // Open succeeded once, and it decodes nothing but the frames, so it
  // succeeds again.
  auto Serial = cjpack::PackedArchiveReader::open(Data, Size, Limits);
  auto Parallel = cjpack::PackedArchiveReader::open(Data, Size, Limits);
  auto Served = cjpack::PackedArchiveReader::open(Data, Size, Limits);
  auto Restored = cjpack::PackedArchiveReader::open(Data, Size, Limits);
  if (!Serial || !Parallel || !Served || !Restored)
    abort();
  for (const std::string &Name : Names) {
    auto Got = Served->unpackClassBytes(Name);
    auto CF = Restored->unpackClass(Name);
    if (static_cast<bool>(Got) != static_cast<bool>(CF))
      abort();
    if (!CF) {
      if (Got.code() != CF.code() || Got.message() != CF.message())
        abort();
    } else if (*Got != cjpack::writeClassFile(*CF)) {
      abort();
    }
  }
  auto One = Serial->unpackAll(1);
  auto Four = Parallel->unpackAll(4);
  if (static_cast<bool>(One) != static_cast<bool>(Four))
    abort();
  if (!One) {
    if (One.code() != Four.code() || One.message() != Four.message())
      abort();
    return 0;
  }
  if (One->size() != Four->size())
    abort();
  for (size_t I = 0; I < One->size(); ++I)
    if (cjpack::writeClassFile((*One)[I]) !=
        cjpack::writeClassFile((*Four)[I]))
      abort();
  requireValidCanonical(*One, Limits);
  return 0;
}
