//===- fuzz_unpack.cpp - fuzz the packed-archive decoder ------------------===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Feeds arbitrary bytes to unpackClasses, covering the archive header,
// all three wire-format versions (version 3 through the lazy reader),
// the shared dictionary, the sharded stream container, and the full
// reference/bytecode decode path. Any outcome but a typed Error, or
// classes meeting the restore contract (RestoreContract.h), is a bug.
//
// A version-2 archive decodes its shards concurrently, so such an input
// is decoded on four threads too, which must restore the same class
// bytes, or fail with the same error code and message.
//
//===----------------------------------------------------------------------===//

#include "RestoreContract.h"
#include "pack/Packer.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t *Data, size_t Size) {
  std::vector<uint8_t> Bytes(Data, Data + Size);
  cjpack::UnpackOptions Options;
  // One thread keeps iterations deterministic and cheap; tightened
  // limits bound the memory a hostile header can demand per iteration.
  Options.Threads = 1;
  Options.Limits.MaxClasses = 1u << 12;
  Options.Limits.MaxStreamBytes = 1u << 24;
  Options.Limits.MaxInflateBytes = 1u << 26;
  auto Result = cjpack::unpackClasses(Bytes, Options);
  if (Size > 4 && Data[4] == cjpack::FormatVersionSharded) {
    cjpack::UnpackOptions Four = Options;
    Four.Threads = 4;
    auto Parallel = cjpack::unpackClasses(Bytes, Four);
    if (static_cast<bool>(Parallel) != static_cast<bool>(Result))
      abort();
    if (!Result) {
      if (Parallel.code() != Result.code() ||
          Parallel.message() != Result.message())
        abort();
    } else {
      if (Parallel->size() != Result->size())
        abort();
      for (size_t I = 0; I < Result->size(); ++I)
        if (cjpack::writeClassFile((*Parallel)[I]) !=
            cjpack::writeClassFile((*Result)[I]))
          abort();
    }
  }
  if (Result) // a typed Error is the expected outcome on garbage
    requireValidCanonical(*Result, Options.Limits);
  return 0;
}
