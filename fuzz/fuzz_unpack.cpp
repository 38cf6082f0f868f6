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
  if (Result) // a typed Error is the expected outcome on garbage
    requireValidCanonical(*Result, Options.Limits);
  return 0;
}
