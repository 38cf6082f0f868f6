//===- fuzz_backend.cpp - fuzz the compression backend registry -----------===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Drives the pluggable compression backends with arbitrary bytes. The
// first input byte selects a backend (values past the registry exercise
// the unknown-id path); the tail is fed to its decompressor, which must
// return a typed Error or a bounded buffer — never crash, over-read, or
// allocate past the declared cap. Whatever it accepts, and the raw tail
// itself, must then survive a compress→decompress round trip on every
// backend byte-identically: the differential oracle that keeps the four
// codecs interchangeable. The input length picks the stream the tail is
// compressed as, so every per-stream deflate setting gets fuzzed.
//
//===----------------------------------------------------------------------===//

#include "pack/Backend.h"
#include "pack/Streams.h"
#include <cstdlib>

using namespace cjpack;

namespace {

/// Declared-raw cap for hostile decompression: bounded, but roomy
/// enough that real seed payloads decode fully.
constexpr size_t FuzzRawCap = 1 << 16;

void roundTripOrDie(const CompressionBackend &B, StreamId Stream,
                    const std::vector<uint8_t> &Raw) {
  std::vector<uint8_t> Stored = B.Compress(Raw, Stream);
  auto Back = B.Decompress(Stored, Raw.size());
  if (!Back || *Back != Raw)
    abort(); // a backend that cannot read its own output is a bug
}

} // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t *Data, size_t Size) {
  if (Size == 0)
    return 0;

  std::vector<uint8_t> Tail(Data + 1, Data + Size);
  if (Tail.size() > FuzzRawCap)
    Tail.resize(FuzzRawCap);
  StreamId Stream = static_cast<StreamId>(Size % NumStreams);

  if (const CompressionBackend *B = findBackend(Data[0])) {
    auto Raw = B->Decompress(Tail, FuzzRawCap);
    if (Raw) {
      if (Raw->size() > FuzzRawCap)
        abort(); // decompressor ignored the declared cap
      // Anything a backend decodes must re-encode losslessly.
      roundTripOrDie(*B, Stream, *Raw);
    } else if (Raw.code() == ErrorCode::Other) {
      abort(); // decode failure escaped the taxonomy
    }
  }

  for (const CompressionBackend &B : allBackends())
    roundTripOrDie(B, Stream, Tail);
  return 0;
}
