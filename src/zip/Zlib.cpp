//===- Zlib.cpp - deflate/inflate wrappers --------------------------------===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//

#include "zip/Zlib.h"
#include <zlib.h>

using namespace cjpack;

namespace {

int zlibStrategy(DeflateStrategy S) {
  switch (S) {
  case DeflateStrategy::Default:
    return Z_DEFAULT_STRATEGY;
  case DeflateStrategy::HuffmanOnly:
    return Z_HUFFMAN_ONLY;
  case DeflateStrategy::Rle:
    return Z_RLE;
  }
  return Z_DEFAULT_STRATEGY; // unreachable for in-range strategies
}

} // namespace

std::vector<uint8_t> cjpack::deflateBytes(std::span<const uint8_t> Data,
                                          DeflateSetting Setting) {
  z_stream S{};
  // windowBits = -15 selects raw deflate (no zlib header/trailer).
  [[maybe_unused]] int Rc =
      deflateInit2(&S, Setting.Level, Z_DEFLATED, -15, 9,
                   zlibStrategy(Setting.Strategy));
  assert(Rc == Z_OK && "deflateInit2 failed");
  std::vector<uint8_t> Out(deflateBound(&S, Data.size()));
  S.next_in = const_cast<Bytef *>(Data.data());
  S.avail_in = static_cast<uInt>(Data.size());
  S.next_out = Out.data();
  S.avail_out = static_cast<uInt>(Out.size());
  Rc = deflate(&S, Z_FINISH);
  assert(Rc == Z_STREAM_END && "deflate did not finish in one pass");
  Out.resize(S.total_out);
  deflateEnd(&S);
  return Out;
}

Expected<std::vector<uint8_t>>
cjpack::inflateBytes(std::span<const uint8_t> Data, size_t ExpectedSize,
                     size_t MaxOutput) {
  z_stream S{};
  if (inflateInit2(&S, -15) != Z_OK)
    return Error::failure("inflate: init failed");
  std::vector<uint8_t> Out;
  size_t Initial = ExpectedSize ? ExpectedSize : (Data.size() * 4 + 64);
  if (MaxOutput && Initial > MaxOutput)
    Initial = MaxOutput;
  // ExpectedSize comes off the wire; trusting it for the upfront
  // allocation would let a tiny lying header demand gigabytes. Cap the
  // preallocation by what the input could plausibly inflate to (deflate
  // tops out near 1032:1) and grow geometrically if it really is large.
  size_t Plausible = Data.size() * 1032 + 64;
  if (Initial > Plausible)
    Initial = Plausible;
  // One extra byte past the cap lets a bomb be detected: output landing
  // strictly beyond MaxOutput fails instead of growing unbounded.
  Out.resize(Initial + (MaxOutput ? 1 : 0));
  S.next_in = const_cast<Bytef *>(Data.data());
  S.avail_in = static_cast<uInt>(Data.size());
  size_t Written = 0;
  int Rc = Z_OK;
  while (true) {
    S.next_out = Out.data() + Written;
    S.avail_out = static_cast<uInt>(Out.size() - Written);
    Rc = inflate(&S, Z_NO_FLUSH);
    Written = Out.size() - S.avail_out;
    if (MaxOutput && Written > MaxOutput) {
      inflateEnd(&S);
      return makeError(ErrorCode::LimitExceeded,
                       "inflate: output exceeds declared size");
    }
    if (Rc == Z_STREAM_END)
      break;
    if (Rc == Z_OK || Rc == Z_BUF_ERROR) {
      if (S.avail_in == 0 && Rc == Z_BUF_ERROR) {
        inflateEnd(&S);
        return makeError(ErrorCode::Truncated,
                         "inflate: truncated deflate stream");
      }
      if (S.avail_out == 0) {
        size_t Grown = Out.size() * 2 + 64;
        if (MaxOutput && Grown > MaxOutput + 1)
          Grown = MaxOutput + 1;
        Out.resize(Grown);
      }
      continue;
    }
    inflateEnd(&S);
    return makeError(ErrorCode::Corrupt, "inflate: corrupt deflate stream");
  }
  inflateEnd(&S);
  Out.resize(Written);
  return Out;
}

uint32_t cjpack::crc32Of(std::span<const uint8_t> Data) {
  return static_cast<uint32_t>(
      crc32(0L, Data.data(), static_cast<uInt>(Data.size())));
}
