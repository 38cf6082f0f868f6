//===- Zlib.h - deflate/inflate wrappers -----------------------*- C++ -*-===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Thin wrappers over zlib: raw deflate (no zlib/gzip framing, as used
/// inside zip members and the packed archive), inflate, and crc32. The
/// paper uses gzip and zlib interchangeably and excludes framing bytes
/// from its size accounting; raw deflate matches that accounting.
///
//===----------------------------------------------------------------------===//

#ifndef CJPACK_ZIP_ZLIB_H
#define CJPACK_ZIP_ZLIB_H

#include "support/Error.h"
#include <cstdint>
#include <span>
#include <vector>

namespace cjpack {

/// zlib's deflate strategies: Default runs LZ77 matching then Huffman
/// coding; HuffmanOnly skips matching (Z_HUFFMAN_ONLY); Rle matches only
/// runs of the previous byte (Z_RLE).
enum class DeflateStrategy : uint8_t { Default, HuffmanOnly, Rle };

/// One deflate configuration: a level (1..9) and a strategy. Any
/// setting writes plain raw deflate, so inflateBytes reads them all.
struct DeflateSetting {
  int Level = 9;
  DeflateStrategy Strategy = DeflateStrategy::Default;
};

/// Compresses \p Data with raw deflate under \p Setting.
std::vector<uint8_t> deflateBytes(std::span<const uint8_t> Data,
                                  DeflateSetting Setting = {});

/// Decompresses raw-deflate \p Data; \p ExpectedSize is a sizing hint
/// (0 when unknown). \p MaxOutput, when non-zero, is a hard cap on the
/// decompressed size: the moment output crosses it, inflation stops
/// with a LimitExceeded error, so a deflate bomb costs at most
/// MaxOutput bytes of memory. Callers that know the exact declared
/// size should pass it as both arguments.
Expected<std::vector<uint8_t>> inflateBytes(std::span<const uint8_t> Data,
                                            size_t ExpectedSize = 0,
                                            size_t MaxOutput = 0);

/// CRC-32 of \p Data (the zip/gzip polynomial).
uint32_t crc32Of(std::span<const uint8_t> Data);

} // namespace cjpack

#endif // CJPACK_ZIP_ZLIB_H
