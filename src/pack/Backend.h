//===- Backend.h - pluggable compression backends --------------*- C++ -*-===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The final compression stage behind a registry (tudocomp-style): each
/// stream's directory entry carries a method byte that IS the backend
/// wire id, so archives are self-describing (VXA-style) and every
/// stream of an archive can use a different backend.
///
/// Wire ids (the per-stream method byte):
///
///   0  store    bytes pass through unchanged
///   1  zlib     raw deflate, the default, with a deflate setting per
///               stream and reference scheme (deflateSetting in
///               pack/Streams.h)
///   2  huffman  canonical Huffman (coder/Huffman.h)
///   3  arith    adaptive arithmetic coder (coder/Arithmetic.h)
///
/// Encoders keep the historical "compress only if strictly smaller,
/// else store" fallback, so any archive may legitimately contain
/// method-0 streams regardless of the backend it was packed with.
///
/// The archive header additionally advertises a whole-archive backend
/// code in flags bits 3..5 — an advisory summary that works for v1/v2
/// headers too (0 = zlib/default keeps old archives bit-identical):
///
///   0 zlib   1 store   2 huffman   3 arith   4 mixed (per-stream)
///
/// Codes above 4 are reserved and rejected as Corrupt. The per-stream
/// method bytes remain authoritative for decoding.
///
//===----------------------------------------------------------------------===//

#ifndef CJPACK_PACK_BACKEND_H
#define CJPACK_PACK_BACKEND_H

#include "support/Error.h"
#include <array>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

namespace cjpack {

/// The separated wire streams (defined in pack/Streams.h). A backend's
/// compressor is told which stream it compresses.
enum class StreamId : uint8_t;

/// The reference schemes (defined in coder/RefCoder.h). A backend's
/// compressor is told which scheme wrote the stream.
enum class RefScheme : uint8_t;

/// Registered backend ids. Values are the wire method bytes.
enum class BackendId : uint8_t {
  Store = 0,
  Zlib = 1,
  Huffman = 2,
  Arith = 3,
};

inline constexpr unsigned NumBackends = 4;

constexpr const char *backendName(BackendId Id) {
  switch (Id) {
  case BackendId::Store:
    return "store";
  case BackendId::Zlib:
    return "zlib";
  case BackendId::Huffman:
    return "huffman";
  case BackendId::Arith:
    return "arith";
  }
  return "?";
}

/// One registered backend. Compress is infallible (worst case the
/// encoder's smaller-than-raw check discards the result) and takes the
/// stream it compresses and the reference scheme that wrote it: zlib
/// picks the deflate setting for the pair, the others ignore both. The
/// setting is the encoder's alone; Decompress
/// reads any of them. Decompress must cap its output at
/// max(DeclaredRaw, 1) bytes and fail with typed
/// Truncated/Corrupt/LimitExceeded errors on hostile input. Both sides
/// take borrowed spans so decoders can hand archive slices straight to
/// a backend without an intermediate copy.
struct CompressionBackend {
  BackendId Id;
  const char *Name;
  std::vector<uint8_t> (*Compress)(std::span<const uint8_t> Raw,
                                   StreamId Stream, RefScheme Scheme);
  Expected<std::vector<uint8_t>> (*Decompress)(std::span<const uint8_t> Stored,
                                               size_t DeclaredRaw);
};

/// All registered backends, indexed by wire id.
const std::array<CompressionBackend, NumBackends> &allBackends();

/// Backend for a wire method byte, or nullptr if unknown.
const CompressionBackend *findBackend(uint8_t WireId);

/// Backend by CLI name ("store", "zlib", ...), or nullptr.
const CompressionBackend *findBackendByName(std::string_view Name);

//===----------------------------------------------------------------------===//
// Archive-header backend code (flags bits 3..5)
//===----------------------------------------------------------------------===//

inline constexpr uint8_t BackendFlagShift = 3;
inline constexpr uint8_t BackendFlagMask = 0x7;

/// Header code 4: streams use per-stream backend choices.
inline constexpr uint8_t ArchiveBackendMixed = 4;

/// Header code for a uniform backend. Zlib maps to 0 so default
/// archives keep their historical flag byte.
constexpr uint8_t archiveBackendCode(BackendId Id) {
  switch (Id) {
  case BackendId::Zlib:
    return 0;
  case BackendId::Store:
    return 1;
  case BackendId::Huffman:
    return 2;
  case BackendId::Arith:
    return 3;
  }
  return 0;
}

/// Printable name for a header backend code (callers must have
/// validated Code <= ArchiveBackendMixed).
constexpr const char *archiveBackendCodeName(uint8_t Code) {
  switch (Code) {
  case 0:
    return "zlib";
  case 1:
    return "store";
  case 2:
    return "huffman";
  case 3:
    return "arith";
  case ArchiveBackendMixed:
    return "mixed";
  }
  return "?";
}

} // namespace cjpack

#endif // CJPACK_PACK_BACKEND_H
