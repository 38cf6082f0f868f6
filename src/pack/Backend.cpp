//===- Backend.cpp - pluggable compression backends -----------------------===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//

#include "pack/Backend.h"
#include "coder/Arithmetic.h"
#include "coder/Huffman.h"
#include "pack/Streams.h"
#include "zip/Zlib.h"

using namespace cjpack;

namespace {

std::vector<uint8_t> storeCompress(std::span<const uint8_t> Raw, StreamId) {
  return {Raw.begin(), Raw.end()};
}

Expected<std::vector<uint8_t>>
storeDecompress(std::span<const uint8_t> Stored, size_t DeclaredRaw) {
  if (Stored.size() > (DeclaredRaw != 0 ? DeclaredRaw : 1))
    return makeError(ErrorCode::LimitExceeded,
                     "store: stored bytes exceed the container's raw "
                     "length");
  return std::vector<uint8_t>(Stored.begin(), Stored.end());
}

std::vector<uint8_t> zlibCompress(std::span<const uint8_t> Raw,
                                  StreamId Stream) {
  return deflateBytes(Raw, deflateSetting(Stream));
}

Expected<std::vector<uint8_t>>
zlibDecompress(std::span<const uint8_t> Stored, size_t DeclaredRaw) {
  return inflateBytes(Stored, DeclaredRaw, DeclaredRaw != 0 ? DeclaredRaw : 1);
}

std::vector<uint8_t> huffmanStreamCompress(std::span<const uint8_t> Raw,
                                           StreamId) {
  return huffmanCompress(Raw);
}

std::vector<uint8_t> arithStreamCompress(std::span<const uint8_t> Raw,
                                         StreamId) {
  return arithCompressBytes(Raw);
}

const std::array<CompressionBackend, NumBackends> Registry = {{
    {BackendId::Store, "store", storeCompress, storeDecompress},
    {BackendId::Zlib, "zlib", zlibCompress, zlibDecompress},
    {BackendId::Huffman, "huffman", huffmanStreamCompress,
     huffmanDecompress},
    {BackendId::Arith, "arith", arithStreamCompress, arithDecompressBytes},
}};

} // namespace

const std::array<CompressionBackend, NumBackends> &cjpack::allBackends() {
  return Registry;
}

const CompressionBackend *cjpack::findBackend(uint8_t WireId) {
  if (WireId >= NumBackends)
    return nullptr;
  return &Registry[WireId];
}

const CompressionBackend *cjpack::findBackendByName(std::string_view Name) {
  for (const CompressionBackend &B : Registry)
    if (Name == B.Name)
      return &B;
  return nullptr;
}
