//===- Streams.h - separated wire streams (§4, §7) -------------*- C++ -*-===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The packed format separates dissimilar data into independent byte
/// streams — opcodes, register numbers, integer constants, each kind of
/// reference, string lengths, string characters — and compresses each
/// with zlib (§4, §7, [EEF+97]). StreamSet is that container plus its
/// serialization. Every stream carries a reporting category so the
/// Table 6 composition columns (Strings/Opcodes/Ints/Refs/Misc) fall out
/// of the per-stream packed sizes.
///
//===----------------------------------------------------------------------===//

#ifndef CJPACK_PACK_STREAMS_H
#define CJPACK_PACK_STREAMS_H

#include "pack/Backend.h"
#include "support/ByteBuffer.h"
#include "support/DecodeLimits.h"
#include "support/Error.h"
#include "zip/Zlib.h"
#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace cjpack {

class ThreadPool;

/// Wire-format versions, written in the archive header after the
/// magic. Version 1 is the original single-shard layout: header, then
/// one serialized StreamSet. Version 2 is the sharded layout: header,
/// then the shared dictionary frame, then the shards' streams in the
/// grouped container written by serializeShardedStreams. Single-shard
/// archives are always written as version 1, so the sharded pipeline at
/// shard-count 1 is byte-identical to the original format. Version 3
/// (opt-in via PackOptions::RandomAccessIndex) is the random-access
/// layout: header, then a per-class index frame, then the dictionary
/// frame, then each shard's streams serialized as an independent blob so
/// a reader can locate and inflate exactly one shard (ArchiveIndex.h,
/// ArchiveReader.h). The versioning rule: any change to the byte layout
/// bumps the version, and decoders must reject versions they do not
/// know with a typed VersionMismatch error.
inline constexpr uint8_t FormatVersionSerial = 1;
inline constexpr uint8_t FormatVersionSharded = 2;
inline constexpr uint8_t FormatVersionIndexed = 3;

/// Upper bound on shards per archive; a header claiming more is corrupt.
inline constexpr size_t MaxShards = 4096;

/// The separated streams of the packed format.
enum class StreamId : uint8_t {
  Counts,           ///< structure counts, versions, lengths, misc headers
  Flags,            ///< access flags (with attribute-presence bits, §4)
  Registers,        ///< local-variable numbers from bytecode
  BranchOffsets,    ///< relative branch/switch targets
  IntConsts,        ///< bipush/sipush/iinc/ldc-int/switch keys/const fields
  FloatConsts,      ///< float constant raw bits
  LongConsts,       ///< long constant raw bits
  DoubleConsts,     ///< double constant raw bits
  Opcodes,          ///< opcode stream (with collapse/ldc pseudo-opcodes)
  PackageRefs,      ///< references to package names
  SimpleNameRefs,   ///< references to simple class names
  ClassRefs,        ///< references to ClassRef objects
  FieldNameRefs,    ///< references to field names
  MethodNameRefs,   ///< references to method names
  FieldRefs,        ///< references to FieldRef objects
  MethodRefs,       ///< references to MethodRef objects
  StringConstRefs,  ///< references to string constants
  StringLengths,    ///< lengths of all newly defined strings
  NameChars,        ///< characters of member names
  ClassNameChars,   ///< characters of package + simple class names
  StringConstChars, ///< characters of string constants
};

inline constexpr unsigned NumStreams =
    static_cast<unsigned>(StreamId::StringConstChars) + 1;

/// Reporting categories for Table 6's composition columns.
enum class StreamCategory : uint8_t { Strings, Opcodes, Ints, Refs, Misc };

inline constexpr unsigned NumStreamCategories =
    static_cast<unsigned>(StreamCategory::Misc) + 1;

/// Category of \p Id. The switch is exhaustive with no default, so adding
/// a StreamId enumerator without classifying it breaks the -Werror build
/// (-Wswitch), and the static_asserts below keep the classification in
/// sync with NumStreams.
constexpr StreamCategory streamCategory(StreamId Id) {
  switch (Id) {
  case StreamId::StringLengths:
  case StreamId::NameChars:
  case StreamId::ClassNameChars:
  case StreamId::StringConstChars:
    return StreamCategory::Strings;
  case StreamId::Opcodes:
    return StreamCategory::Opcodes;
  case StreamId::IntConsts:
    return StreamCategory::Ints;
  case StreamId::PackageRefs:
  case StreamId::SimpleNameRefs:
  case StreamId::ClassRefs:
  case StreamId::FieldNameRefs:
  case StreamId::MethodNameRefs:
  case StreamId::FieldRefs:
  case StreamId::MethodRefs:
  case StreamId::StringConstRefs:
    return StreamCategory::Refs;
  case StreamId::Counts:
  case StreamId::Flags:
  case StreamId::Registers:
  case StreamId::BranchOffsets:
  case StreamId::FloatConsts:
  case StreamId::LongConsts:
  case StreamId::DoubleConsts:
    return StreamCategory::Misc;
  }
  return StreamCategory::Misc; // unreachable for in-range ids
}

/// The zlib backend's deflate setting for stream \p Id, exhaustive like
/// streamCategory. Level 9 pays off on some streams only (DESIGN.md has
/// every stream's bytes and times):
///  - the move-to-front reference streams and StringLengths are small
///    integers where LZ77 matches cost more bits than they save: on the
///    benchmark jars Huffman coding alone is 9% smaller and six times
///    faster. FieldRefs is smaller still under Z_RLE, which matches only
///    runs of the previous byte;
///  - LongConsts and DoubleConsts are fixed 8-byte records that walk
///    level 9's hash chains to their 4096 limit: Huffman-only (longs)
///    and level 6 (doubles) cost 3-5% of their bytes and 1-5% of the
///    time;
///  - Opcodes is the largest stream and the batch's longest task:
///    level 6 halves its time for 0.8% more of its bytes;
///  - the rest, SimpleNameRefs' long runs of MTF zeros among them, keep
///    level 9.
/// The setting is the encoder's alone: every setting writes plain raw
/// deflate, so the decoder and the wire format do not see it.
constexpr DeflateSetting deflateSetting(StreamId Id) {
  constexpr DeflateSetting Level9{9, DeflateStrategy::Default};
  constexpr DeflateSetting Level6{6, DeflateStrategy::Default};
  constexpr DeflateSetting HuffmanOnly{9, DeflateStrategy::HuffmanOnly};
  constexpr DeflateSetting Rle{9, DeflateStrategy::Rle};
  switch (Id) {
  case StreamId::FieldRefs:
    return Rle;
  case StreamId::PackageRefs:
  case StreamId::ClassRefs:
  case StreamId::FieldNameRefs:
  case StreamId::MethodNameRefs:
  case StreamId::MethodRefs:
  case StreamId::StringConstRefs:
  case StreamId::StringLengths:
  case StreamId::LongConsts:
    return HuffmanOnly;
  case StreamId::DoubleConsts:
  case StreamId::Opcodes:
    return Level6;
  case StreamId::Counts:
  case StreamId::Flags:
  case StreamId::Registers:
  case StreamId::BranchOffsets:
  case StreamId::IntConsts:
  case StreamId::FloatConsts:
  case StreamId::SimpleNameRefs:
  case StreamId::NameChars:
  case StreamId::ClassNameChars:
  case StreamId::StringConstChars:
    return Level9;
  }
  return Level9; // unreachable for in-range ids
}

/// Printable name of \p Id; exhaustive like streamCategory.
constexpr const char *streamName(StreamId Id) {
  switch (Id) {
  case StreamId::Counts: return "Counts";
  case StreamId::Flags: return "Flags";
  case StreamId::Registers: return "Registers";
  case StreamId::BranchOffsets: return "BranchOffsets";
  case StreamId::IntConsts: return "IntConsts";
  case StreamId::FloatConsts: return "FloatConsts";
  case StreamId::LongConsts: return "LongConsts";
  case StreamId::DoubleConsts: return "DoubleConsts";
  case StreamId::Opcodes: return "Opcodes";
  case StreamId::PackageRefs: return "PackageRefs";
  case StreamId::SimpleNameRefs: return "SimpleNameRefs";
  case StreamId::ClassRefs: return "ClassRefs";
  case StreamId::FieldNameRefs: return "FieldNameRefs";
  case StreamId::MethodNameRefs: return "MethodNameRefs";
  case StreamId::FieldRefs: return "FieldRefs";
  case StreamId::MethodRefs: return "MethodRefs";
  case StreamId::StringConstRefs: return "StringConstRefs";
  case StreamId::StringLengths: return "StringLengths";
  case StreamId::NameChars: return "NameChars";
  case StreamId::ClassNameChars: return "ClassNameChars";
  case StreamId::StringConstChars: return "StringConstChars";
  }
  return "?"; // unreachable for in-range ids
}

constexpr const char *streamCategoryName(StreamCategory C) {
  switch (C) {
  case StreamCategory::Strings: return "Strings";
  case StreamCategory::Opcodes: return "Opcodes";
  case StreamCategory::Ints: return "Ints";
  case StreamCategory::Refs: return "Refs";
  case StreamCategory::Misc: return "Misc";
  }
  return "?"; // unreachable for in-range categories
}

namespace detail {

/// True when every in-range StreamId has a real name (not the
/// out-of-range sentinel).
constexpr bool allStreamsNamed() {
  for (unsigned I = 0; I < NumStreams; ++I) {
    const char *Name = streamName(static_cast<StreamId>(I));
    if (Name[0] == '?' || Name[0] == '\0')
      return false;
  }
  return true;
}

/// Number of streams classified into \p C.
constexpr unsigned streamsInCategory(StreamCategory C) {
  unsigned N = 0;
  for (unsigned I = 0; I < NumStreams; ++I)
    if (streamCategory(static_cast<StreamId>(I)) == C)
      ++N;
  return N;
}

} // namespace detail

static_assert(detail::allStreamsNamed(),
              "every StreamId needs a printable name");
static_assert(detail::streamsInCategory(StreamCategory::Strings) == 4 &&
                  detail::streamsInCategory(StreamCategory::Opcodes) == 1 &&
                  detail::streamsInCategory(StreamCategory::Ints) == 1 &&
                  detail::streamsInCategory(StreamCategory::Refs) == 8 &&
                  detail::streamsInCategory(StreamCategory::Misc) == 7,
              "stream category composition changed; update Table 6 "
              "reporting and these expected counts");
static_assert(detail::streamsInCategory(StreamCategory::Strings) +
                      detail::streamsInCategory(StreamCategory::Opcodes) +
                      detail::streamsInCategory(StreamCategory::Ints) +
                      detail::streamsInCategory(StreamCategory::Refs) +
                      detail::streamsInCategory(StreamCategory::Misc) ==
                  NumStreams,
              "every stream must land in exactly one category");

/// Which compression backend each stream's final stage uses. The
/// serializers keep the "compress only if strictly smaller, else
/// store" fallback per stream, so a plan is a preference, not a
/// guarantee — the wire method byte records what actually happened.
struct BackendPlan {
  std::array<BackendId, NumStreams> Stream;

  BackendPlan() { Stream.fill(BackendId::Zlib); }

  static BackendPlan uniform(BackendId Id) {
    BackendPlan P;
    P.Stream.fill(Id);
    return P;
  }
};

/// Per-stream raw and packed byte counts, filled in by serialization,
/// plus item counts (varints, strings, fixed-width values written to the
/// stream) recorded by the encoder's emitting pass.
struct StreamSizes {
  std::array<size_t, NumStreams> Raw{};
  std::array<size_t, NumStreams> Packed{};
  std::array<uint64_t, NumStreams> Items{};

  size_t totalRaw() const;
  size_t totalPacked() const;
  size_t packedOf(StreamCategory C) const;
  uint64_t totalItems() const;

  /// Accumulates \p Other stream-by-stream (shard totals roll up into
  /// one per-archive accounting).
  void add(const StreamSizes &Other);
};

/// A set of named byte streams being written or read.
class StreamSet {
public:
  /// Writer side: the sink for \p Id.
  ByteWriter &out(StreamId Id) {
    return Writers[static_cast<unsigned>(Id)];
  }

  /// Reader side: the source for \p Id (valid after deserialize).
  ByteReader &in(StreamId Id) {
    auto &Slot = Readers[static_cast<unsigned>(Id)];
    assert(Slot && "stream not deserialized");
    return *Slot;
  }

  /// Writer side: the finished raw bytes of \p Id.
  const std::vector<uint8_t> &raw(StreamId Id) const {
    return Writers[static_cast<unsigned>(Id)].data();
  }

  /// Reader side: installs \p Bytes as the full contents of \p Id
  /// (the sharded container slices each stream's joint buffer back into
  /// per-shard stream sets this way).
  void adopt(StreamId Id, std::vector<uint8_t> Bytes);

  /// Serializes all written streams: per stream a header (id, method,
  /// raw size, stored size) followed by the bytes as stored by the
  /// stream's planned backend (falling back to store when compression
  /// does not strictly shrink). The accounting is added to \p Sizes.
  /// The streams compress on \p Pool's workers when given; the bytes
  /// are the same without it.
  std::vector<uint8_t> serialize(const BackendPlan &Plan, StreamSizes *Sizes,
                                 ThreadPool *Pool = nullptr) const;

  /// Parses bytes produced by serialize. Declared lengths are checked
  /// against \p Limits.MaxStreamBytes before any allocation, and
  /// inflation is capped by the declared raw size. \p Budget, when
  /// non-null, is charged for every byte of inflate output, so callers
  /// that decode many stream sets against one archive (the lazy reader)
  /// share one decompression-bomb bound and can account for how much
  /// they actually inflated.
  Error deserialize(ByteReader &R, const DecodeLimits &Limits = {},
                    DecodeBudget *Budget = nullptr);

private:
  std::array<ByteWriter, NumStreams> Writers;
  std::array<std::vector<uint8_t>, NumStreams> Buffers;
  std::array<std::unique_ptr<ByteReader>, NumStreams> Readers;
};

/// One stream's directory entry, read. Both containers lay an entry out
/// the same way: id byte, method byte (the backend's wire id), one
/// varint raw length per shard, varint stored length, stored bytes.
struct StoredStream {
  uint8_t Method = 0;
  uint64_t RawTotal = 0;
  /// The stored bytes, a slice of the input.
  std::span<const uint8_t> Stored;
};

/// Reads stream \p Id's entry, filling one raw length per element of
/// \p RawLens. Checks the id (streams come in id order, so none is left
/// unread), the method byte, every length against \p Limits, and a
/// stored stream's size, all before anything is allocated. The one
/// reader of the stream directory: both deserializers and the stats
/// walk use it.
Expected<StoredStream> readStreamEntry(ByteReader &R, unsigned Id,
                                       std::span<uint64_t> RawLens,
                                       const DecodeLimits &Limits);

/// A buffer outside the stream directory that compresses as one more
/// task of a stream batch: the shared dictionary's frame body
/// (Dictionary.h), so its deflate runs beside the streams' instead of
/// serially before or after them. The batch sets Out to Compress(Raw).
struct BatchExtra {
  std::span<const uint8_t> Raw;
  std::vector<uint8_t> (*Compress)(std::span<const uint8_t> Raw);
  std::vector<uint8_t> Out;
};

/// Serializes each of \p Sets as StreamSet::serialize does, compressing
/// every set's streams (and \p Extra, when given) as one batch on
/// \p Pool (when given), so the version-3 shard blobs compress
/// concurrently. The accounting of all sets is added to \p Sizes.
std::vector<std::vector<uint8_t>>
serializeStreamSets(std::span<const StreamSet> Sets, const BackendPlan &Plan,
                    StreamSizes *Sizes, ThreadPool *Pool = nullptr,
                    BatchExtra *Extra = nullptr);

/// Serializes \p Shards into the version-2 grouped stream container.
/// Each of the NumStreams streams stores its shards' bytes concatenated
/// and compressed as one unit — per-shard compression would fragment
/// the compressor's context and cost several percent — with per-shard
/// raw lengths so the decoder can slice the shards back out and decode
/// them concurrently. Layout: varint shard count, then per stream in id
/// order: id byte, method byte, one varint raw length per shard, varint
/// stored length, stored bytes. The container is a pure function of the
/// shards' contents. \p Sizes receives the per-stream accounting, with
/// each stream charged its own directory header. The joined streams,
/// and \p Extra when given, compress as one batch on \p Pool's workers
/// when given.
std::vector<uint8_t> serializeShardedStreams(
    const std::vector<StreamSet> &Shards, const BackendPlan &Plan,
    StreamSizes *Sizes, ThreadPool *Pool = nullptr,
    BatchExtra *Extra = nullptr);

/// Parses a container written by serializeShardedStreams back into
/// per-shard stream sets, validating the shard count and every
/// promised length against \p Limits before allocating. \p Budget,
/// when non-null, is charged for every byte of inflate output.
Expected<std::vector<StreamSet>>
deserializeShardedStreams(ByteReader &R, const DecodeLimits &Limits = {},
                          DecodeBudget *Budget = nullptr);

} // namespace cjpack

#endif // CJPACK_PACK_STREAMS_H
