//===- Dictionary.h - shared definitions across shards ---------*- C++ -*-===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The sharded wire format's shared dictionary. Splitting an archive
/// into independently-coded shards makes every shard redefine the
/// strings and class references the shards have in common — almost all
/// of the sharding size overhead. The dictionary factors those shared
/// definitions out: it is serialized once after the archive header, and
/// both sides replay it into every shard's model and reference coder
/// (via the §14 preload mechanism) before the shard is coded, so a
/// shard references a shared object by queue index and never by
/// definition.
///
/// Replay uses Model interning, which is idempotent, so replaying the
/// same dictionary in the same order yields the same object ids on the
/// compressor and decompressor. Only strings and class references are
/// shared: field/method references barely recur across shards, and
/// their per-shard definitions already collapse to cheap references
/// into the dictionary.
///
/// Schemes without preload support (Freq/Cache) use an empty
/// dictionary; their shards stay fully independent.
///
//===----------------------------------------------------------------------===//

#ifndef CJPACK_PACK_DICTIONARY_H
#define CJPACK_PACK_DICTIONARY_H

#include "coder/RefCoder.h"
#include "pack/Model.h"
#include "support/ByteBuffer.h"
#include "support/DecodeLimits.h"
#include "support/Error.h"
#include <span>
#include <string>
#include <vector>

namespace cjpack {

/// A class reference in the dictionary. Package/Simple index the
/// dictionary's own Packages/Simples lists (unused unless Base is 'L').
struct DictClassRef {
  uint8_t Dims = 0;
  char Base = 'L';
  uint32_t Package = 0;
  uint32_t Simple = 0;
};

/// The string and class-reference definitions shared across shards.
struct SharedDictionary {
  std::vector<std::string> Packages, Simples, FieldNames, MethodNames,
      Strings;
  std::vector<DictClassRef> ClassRefs;

  bool empty() const {
    return Packages.empty() && Simples.empty() && FieldNames.empty() &&
           MethodNames.empty() && Strings.empty() && ClassRefs.empty();
  }

  size_t entryCount() const {
    return Packages.size() + Simples.size() + FieldNames.size() +
           MethodNames.size() + Strings.size() + ClassRefs.size();
  }

  /// The frame's body: every list, unframed.
  std::vector<uint8_t> frameBody() const;

  /// The compressor of a frame body: level-9 deflate. The packer runs
  /// it as one task of the stream compression batch (BatchExtra).
  static std::vector<uint8_t> deflateFrame(std::span<const uint8_t> Body);

  /// Writes the frame of \p Body — varint raw length, varint stored
  /// length, stored bytes — storing \p Deflated when it is non-empty
  /// and strictly smaller than \p Body (stored length < raw length
  /// means deflate), else \p Body itself.
  static void writeFrame(ByteWriter &W, std::span<const uint8_t> Body,
                         std::span<const uint8_t> Deflated);

  /// Writes the whole frame at once, deflated when \p Compress is set
  /// and it helps.
  void serialize(ByteWriter &W, bool Compress) const;

  /// Parses a framed dictionary. The declared raw length is checked
  /// against \p Limits.MaxStreamBytes before inflating, inflation is
  /// capped by it, and every internal count/index is validated, so a
  /// hostile frame yields a typed Error rather than an OOM or overread.
  /// \p Budget, when non-null, is charged for the inflate output.
  static Expected<SharedDictionary>
  deserialize(ByteReader &R, const DecodeLimits &Limits = {},
              DecodeBudget *Budget = nullptr);
};

/// Builds the dictionary of values interned by at least two of
/// \p ShardModels. Values already present in \p Baseline (the standard
/// preload set; may be null) are skipped — they are seeded separately —
/// except where a shared class reference needs its strings in the
/// dictionary's index space.
///
/// Each pool's values are counted by value in a keyed IdIndex, strings
/// as views into the shard models; only the values that qualify are
/// copied out, sorted in byte order (strings) and in (dims, base,
/// package, simple name) order (class refs). The lists are therefore
/// independent of the index's key and of each model's id assignment.
SharedDictionary
buildSharedDictionary(const std::vector<const Model *> &ShardModels,
                      const Model *Baseline);

/// Replays \p D into (\p M, coder): interns every entry and preloads it
/// into the coder, in a fixed order both sides reproduce. Returns false
/// when the coder's scheme cannot preload (and \p D is non-empty).
bool preloadDictionary(Model &M, RefEncoder &Enc,
                       const SharedDictionary &D);
bool preloadDictionary(Model &M, RefDecoder &Dec,
                       const SharedDictionary &D);

} // namespace cjpack

#endif // CJPACK_PACK_DICTIONARY_H
