//===- RefCoder.h - reference-encoding schemes (§5.1) ----------*- C++ -*-===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The eight reference-encoding schemes of §5.1 behind a common
/// encoder/decoder interface. A reference names an object that may have
/// been seen before; the encoding either says "new" (the caller then
/// encodes the object's definition) or identifies the previous object.
///
/// Sites are addressed by (Pool, Sub): Pool is the object universe (one
/// per reference kind — virtual methods, static fields, class refs, ...)
/// and Sub the context within it (the §5.1.6 context variants key method
/// pools by the top two approximate stack types). Schemes without
/// context ignore Sub. Callers that want the §5.1.1 "single pool for all
/// method references" behaviour of the Simple baseline pass coarser Pool
/// ids.
///
/// Index streams produced here are byte streams (varints, §6) meant to
/// be further compressed with zlib.
///
//===----------------------------------------------------------------------===//

#ifndef CJPACK_CODER_REFCODER_H
#define CJPACK_CODER_REFCODER_H

#include "support/ByteBuffer.h"
#include "support/PackTrace.h"
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

namespace cjpack {

/// The schemes evaluated in Table 3.
enum class RefScheme : uint8_t {
  Simple,               ///< fixed ids, two bytes each (baseline)
  Basic,                ///< fixed ids, varint encoded (baseline)
  Freq,                 ///< ids by frequency rank; shared transient id
  Cache,                ///< Freq + 16-entry move-to-front cache
  MtfBasic,             ///< one move-to-front queue per pool
  MtfTransients,        ///< MTF; once-only objects bypass the queue
  MtfContext,           ///< MTF with per-Sub context queues
  MtfTransientsContext, ///< both refinements (the shipping scheme)
};

/// Printable scheme name (bench tables).
const char *refSchemeName(RefScheme S);

/// Whether \p S needs a counting pre-pass (RefStats) on the encoder.
bool refSchemeNeedsStats(RefScheme S);

/// Whether \p S supports RefEncoder/RefDecoder::preload. The fixed-id
/// and MTF families do; Freq/Cache cannot (their ids come from a stats
/// pass the decoder replays from the wire).
bool refSchemeSupportsPreload(RefScheme S);

/// Per-pool occurrence counts from a pre-pass over the reference stream;
/// required by Freq, Cache, and the transient variants (an object is a
/// transient iff it occurs exactly once in its pool).
///
/// Precondition: pools and objects are dense ids (PoolKind values and
/// model object ids). Each pool's table grows to its largest object.
class RefStats {
public:
  void note(uint32_t Pool, uint32_t Object) { ++slot(Pool, Object); }

  /// Adds \p N occurrences at once (rebuilding stats under an object-id
  /// remap).
  void add(uint32_t Pool, uint32_t Object, uint32_t N) {
    slot(Pool, Object) += N;
  }

  /// Calls \p F(Pool, Object, Count) for every object noted at least
  /// once, in (pool, object) order — for id remapping.
  template <typename Fn> void forEachCount(Fn &&F) const {
    for (uint32_t Pool = 0; Pool < Counts.size(); ++Pool)
      for (uint32_t Object = 0; Object < Counts[Pool].size(); ++Object)
        if (uint32_t Count = Counts[Pool][Object])
          F(Pool, Object, Count);
  }

  uint32_t countOf(uint32_t Pool, uint32_t Object) const {
    return lookup(Counts, Pool, Object);
  }

  bool isTransient(uint32_t Pool, uint32_t Object) const {
    return countOf(Pool, Object) == 1;
  }

  /// Frequency rank of \p Object within \p Pool among recurring objects:
  /// 1 for the most frequent. 0 for transients.
  uint32_t rankOf(uint32_t Pool, uint32_t Object) const;

private:
  using Table = std::vector<std::vector<uint32_t>>; ///< [pool][object]

  static uint32_t lookup(const Table &T, uint32_t Pool, uint32_t Object) {
    return Pool < T.size() && Object < T[Pool].size() ? T[Pool][Object]
                                                      : 0;
  }
  uint32_t &slot(uint32_t Pool, uint32_t Object);
  void buildRanks() const;

  Table Counts;
  mutable Table Ranks;
  mutable bool RanksBuilt = false;
};

/// Which objects each pool has seen: one bit per (pool, object), under
/// RefStats' dense-id precondition.
class PoolSeenSet {
public:
  /// Marks \p Object seen in \p Pool; returns true if it was not yet.
  bool insert(uint32_t Pool, uint32_t Object);

private:
  std::vector<std::vector<bool>> Seen; ///< [pool][object]
};

/// Encoder half of a scheme.
class RefEncoder {
public:
  virtual ~RefEncoder() = default;

  /// Encodes a reference to \p Object at site (\p Pool, \p Sub) into
  /// \p W. Returns true when this is the object's first occurrence and
  /// the caller must encode its definition next.
  virtual bool encode(uint32_t Pool, uint32_t Sub, uint32_t Object,
                      ByteWriter &W) = 0;

  /// Marks \p Object as already-known in \p Pool without emitting
  /// anything — the §14 "standard set of preloaded references"
  /// extension. Must be mirrored on the decoder in the same order.
  /// Supported by the fixed-id and MTF families; returns false when the
  /// scheme cannot preload (Freq/Cache, whose ids come from a stats
  /// pass).
  virtual bool preload(uint32_t Pool, uint32_t Object) {
    (void)Pool;
    (void)Object;
    return false;
  }

  /// encode() plus per-pool telemetry. The tally is observational only:
  /// the emitted bytes are identical with or without one installed.
  bool encodeCounted(uint32_t Pool, uint32_t Sub, uint32_t Object,
                     ByteWriter &W) {
    bool Def = encode(Pool, Sub, Object, W);
    if (Tally)
      Tally->note(Pool, Def);
    return Def;
  }

  /// Installs (or clears, with null) the telemetry sink for
  /// encodeCounted. Not owned; must outlive the encoder's use.
  void setTally(CoderTally *T) { Tally = T; }

private:
  CoderTally *Tally = nullptr;
};

/// Decoder half of a scheme.
class RefDecoder {
public:
  virtual ~RefDecoder() = default;

  /// Decodes a reference at site (\p Pool, \p Sub). Returns the object
  /// id, or nullopt for a first occurrence — the caller must then decode
  /// the definition, assign the object an id, and call registerNew.
  /// Corrupt input can yield an id that was never registered (an MTF
  /// position past its queue decodes as MtfQueue::NoValue), so callers
  /// must range-check the result against their object table.
  virtual std::optional<uint32_t> decode(uint32_t Pool, uint32_t Sub,
                                         ByteReader &R) = 0;

  /// Completes a first occurrence reported by decode.
  virtual void registerNew(uint32_t Pool, uint32_t Sub,
                           uint32_t Object) = 0;

  /// Decoder-side mirror of RefEncoder::preload.
  virtual bool preload(uint32_t Pool, uint32_t Object) {
    (void)Pool;
    (void)Object;
    return false;
  }

  /// decode() plus per-pool telemetry (a nullopt result is a
  /// definition). Observational only, like RefEncoder::encodeCounted.
  std::optional<uint32_t> decodeCounted(uint32_t Pool, uint32_t Sub,
                                        ByteReader &R) {
    std::optional<uint32_t> Existing = decode(Pool, Sub, R);
    if (Tally)
      Tally->note(Pool, !Existing.has_value());
    return Existing;
  }

  /// Installs (or clears, with null) the telemetry sink for
  /// decodeCounted. Not owned; must outlive the decoder's use.
  void setTally(CoderTally *T) { Tally = T; }

private:
  CoderTally *Tally = nullptr;
};

/// Creates the encoder for \p S. \p Stats must outlive the encoder and be
/// non-null when refSchemeNeedsStats(S).
std::unique_ptr<RefEncoder> makeRefEncoder(RefScheme S,
                                           const RefStats *Stats);

/// Creates the decoder for \p S. Freq/Cache decoders do not need stats;
/// all bindings are learned from the stream.
std::unique_ptr<RefDecoder> makeRefDecoder(RefScheme S);

} // namespace cjpack

#endif // CJPACK_CODER_REFCODER_H
