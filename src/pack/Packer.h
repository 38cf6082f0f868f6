//===- Packer.h - the packed archive public API ----------------*- C++ -*-===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Public API of the paper's contribution: packing a collection of Java
/// classfiles into the compressed wire format, and unpacking it back
/// into standard classfiles.
///
/// Typical use:
/// \code
///   std::vector<NamedClass> Classes = ...;           // name + bytes
///   auto Packed = packClassBytes(Classes, PackOptions());
///   auto Restored = unpackArchive(Packed->Archive);  // NamedClass list
/// \endcode
///
/// unpackClasses/unpackArchive are the one decode entry point: they take
/// every format version. Unpacking is deterministic: the same archive
/// always reproduces the identical classfiles (§12). Those are the
/// canonical form of the inputs, which prepareForPacking computes for one
/// class with the same two steps as a pack/unpack round trip: lower to
/// the wire record, then materialize. So unpack(pack(X)) equals
/// prepareForPacking(X) by construction, and a restored class is its own
/// prepared form.
///
//===----------------------------------------------------------------------===//

#ifndef CJPACK_PACK_PACKER_H
#define CJPACK_PACK_PACKER_H

#include "analysis/Diagnostics.h"
#include "classfile/ClassFile.h"
#include "coder/RefCoder.h"
#include "pack/Streams.h"
#include "support/DecodeLimits.h"
#include "support/Error.h"
#include "support/PackTrace.h"
#include "zip/Jar.h"
#include "zip/Manifest.h"
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace cjpack {

/// Knobs for the packed format; defaults are the paper's shipping
/// configuration (move-to-front with transients and context, stack-state
/// opcode collapsing, per-stream zlib).
struct PackOptions {
  /// Reference-encoding scheme (§5.1). Every scheme both packs and
  /// unpacks; non-default schemes exist for the Table 3 experiment.
  RefScheme Scheme = RefScheme::MtfTransientsContext;
  /// Collapse typed opcode families under the approximate stack state
  /// (§7.1).
  bool CollapseOpcodes = true;
  /// zlib-compress the output streams; off reproduces the "not gzip'd"
  /// rows of Table 5.
  bool CompressStreams = true;
  /// Reorder classes so superclasses/interfaces precede their
  /// subclasses, enabling eager class loading (§11).
  bool OrderForEagerLoading = true;
  /// Seed both sides with the §14 standard reference table (package
  /// names, java/lang classes, common method refs) so small archives
  /// never pay to define them. Unsupported with the Freq/Cache schemes.
  bool PreloadStandardRefs = false;
  /// Split the archive into this many independently-encoded shards
  /// (each with its own model, MTF queues, and streams) so shards can
  /// be packed and unpacked concurrently. Shard assignment is by
  /// stable class order, never by scheduling, so output is a pure
  /// function of (input, options, shard count). 1 writes the original
  /// single-shard wire format; >1 writes the versioned sharded format:
  /// definitions shared across shards are factored into a dictionary
  /// and each stream's shard slices are compressed jointly, so
  /// sharding costs little compression. Clamped to the class count.
  ///
  /// 0 selects autotuning (autoShardCount): the count is derived from
  /// the class count and hardware concurrency, with a serial floor so
  /// tiny corpora keep the single-shard format. Autotuned output is
  /// still deterministic for a fixed machine, but depends on
  /// hardware_concurrency — use an explicit count when archives must
  /// reproduce across machines.
  unsigned Shards = 1;
  /// Worker threads for the parallel stages (0 = one per hardware
  /// thread): per-class parse in packClassBytes, the per-shard codec
  /// passes, and per-stream compression. Capped at the widest stage's
  /// task count. Has no effect on the bytes.
  unsigned Threads = 0;
  /// Drop private members that no reference anywhere in the archive
  /// resolves to, before encoding (analysis/ArchiveAnalysis.h). The
  /// classes are prepared before the analysis and again after it, so
  /// the members' constant-pool entries go too. The output is gated:
  /// the packed archive is unpacked again and every restored class must
  /// be byte-identical to its stripped, prepared input and introduce no
  /// new verifier diagnostics, or packing fails with a typed error. Off
  /// by default — stripped archives are smaller but no longer restore
  /// the dead members.
  bool StripUnreferenced = false;
  /// Write the version-3 random-access layout: a per-class index after
  /// the header, and each shard's streams serialized as an independent
  /// blob so PackedArchiveReader can locate, inflate, and decode a
  /// single shard on demand. Costs a little size (the index, plus
  /// per-shard instead of joint compression) in exchange for lazy
  /// single-class extraction. Off (the default) writes version 1/2
  /// exactly as before. Requires unique class names.
  bool RandomAccessIndex = false;
  /// Final-stage compression backend applied uniformly to every stream
  /// (pack/Backend.h). Zlib, the default, deflates each stream with its
  /// own fixed setting (deflateSetting in pack/Streams.h).
  BackendId Backend = BackendId::Zlib;
  /// Per-stream backend overrides (the `packtool tune` tournament
  /// output). When set, takes precedence over Backend and the archive
  /// header advertises the mixed code.
  std::optional<std::array<BackendId, NumStreams>> StreamBackends;

  /// The effective per-stream plan these options describe.
  BackendPlan backendPlan() const {
    if (!CompressStreams)
      return BackendPlan::uniform(BackendId::Store);
    if (StreamBackends) {
      BackendPlan P;
      P.Stream = *StreamBackends;
      return P;
    }
    return BackendPlan::uniform(Backend);
  }
};

/// Result of packing: the archive plus per-stream accounting.
struct PackResult {
  std::vector<uint8_t> Archive;
  StreamSizes Sizes;
  size_t ClassCount = 0;
  /// Sharded archives only: entries in the shared dictionary (string
  /// and class-ref definitions factored out of the shards) and the
  /// serialized dictionary's size in the archive.
  size_t DictionaryEntries = 0;
  size_t DictionaryBytes = 0;
  /// Version-3 archives only: bytes of the per-class index frame
  /// (including its length prefix), the random-access overhead.
  size_t IndexBytes = 0;
  /// StripUnreferenced only: dead private members dropped pre-encode.
  size_t StrippedFields = 0;
  size_t StrippedMethods = 0;
  /// Telemetry from this run: per-phase wall times, per-shard timings,
  /// and per-pool coder tallies. Observational only — the archive bytes
  /// are independent of anything recorded here.
  PackTrace Trace;
};

/// The shard count PackOptions::Shards = 0 resolves to: roughly one
/// shard per AutoShardClassesPerShard classes, clamped to the hardware
/// thread count and MaxShards, with a serial floor — corpora under two
/// shards' worth of classes stay single-shard, since dictionary/joint
/// compression overheads only pay for themselves at scale. Pure
/// function of (ClassCount, hardware_concurrency).
size_t autoShardCount(size_t ClassCount);

/// Target classes per shard for autoShardCount.
inline constexpr size_t AutoShardClassesPerShard = 256;

/// Packs parsed classfiles, raw or prepared alike: the wire carries
/// only what the format keeps (debug and unknown attributes, pool order
/// and duplicate entries never reach it), so both pack to the same
/// archive. Every constant-pool index a class's structure or code
/// follows is checked for range and kind; a bad one is Corrupt.
Expected<PackResult> packClasses(const std::vector<ClassFile> &Classes,
                                 const PackOptions &Options);

/// Parses and packs raw classfiles. Classes parse concurrently on
/// Options.Threads workers; a class that fails is reported as
/// "<name>: <error>", the first such class in input order whatever the
/// thread count.
Expected<PackResult> packClassBytes(const std::vector<NamedClass> &Classes,
                                    const PackOptions &Options);

/// Replaces \p CF with its canonical form, the classfile unpacking its
/// archive restores: lowered to the wire record in a fresh Model, then
/// materialized (pack/Materialize.h). It keeps what the format carries
/// (§2): debug and unknown attributes go; the pool holds each entry the
/// class references once, in the §9/§12 order of CanonicalPoolBuilder;
/// each member's attributes are written in one fixed order. Fails as
/// packing \p CF would (a bad index is Corrupt) or as the materializer
/// does. Restored classes come back unchanged.
Error prepareForPacking(ClassFile &CF);

/// Knobs for unpacking. The limits bound what a hostile archive can
/// make the decoder allocate or compute; the defaults accommodate any
/// real archive, and every violation is a typed LimitExceeded error.
struct UnpackOptions {
  /// Worker threads used to decode shards, of version-2 and version-3
  /// archives alike (0 = one per hardware thread). Has no effect on the
  /// result.
  unsigned Threads = 0;
  /// Resource caps enforced against every wire-declared length/count.
  DecodeLimits Limits;
};

/// Unpacks an archive of any format version into classfile models, in
/// archive order. Sharded archives decode their shards on \p Threads
/// workers (0 = one per hardware thread); version 3 goes through
/// PackedArchiveReader::unpackAll, so every index check runs. Each call
/// charges one DecodeBudget, built from the limits, for every inflate
/// on every version, so Limits.MaxInflateBytes bounds the whole decode.
/// The inflates run serially before any shard decodes, so the classes,
/// or the error, are identical for any thread count.
///
/// Hostile-input contract: every count, length, and reference id read
/// from the wire is validated before use, so a corrupt or truncated
/// archive yields a typed Error (Truncated / Corrupt / LimitExceeded /
/// VersionMismatch), never undefined behavior or an unbounded
/// allocation.
///
/// \p Archive is borrowed for the duration of the call only (stream
/// payloads are decoded from slices of it without a staging copy), so
/// a memory-mapped file can be unpacked without ever materializing the
/// archive in a vector.
Expected<std::vector<ClassFile>>
unpackClasses(std::span<const uint8_t> Archive, unsigned Threads = 0);
Expected<std::vector<ClassFile>>
unpackClasses(std::span<const uint8_t> Archive,
              const UnpackOptions &Options);

/// Unpacks an archive of any format version into named classfile bytes
/// ("pkg/Name.class").
Expected<std::vector<NamedClass>>
unpackArchive(std::span<const uint8_t> Archive, unsigned Threads = 0);
Expected<std::vector<NamedClass>>
unpackArchive(std::span<const uint8_t> Archive,
              const UnpackOptions &Options);

/// Loads the classfiles of one input as named bytes: a lone classfile
/// (named \p Name), a packed archive of any version, or a jar/zip's
/// ".class" members. \p Options bound the archive decode and zip read.
Expected<std::vector<NamedClass>>
loadClassSet(std::span<const uint8_t> Bytes, const std::string &Name,
             const UnpackOptions &Options);

/// Parses \p Classes under \p Limits into \p Parsed, with their names
/// parallel in \p Names. A class that does not parse becomes one
/// MalformedCode diagnostic in \p Diags, stamped with its name.
void parseClassSet(const std::vector<NamedClass> &Classes,
                   const DecodeLimits &Limits,
                   std::vector<ClassFile> &Parsed,
                   std::vector<std::string> &Names,
                   std::vector<analysis::Diagnostic> &Diags);

/// The §12 signing workflow: decompresses \p Archive and digests the
/// resulting classfiles into a manifest. The sender runs this right
/// after packing and signs/ships the manifest; the receiver runs the
/// same function and compares — deterministic decompression makes the
/// digests reproducible even though packing renumbered constant pools.
Expected<Manifest>
manifestForPackedArchive(std::span<const uint8_t> Archive);

} // namespace cjpack

#endif // CJPACK_PACK_PACKER_H
