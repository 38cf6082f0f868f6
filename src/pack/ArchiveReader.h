//===- ArchiveReader.h - lazy reader for v3 archives -----------*- C++ -*-===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Random access into a version-3 packed archive. A PackedArchiveReader
/// wraps a stable byte span (typically an InputFile's mmap), parses only
/// the header, index, and dictionary frames up front (through the shared
/// codec of ArchiveFormat.h), and decodes shard blobs on demand:
///
/// \code
///   auto F = InputFile::open("app.cjp");
///   auto Rd = PackedArchiveReader::open(F->data(), F->size());
///   auto CF = Rd->unpackClass("com/foo/Bar");   // inflates one shard,
///                                               // decodes a prefix
/// \endcode
///
/// The lazy-read invariants:
///   - open() inflates nothing: the index is stored uncompressed, so
///     listing classes touches only index pages.
///   - unpackClass() inflates exactly the shard blob holding the class
///     (plus the dictionary frame, once), and decodes only the shard's
///     record prefix up to the class's ordinal — the adaptive coder
///     state makes mid-shard seeks impossible by construction.
///   - Every inflate is charged to one shared DecodeBudget, so
///     inflatedBytes() measures what a request actually cost, and the
///     decompression-bomb cap applies across all lazy reads.
///
/// Decoded shard state is cached: a second class from the same shard
/// reuses the already-decoded prefix. A shard whose decode fails is
/// poisoned — the adaptive state is unrecoverable mid-stream — and
/// every later request against it returns the original error.
///
/// A shard holds each decoded class as its wire record until
/// unpackClassBytes() serves it; from then on it holds the class's
/// restored classfile bytes instead, and a repeat fetch copies them.
/// Once every class the shard directory declares holds bytes, the shard
/// also drops its inflated streams, coder, transcriber and Model. Only
/// unpackClassBytes() converts, one requested class at a time;
/// unpackClass() and unpackAll() parse a served class from its bytes.
/// A poisoned shard's error wins over bytes it already served.
///
/// The reader does not own the archive bytes; they must stay valid and
/// unchanged for the reader's lifetime.
///
/// Thread safety: unpackClass(), unpackClassBytes() and unpackAll()
/// may be called concurrently from any number of threads over one
/// shared reader (the cjpackd archive cache shares hot readers across
/// request threads). Shard decode state is created under a reader-level
/// mutex and each shard's lazy decode, and every read of its held
/// records or bytes, is serialized by a per-shard mutex — the adaptive
/// coder state is inherently sequential — so requests against
/// different shards proceed in parallel while requests against the
/// same shard queue behind its decode. The budget counter is atomic.
/// Moving or destroying the reader itself concurrently with requests
/// remains undefined, as for any object.
///
//===----------------------------------------------------------------------===//

#ifndef CJPACK_PACK_ARCHIVEREADER_H
#define CJPACK_PACK_ARCHIVEREADER_H

#include "classfile/ClassFile.h"
#include "coder/RefCoder.h"
#include "pack/ArchiveFormat.h"
#include "support/DecodeLimits.h"
#include "support/Error.h"
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

namespace cjpack {

class PackedArchiveReader {
public:
  /// Opens a version-3 archive over \p Data (not copied, not owned).
  /// Validates the header, index frame, and dictionary frame, and that
  /// the shard extents exactly tile the rest of the archive. Rejects
  /// version-1/2 archives, which have no index, with a typed
  /// VersionMismatch error (unpackClasses decodes every version).
  /// Inflates nothing except a compressed dictionary frame.
  static Expected<PackedArchiveReader>
  open(const uint8_t *Data, size_t Size, const DecodeLimits &Limits = {});
  static Expected<PackedArchiveReader>
  open(const std::vector<uint8_t> &Archive, const DecodeLimits &Limits = {});

  PackedArchiveReader(PackedArchiveReader &&) noexcept;
  PackedArchiveReader &operator=(PackedArchiveReader &&) noexcept;
  PackedArchiveReader(const PackedArchiveReader &) = delete;
  PackedArchiveReader &operator=(const PackedArchiveReader &) = delete;
  ~PackedArchiveReader();

  /// The archive's per-class index (class names in archive order,
  /// shard extents). Reading it costs no decoding.
  const ArchiveIndex &index() const { return Frames.Index; }

  /// Class internal names in archive order, from the index alone.
  std::vector<std::string> classNames() const;

  /// Decodes the single class \p InternalName ("com/foo/Bar"),
  /// inflating and decoding only what the lazy-read invariants above
  /// require. Unknown names fail with a plain error; a corrupt or
  /// truncated blob fails with the usual typed taxonomy. A class
  /// unpackClassBytes() already served is parsed from its kept bytes,
  /// under the reader's limits.
  Expected<ClassFile> unpackClass(const std::string &InternalName);

  /// The restored classfile bytes of \p InternalName: what
  /// writeClassFile() of unpackClass() gives, without building a
  /// ClassFile once the class has been served. The first call for a
  /// class decodes and materializes it as unpackClass() does, checks it
  /// against its index entry, and keeps the bytes in place of the
  /// class's record; later calls copy the kept bytes. A poisoned
  /// shard's latched error wins over kept bytes: every call against it
  /// returns that error, for every class, as unpackClass() does.
  Expected<std::vector<uint8_t>>
  unpackClassBytes(const std::string &InternalName);

  /// Decodes every indexed class, in archive order, on \p Threads
  /// threads (0 = one per hardware thread), with the result of
  /// unpackClass over classNames(): the same classes, or the error of
  /// the first failing entry in index order, for any thread count. The
  /// blobs not yet inflated are inflated first, serially, in the order
  /// the index first touches them, so the budget is charged as a serial
  /// walk charges it. Then each shard decodes its own entries under its
  /// mutex, concurrently with the other shards, on the calling thread
  /// and up to Threads - 1 helpers (parallelFor); one shard or one
  /// thread runs inline and starts no thread. This is how unpackClasses
  /// decodes version 3:
  /// materialized classes own their bytes, so they outlive the reader.
  /// A class unpackClassBytes() already served is parsed from its kept
  /// bytes; nothing is converted to bytes here.
  Expected<std::vector<ClassFile>> unpackAll(unsigned Threads = 0);

  /// Total inflate output charged so far (dictionary + every shard
  /// blob decoded yet). The lazy-fewer-bytes property is observable
  /// here: after one unpackClass this is strictly less than what a
  /// full unpack of a multi-shard compressed archive charges.
  uint64_t inflatedBytes() const;

  RefScheme scheme() const { return Header.Scheme; }
  size_t shardCount() const { return Frames.Index.Shards.size(); }
  size_t classCount() const { return Frames.Index.Classes.size(); }

private:
  struct ShardState;

  PackedArchiveReader();

  /// Returns shard \p K's state slot, allocating the (empty, unprepared)
  /// state on first use under the reader-level mutex. Cheap; never
  /// decodes.
  ShardState *shardSlot(size_t K);

  /// Inflates shard \p K's blob into \p St on first use, charged to the
  /// budget, and returns the shard's latched failure, if any. Caller
  /// holds St's mutex.
  Error inflateShardLocked(ShardState &St, size_t K);

  /// Makes shard \p K ready to decode on first use: inflates it if
  /// needed, then seeds its model and reads its directory. Returns the
  /// shard's latched failure, if any. Caller holds St's mutex.
  Error prepareShardLocked(ShardState &St, size_t K);

  /// Decodes records of shard \p St up to and including \p Ordinal.
  /// Caller holds St's mutex.
  Error decodeUpTo(ShardState &St, uint32_t Ordinal);

  /// Prepares \p E's shard \p St and checks \p E's ordinal against the
  /// shard directory. Returns the shard's latched failure first, so a
  /// poisoned shard fails even for classes it holds as bytes. Caller
  /// holds St's mutex.
  Error readyLocked(ShardState &St, const ArchiveIndex::ClassEntry &E);

  /// Decodes the shard \p St as far as \p E needs and materializes
  /// \p E from its record, checking that it names the class the index
  /// entry does. \p E must be ready and not held as bytes. Caller holds
  /// St's mutex.
  Expected<ClassFile> materializeLocked(ShardState &St,
                                        const ArchiveIndex::ClassEntry &E);

  /// unpackClass for \p E: parses \p E's kept bytes, or materializes
  /// its record. Caller holds St's mutex.
  Expected<ClassFile> classLocked(ShardState &St,
                                  const ArchiveIndex::ClassEntry &E);

  std::span<const uint8_t> Archive;
  ArchiveHeader Header;
  IndexedFrames Frames;
  DecodeLimits Limits;
  /// unique_ptr because the spend counter is atomic (not movable).
  std::unique_ptr<DecodeBudget> Budget;
  /// Guards lazy creation of States slots (unique_ptr so the reader
  /// stays movable; the shard states themselves carry their own mutex).
  std::unique_ptr<std::mutex> StatesMu;
  std::vector<std::unique_ptr<ShardState>> States;
};

} // namespace cjpack

#endif // CJPACK_PACK_ARCHIVEREADER_H
