//===- ArchiveCache.h - LRU cache of hot open archives ---------*- C++ -*-===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The perf core of cjpackd: a size-bounded LRU cache of open archives.
/// A cached entry owns the memory-mapped file (support/InputFile.h) and
/// a PackedArchiveReader over it, so a cache hit skips the whole cold
/// path — open, mmap, header/index/dictionary parse, and (after the
/// first fetch from a shard) the shard's inflate-and-decode — and a hot
/// `unpack-class` copies the class bytes the reader kept when it first
/// served the class (PackedArchiveReader::unpackClassBytes).
///
/// Entries are keyed by path and validated by (mtime, size): a lookup
/// stats the file first and a changed identity evicts the stale entry
/// and reopens, so an archive rewritten in place is never served from
/// dead state. Lookups hand out shared_ptrs, so an entry evicted (or
/// flushed) while requests are in flight stays alive — and its mapping
/// valid — until the last request drops it.
///
/// Thread safety: the map, LRU list, and counters are guarded by one
/// mutex; the expensive open runs outside it (two racing misses on one
/// path both open, last insert wins — harmless, the loser's entry
/// lives on through its shared_ptr). Concurrent decodes through a
/// shared entry are safe because PackedArchiveReader serializes per
/// shard internally.
///
/// The size bound counts archive file bytes only (ServerConfig's
/// default capacity is 256 MB of them). Decoded state grows an entry
/// beyond that. A shard that is only partly served still holds its
/// inflated streams, model and a decoded record per class: roughly
/// 110× its archive bytes once fully decoded. A fully served archive
/// holds about its restored class bytes instead, roughly 4× the
/// archive. So the capacity is a working-set target, not a hard RSS
/// cap.
///
//===----------------------------------------------------------------------===//

#ifndef CJPACK_SERVE_ARCHIVECACHE_H
#define CJPACK_SERVE_ARCHIVECACHE_H

#include "pack/ArchiveReader.h"
#include "support/InputFile.h"
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

namespace cjpack::serve {

/// One open archive: the mapped bytes and the lazy reader over them.
/// The reader's decoded-shard, served-bytes and budget state accumulates
/// across requests — that accumulation is exactly what a hit reuses.
struct CachedArchive {
  CachedArchive(InputFile F, PackedArchiveReader R)
      : File(std::move(F)), Reader(std::move(R)) {}

  InputFile File;
  PackedArchiveReader Reader;
};

/// Snapshot of the cache's counters.
struct CacheStats {
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Evictions = 0;   ///< capacity + staleness evictions
  uint64_t OpenFailures = 0;
  size_t Entries = 0;
  size_t Bytes = 0;         ///< archive file bytes currently cached
};

class ArchiveCache {
public:
  /// \p CapacityBytes bounds the sum of cached archive file sizes; 0
  /// disables caching entirely (every lookup is a miss that opens
  /// fresh — the bench's cold mode). \p Limits configures each cached
  /// reader's DecodeBudget; the budget spans the reader's whole cached
  /// lifetime, so the defaults (sized for a one-shot decode) are
  /// already generous — total inflate per archive is bounded by its
  /// raw shard bytes, decoded at most once each.
  explicit ArchiveCache(size_t CapacityBytes,
                        const DecodeLimits &Limits = {})
      : Capacity(CapacityBytes), Limits(Limits) {}

  ArchiveCache(const ArchiveCache &) = delete;
  ArchiveCache &operator=(const ArchiveCache &) = delete;

  /// Returns the cached entry for \p Path, opening (and caching) it on
  /// a miss. Fails when the file cannot be stat'd/opened or is not a
  /// version-3 archive; failures are never cached.
  Expected<std::shared_ptr<CachedArchive>> get(const std::string &Path);

  /// Drops every entry (in-flight shared_ptrs keep theirs alive).
  void flush();

  CacheStats stats() const;

private:
  /// File identity a cached entry was opened against.
  struct FileId {
    int64_t MtimeSec = 0;
    int64_t MtimeNsec = 0;
    uint64_t Size = 0;

    bool operator==(const FileId &O) const {
      return MtimeSec == O.MtimeSec && MtimeNsec == O.MtimeNsec &&
             Size == O.Size;
    }
  };

  struct Slot {
    FileId Id;
    std::shared_ptr<CachedArchive> Arch;
    size_t Bytes = 0;
    std::list<std::string>::iterator LruIt;
  };

  /// Stats \p Path. Failure is a typed Error (file gone/unreadable).
  static Expected<FileId> identify(const std::string &Path);

  /// Removes \p It's entry. Caller holds Mu.
  void eraseLocked(std::unordered_map<std::string, Slot>::iterator It);

  /// Evicts LRU-tail entries until Bytes fits Capacity, never evicting
  /// the most recent entry. Caller holds Mu.
  void enforceCapacityLocked();

  const size_t Capacity;
  const DecodeLimits Limits;

  mutable std::mutex Mu;
  std::list<std::string> Lru; ///< front = most recently used
  std::unordered_map<std::string, Slot> Map;
  size_t BytesCached = 0;
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Evictions = 0;
  uint64_t OpenFailures = 0;
};

} // namespace cjpack::serve

#endif // CJPACK_SERVE_ARCHIVECACHE_H
