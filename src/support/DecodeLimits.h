//===- DecodeLimits.h - resource caps for hostile input --------*- C++ -*-===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Resource budgets enforced while decoding wire input. Every decoder
/// layer — packed archives, classfiles, zip central directories,
/// compressed streams — consumes lengths and counts it read from the
/// wire; DecodeLimits bounds what those values may demand, so a hostile
/// archive is rejected with ErrorCode::LimitExceeded instead of driving
/// an allocation, a decompression bomb, or an unbounded loop.
///
/// The defaults are generous (far above anything a legitimate archive
/// produces) so existing callers never notice them; servers decoding
/// untrusted uploads can tighten them per request. DecodeBudget holds
/// the mutable spend counters. Who charges one: each unpackClasses call
/// builds one and charges it for every inflate of every format version,
/// serially, before any shard decodes; a PackedArchiveReader owns one
/// for its lifetime, charged by open and by each shard blob it
/// inflates; readZip builds one per call. Threads sharing one reader
/// charge its budget concurrently, hence atomic.
///
//===----------------------------------------------------------------------===//

#ifndef CJPACK_SUPPORT_DECODELIMITS_H
#define CJPACK_SUPPORT_DECODELIMITS_H

#include "support/Error.h"
#include <atomic>
#include <cstdint>
#include <string>

namespace cjpack {

/// Configurable caps on what decoded wire data may demand. All fields
/// are upper bounds; a decoder hitting one fails with LimitExceeded.
struct DecodeLimits {
  /// Classes per packed archive.
  uint64_t MaxClasses = 1u << 20;
  /// Interned objects per model pool (packages, class refs, method
  /// refs, string constants, ...) while decoding one shard.
  uint64_t MaxPoolEntries = 1u << 22;
  /// Instructions per decoded method body (the JVM caps a code array at
  /// 65535 bytes, so this is already beyond any valid method).
  uint64_t MaxMethodInsns = 1u << 16;
  /// Bytes of a single decoded string (class name, member name, string
  /// constant).
  uint64_t MaxStringBytes = 1u << 20;
  /// Decompressed bytes of a single wire stream.
  uint64_t MaxStreamBytes = 1u << 30;
  /// Total inflate output across the whole decode — the decompression
  /// bomb bound, shared by every stream, shard, and zip member.
  uint64_t MaxInflateBytes = 1ull << 32;
  /// Constant-pool entries per parsed classfile (the format caps the
  /// count field at 65535 anyway).
  uint64_t MaxPoolCount = 1u << 16;
  /// Members of a zip central directory.
  uint64_t MaxZipEntries = 1u << 16;
};

/// Mutable spend state for one decode operation. Requests on a shared
/// reader charge the same budget from several threads, so the counter
/// is atomic.
class DecodeBudget {
public:
  DecodeBudget() = default;
  explicit DecodeBudget(const DecodeLimits &L) : Limits(L) {}

  const DecodeLimits &limits() const { return Limits; }

  /// Charges \p Bytes of inflate output against the shared budget.
  /// Returns a LimitExceeded error when the total would cross the cap.
  Error chargeInflate(uint64_t Bytes, const char *Context) {
    uint64_t Prior = InflateSpent.fetch_add(Bytes, std::memory_order_relaxed);
    if (Prior + Bytes > Limits.MaxInflateBytes)
      return makeError(ErrorCode::LimitExceeded,
                       std::string(Context) +
                           ": inflate output budget exceeded");
    return Error::success();
  }

  uint64_t inflateSpent() const {
    return InflateSpent.load(std::memory_order_relaxed);
  }

private:
  DecodeLimits Limits;
  std::atomic<uint64_t> InflateSpent{0};
};

} // namespace cjpack

#endif // CJPACK_SUPPORT_DECODELIMITS_H
