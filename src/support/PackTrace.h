//===- PackTrace.h - pack/unpack telemetry ---------------------*- C++ -*-===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Instrumentation shared by the pack pipeline, the coder layer, and the
/// reporting tools: per-phase wall times (parse, model, emit, deflate),
/// per-shard timings, and per-pool reference/definition tallies from the
/// coder. None of it feeds back into the wire format — recording is
/// strictly observational, so archives are byte-identical with tracing
/// on or off.
///
//===----------------------------------------------------------------------===//

#ifndef CJPACK_SUPPORT_PACKTRACE_H
#define CJPACK_SUPPORT_PACKTRACE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <vector>

namespace cjpack {

/// Wall-clock seconds spent in each pipeline phase of one pack run.
/// Parse covers classfile parsing, plus prepareForPacking and the strip
/// under StripUnreferenced (only populated by packClassBytes); Model
/// covers the counting passes, dictionary build, and id remapping; Emit
/// covers the emitting passes; Deflate covers stream serialization and
/// compression. Every phase but the dictionary
/// build runs on the worker pool (classes parse, shards encode and
/// streams compress concurrently), so each is the wall time of a
/// parallel stage, not the CPU time it used.
struct PhaseTimes {
  double ParseSec = 0;
  double ModelSec = 0;
  double EmitSec = 0;
  double DeflateSec = 0;

  double totalSec() const { return ParseSec + ModelSec + EmitSec + DeflateSec; }
};

/// Per-shard timing of the two codec passes.
struct ShardTimes {
  size_t Shard = 0;   ///< shard index in archive order
  size_t Classes = 0; ///< classes encoded by this shard
  double ModelSec = 0;
  double EmitSec = 0;
};

/// Reference/definition tallies for one coder pool.
struct CoderPoolTally {
  uint64_t Refs = 0; ///< references coded (including first occurrences)
  uint64_t Defs = 0; ///< first occurrences (definition follows on the wire)
};

/// Per-pool tallies collected by the coder layer's counted entry points
/// (RefEncoder::encodeCounted / RefDecoder::decodeCounted). Keyed by the
/// raw pool id so support stays independent of the pack layer's
/// PoolKind enum.
class CoderTally {
public:
  void note(uint32_t Pool, bool Def) {
    CoderPoolTally &T = Pools[Pool];
    ++T.Refs;
    if (Def)
      ++T.Defs;
  }

  const std::map<uint32_t, CoderPoolTally> &pools() const { return Pools; }

  uint64_t totalRefs() const {
    uint64_t N = 0;
    for (const auto &[Pool, T] : Pools)
      N += T.Refs;
    return N;
  }

  uint64_t totalDefs() const {
    uint64_t N = 0;
    for (const auto &[Pool, T] : Pools)
      N += T.Defs;
    return N;
  }

  /// Merges \p Other into this tally (shard roll-up).
  void add(const CoderTally &Other) {
    for (const auto &[Pool, T] : Other.Pools) {
      Pools[Pool].Refs += T.Refs;
      Pools[Pool].Defs += T.Defs;
    }
  }

private:
  std::map<uint32_t, CoderPoolTally> Pools;
};

/// Everything one pack run records about itself.
struct PackTrace {
  PhaseTimes Phases;
  std::vector<ShardTimes> Shards;
  CoderTally Coder;
};

/// Minimal steady-clock stopwatch for phase attribution.
class Stopwatch {
public:
  Stopwatch() : Start(std::chrono::steady_clock::now()) {}

  /// Seconds since construction or the last restart().
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         Start)
        .count();
  }

  void restart() { Start = std::chrono::steady_clock::now(); }

private:
  std::chrono::steady_clock::time_point Start;
};

} // namespace cjpack

#endif // CJPACK_SUPPORT_PACKTRACE_H
