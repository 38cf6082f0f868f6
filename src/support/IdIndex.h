//===- IdIndex.h - keyed open-addressing index of dense ids ----*- C++ -*-===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one hash index behind every interning table: the Model's pools
/// (pack/Model.h), the canonical constant-pool builder
/// (classfile/CanonicalPool.h) and the shard dictionary's value counts
/// (pack/Dictionary.cpp).
///
/// An IdIndex maps a key to a dense id into its owner's own vector, so
/// each key is stored once, by the owner. The index holds only ids and
/// 32 bits of each key's hash; the owner supplies the hash (through the
/// index's hasher) and the equality test on an id. Probing is linear,
/// and the table is kept at most half full.
///
/// Every index hashes under its own key, drawn when it is built: a
/// process-random seed stepped by a counter, fed to SipHash-1-3. Input
/// an attacker chooses (a hostile class, or a hostile archive handed to
/// cjpackd) therefore cannot aim its entries at one probe chain and
/// make interning quadratic. No id and no output byte depends on the
/// key: ids are assigned in insertion order, and nothing iterates an
/// index, so two indexes under different keys that see the same
/// insertions assign the same ids.
///
//===----------------------------------------------------------------------===//

#ifndef CJPACK_SUPPORT_IDINDEX_H
#define CJPACK_SUPPORT_IDINDEX_H

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <random>
#include <string_view>
#include <vector>

namespace cjpack {

/// A 128-bit SipHash key.
struct HashKey {
  uint64_t K0 = 0, K1 = 0;

  /// A key no earlier call returned: the process's random seed, drawn
  /// once, stepped by a counter.
  static HashKey fresh() {
    static const HashKey Seed = [] {
      HashKey K;
      try {
        std::random_device Dev;
        K.K0 = static_cast<uint64_t>(Dev()) << 32 | Dev();
        K.K1 = static_cast<uint64_t>(Dev()) << 32 | Dev();
      } catch (...) {
        // No entropy device: the clock and this process's layout.
        K.K0 = static_cast<uint64_t>(
            std::chrono::steady_clock::now().time_since_epoch().count());
        K.K1 = reinterpret_cast<uintptr_t>(&K) ^ 0x9E3779B97F4A7C15ull;
      }
      return K;
    }();
    static std::atomic<uint64_t> Counter{0};
    return {Seed.K0 ^ Counter.fetch_add(1, std::memory_order_relaxed),
            Seed.K1};
  }
};

/// SipHash-1-3 (one compression round per 8-byte block, three
/// finalization rounds) over 64-bit words and a trailing byte string.
/// Absorbing words W0..Wn and then bytes S hashes the little-endian
/// bytes of the words followed by S, so finish(S) alone is the standard
/// SipHash-1-3 of S.
class SipHasher {
public:
  explicit SipHasher(const HashKey &K)
      : V0(K.K0 ^ 0x736F6D6570736575ull), V1(K.K1 ^ 0x646F72616E646F6Dull),
        V2(K.K0 ^ 0x6C7967656E657261ull), V3(K.K1 ^ 0x7465646279746573ull) {}

  /// Absorbs one 8-byte block.
  SipHasher &word(uint64_t M) {
    V3 ^= M;
    round();
    V0 ^= M;
    Length += 8;
    return *this;
  }

  /// Absorbs \p Tail and returns the hash of everything absorbed.
  uint64_t finish(std::string_view Tail = {}) {
    size_t Whole = Tail.size() & ~size_t(7);
    for (size_t Off = 0; Off < Whole; Off += 8)
      word(littleEndian(Tail.data() + Off, 8));
    uint64_t Last = littleEndian(Tail.data() + Whole, Tail.size() - Whole);
    Last |= static_cast<uint64_t>(Length + Tail.size() - Whole) << 56;
    V3 ^= Last;
    round();
    V0 ^= Last;
    V2 ^= 0xFF;
    round();
    round();
    round();
    return V0 ^ V1 ^ V2 ^ V3;
  }

private:
  static uint64_t rotl(uint64_t X, int B) { return X << B | X >> (64 - B); }

  /// The little-endian value of the \p N <= 8 bytes at \p P.
  static uint64_t littleEndian(const char *P, size_t N) {
    uint64_t X = 0;
    if constexpr (std::endian::native == std::endian::little) {
      if (N)
        std::memcpy(&X, P, N);
    } else {
      for (size_t I = 0; I < N; ++I)
        X |= static_cast<uint64_t>(static_cast<uint8_t>(P[I])) << 8 * I;
    }
    return X;
  }

  void round() {
    V0 += V1;
    V1 = rotl(V1, 13);
    V1 ^= V0;
    V0 = rotl(V0, 32);
    V2 += V3;
    V3 = rotl(V3, 16);
    V3 ^= V2;
    V0 += V3;
    V3 = rotl(V3, 21);
    V3 ^= V0;
    V2 += V1;
    V1 = rotl(V1, 17);
    V1 ^= V2;
    V2 = rotl(V2, 32);
  }

  uint64_t V0, V1, V2, V3;
  uint64_t Length = 0;
};

/// A keyed open-addressing index from keys to the dense ids their owner
/// assigned. The owner hashes a probe with hasher() (or hash() for a
/// byte string) and passes an equality test that compares the probe
/// with the entry an id names.
class IdIndex {
public:
  /// Returned by find for a key the index does not hold. Never an id.
  static constexpr uint32_t None = ~uint32_t(0);

  IdIndex() : Key(HashKey::fresh()) {}

  /// A hasher under this index's key.
  SipHasher hasher() const { return SipHasher(Key); }
  /// The hash of byte string \p S under this index's key.
  uint64_t hash(std::string_view S) const { return hasher().finish(S); }

  /// The id whose entry \p Equal accepts, among the ids indexed under
  /// \p Hash; None if there is none.
  template <typename EqualFn>
  uint32_t find(uint64_t Hash, EqualFn &&Equal) const {
    if (Slots.empty())
      return None;
    uint32_t Tag = tagOf(Hash);
    size_t Mask = Slots.size() - 1;
    for (size_t P = Tag & Mask;; P = (P + 1) & Mask) {
      const Slot &S = Slots[P];
      if (S.Id == None)
        return None;
      if (S.Tag == Tag && Equal(S.Id))
        return S.Id;
    }
  }

  /// The id find would return, or else \p NewId, which is indexed under
  /// \p Hash; the owner then stores the entry at \p NewId.
  template <typename EqualFn>
  uint32_t insert(uint64_t Hash, uint32_t NewId, EqualFn &&Equal) {
    if ((Count + 1) * 2 > Slots.size())
      rehash(std::max<size_t>(16, Slots.size() * 2));
    uint32_t Tag = tagOf(Hash);
    size_t Mask = Slots.size() - 1;
    for (size_t P = Tag & Mask;; P = (P + 1) & Mask) {
      Slot &S = Slots[P];
      if (S.Id == None) {
        S = {NewId, Tag};
        ++Count;
        return NewId;
      }
      if (S.Tag == Tag && Equal(S.Id))
        return S.Id;
    }
  }

  /// Makes room for \p N ids without growing.
  void reserve(size_t N) {
    size_t Want = 16;
    while (Want < 2 * N)
      Want *= 2;
    if (Want > Slots.size())
      rehash(Want);
  }

private:
  /// One slot: an id (None when empty) and 32 bits of its key's hash,
  /// which place it and screen most unequal probes.
  struct Slot {
    uint32_t Id = None;
    uint32_t Tag = 0;
  };

  static uint32_t tagOf(uint64_t Hash) {
    return static_cast<uint32_t>(Hash >> 32);
  }

  void rehash(size_t NewSize) {
    std::vector<Slot> Old(NewSize);
    Old.swap(Slots);
    size_t Mask = Slots.size() - 1;
    for (const Slot &S : Old) {
      if (S.Id == None)
        continue;
      size_t P = S.Tag & Mask;
      while (Slots[P].Id != None)
        P = (P + 1) & Mask;
      Slots[P] = S;
    }
  }

  HashKey Key;
  std::vector<Slot> Slots;
  size_t Count = 0;
};

} // namespace cjpack

#endif // CJPACK_SUPPORT_IDINDEX_H
