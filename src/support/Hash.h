//===----------------------------------------------------------------------===//
///
/// \file
/// Stable 128-bit content hashing for the artifact cache (src/cache).
/// Multiply-rotate mixing over two independent 64-bit lanes, fed strictly
/// as little-endian byte sequences so a key computed on one machine (or one
/// build) names the same content on any other — the content-addressing
/// contract of docs/caching.md. Not cryptographic; collision resistance
/// only needs to beat the handful of distinct sources a sweep touches.
///
//===----------------------------------------------------------------------===//

#ifndef NASCENT_SUPPORT_HASH_H
#define NASCENT_SUPPORT_HASH_H

#include <cstddef>
#include <cstdint>
#include <string>

namespace nascent {
namespace support {

/// A 128-bit content key. Value-comparable and cheap to copy; Lo alone is
/// used as the bucket hash inside the cache's sharded maps.
struct Hash128 {
  uint64_t Lo = 0;
  uint64_t Hi = 0;

  friend bool operator==(const Hash128 &A, const Hash128 &B) {
    return A.Lo == B.Lo && A.Hi == B.Hi;
  }
  friend bool operator!=(const Hash128 &A, const Hash128 &B) {
    return !(A == B);
  }
  friend bool operator<(const Hash128 &A, const Hash128 &B) {
    return A.Hi != B.Hi ? A.Hi < B.Hi : A.Lo < B.Lo;
  }

  /// True for a default-constructed (never-hashed) key.
  bool isZero() const { return Lo == 0 && Hi == 0; }

  /// 32 lowercase hex digits (Hi then Lo), for logs and tests.
  std::string hex() const;
};

/// Hash functor for unordered containers keyed by Hash128. The key is
/// itself a hash, so the low word is the bucket index.
struct Hash128Hasher {
  size_t operator()(const Hash128 &H) const {
    return static_cast<size_t>(H.Lo ^ (H.Hi * 0x9e3779b97f4a7c15ull));
  }
};

/// Incremental stable hasher. Every input is decomposed into bytes in
/// little-endian order, so the digest never depends on the host byte
/// order or on integer widths chosen by the compiler. The byte stream is
/// absorbed 8 bytes (one little-endian word) per step; a partial word is
/// held until the next call completes it, so the digest depends only on
/// the stream, never on how it was split across calls.
class StableHasher {
public:
  StableHasher();

  /// Mixes \p N raw bytes.
  void bytes(const void *Data, size_t N);

  /// Mixes a 64-bit value as 8 little-endian bytes. All integer overloads
  /// funnel here so signed/unsigned and width differences cannot change
  /// the digest.
  void u64(uint64_t V);
  void i64(int64_t V) { u64(static_cast<uint64_t>(V)); }
  void u32(uint32_t V) { u64(V); }
  void boolean(bool B) { u64(B ? 1 : 0); }

  /// Mixes a double through its IEEE-754 bit pattern.
  void f64(double V);

  /// Mixes a string as its length followed by its bytes (length-prefixed
  /// so concatenated fields cannot alias).
  void str(const std::string &S);

  /// The digest of everything mixed so far. Non-destructive.
  Hash128 digest() const;

private:
  uint64_t A, B;
  uint64_t Length = 0;
  uint64_t PendingWord = 0; ///< the first Pending bytes of the next word
  unsigned Pending = 0;
};

/// One-shot convenience: the digest of a byte string.
Hash128 hashBytes(const void *Data, size_t N);
Hash128 hashString(const std::string &S);

/// Mixes an extra 64-bit tag into an existing key (key derivation, e.g.
/// analysis key = mix(function content key, implication mode)).
Hash128 mixHash(const Hash128 &H, uint64_t Tag);

} // namespace support
} // namespace nascent

#endif // NASCENT_SUPPORT_HASH_H
