#include "support/Hash.h"

#include "support/StringUtils.h"

#include <bit>
#include <cstring>

using namespace nascent;
using namespace nascent::support;

namespace {

// Lane constants: the first lane keeps FNV-1a's offset and prime, the
// second an independently seeded offset and a golden-ratio multiplier, so
// the two 64-bit digests do not degenerate into one.
constexpr uint64_t FnvOffset = 0xcbf29ce484222325ull;
constexpr uint64_t FnvPrime = 0x00000100000001b3ull;
constexpr uint64_t Lane2Offset = 0x9ae16a3b2f90404full;
constexpr uint64_t Lane2Prime = 0x9e3779b97f4a7c15ull;

/// Absorbs one 64-bit little-endian word into both lanes. Each lane step
/// is a bijection of the lane for a fixed word and of the word for a
/// fixed lane, so a stream differing in one word differs in both lanes.
/// The rotate and the shift carry high word bits down, which the
/// multiplications alone never do.
inline void mixWord(uint64_t &A, uint64_t &B, uint64_t W) {
  A = std::rotl((A ^ W) * FnvPrime, 27);
  B = (B + W) * Lane2Prime;
  B ^= B >> 29;
}

/// The little-endian word of 8 bytes at \p P, independent of host order.
inline uint64_t loadWord(const uint8_t *P) {
  uint64_t W;
  std::memcpy(&W, P, sizeof(W));
  if constexpr (std::endian::native == std::endian::big)
    W = __builtin_bswap64(W);
  return W;
}

} // namespace

StableHasher::StableHasher() : A(FnvOffset), B(Lane2Offset) {}

void StableHasher::bytes(const void *Data, size_t N) {
  const uint8_t *P = static_cast<const uint8_t *>(Data);
  Length += N;
  // Complete a partial word from an earlier call first, so the digest
  // depends only on the byte stream, not on how it was split.
  if (Pending != 0) {
    while (N != 0 && Pending != 8) {
      PendingWord |= uint64_t(*P++) << (8 * Pending++);
      --N;
    }
    if (Pending != 8)
      return;
    mixWord(A, B, PendingWord);
    Pending = 0;
    PendingWord = 0;
  }
  for (; N >= 8; N -= 8, P += 8)
    mixWord(A, B, loadWord(P));
  while (N != 0) {
    PendingWord |= uint64_t(*P++) << (8 * Pending++);
    --N;
  }
}

void StableHasher::u64(uint64_t V) {
  if (Pending == 0) {
    // Word-aligned: the value is the next stream word as it stands.
    mixWord(A, B, V);
    Length += 8;
    return;
  }
  // Explicit little-endian decomposition: byte-order independent by
  // construction.
  uint8_t Buf[8];
  for (int I = 0; I != 8; ++I)
    Buf[I] = static_cast<uint8_t>(V >> (8 * I));
  bytes(Buf, 8);
}

void StableHasher::f64(double V) {
  uint64_t Bits;
  static_assert(sizeof(Bits) == sizeof(V), "double is not 64-bit");
  std::memcpy(&Bits, &V, sizeof(Bits));
  u64(Bits);
}

void StableHasher::str(const std::string &S) {
  u64(S.size());
  bytes(S.data(), S.size());
}

Hash128 StableHasher::digest() const {
  // Finalise copies so digest() can be called mid-stream: fold the length
  // in and avalanche each lane.
  uint64_t X = A, Y = B;
  uint64_t L = Length;
  // A trailing partial word is absorbed zero-padded; the length folded
  // in below tells it apart from explicit zero bytes.
  if (Pending != 0)
    mixWord(X, Y, PendingWord);
  auto Avalanche = [](uint64_t V) {
    V ^= V >> 33;
    V *= 0xff51afd7ed558ccdull;
    V ^= V >> 33;
    V *= 0xc4ceb9fe1a85ec53ull;
    V ^= V >> 33;
    return V;
  };
  X = Avalanche(X ^ L);
  Y = Avalanche(Y + (L * Lane2Prime));
  return Hash128{X, Y};
}

std::string Hash128::hex() const {
  return formatString("%016llx%016llx", static_cast<unsigned long long>(Hi),
                      static_cast<unsigned long long>(Lo));
}

Hash128 nascent::support::hashBytes(const void *Data, size_t N) {
  StableHasher H;
  H.bytes(Data, N);
  return H.digest();
}

Hash128 nascent::support::hashString(const std::string &S) {
  return hashBytes(S.data(), S.size());
}

Hash128 nascent::support::mixHash(const Hash128 &H, uint64_t Tag) {
  StableHasher M;
  M.u64(H.Lo);
  M.u64(H.Hi);
  M.u64(Tag);
  return M.digest();
}
