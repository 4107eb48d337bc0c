//===----------------------------------------------------------------------===//
///
/// \file
/// A dense, word-packed bit vector used by the data-flow solvers. The
/// range-check availability/anticipatability problems operate over the
/// "check universe", so set operations (and/or/and-not) must be fast.
///
/// Up to 128 bits live inline; only larger vectors allocate. Every check
/// universe of the benchmark suite has at most 64 checks, so the solvers'
/// gen/kill copies, per-position snapshots and In/Out entries never touch
/// the heap there.
///
//===----------------------------------------------------------------------===//

#ifndef NASCENT_SUPPORT_DENSEBITVECTOR_H
#define NASCENT_SUPPORT_DENSEBITVECTOR_H

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace nascent {

/// Fixed-universe dense bit vector with word-parallel set algebra.
///
/// All binary operations require both operands to have the same size; this
/// is asserted, because the data-flow solvers always size their vectors to
/// the check universe.
class DenseBitVector {
public:
  DenseBitVector() = default;
  explicit DenseBitVector(size_t NumBits, bool InitialValue = false);

  DenseBitVector(const DenseBitVector &) = default;
  DenseBitVector &operator=(const DenseBitVector &) = default;
  /// A moved-from vector is empty (size 0).
  DenseBitVector(DenseBitVector &&Other) noexcept;
  DenseBitVector &operator=(DenseBitVector &&Other) noexcept;

  size_t size() const { return NumBits; }
  bool empty() const { return NumBits == 0; }

  /// Grows or shrinks to \p NumBits; new bits are cleared.
  void resize(size_t NumBits);

  bool test(size_t Idx) const {
    assert(Idx < NumBits && "bit index out of range");
    return (words()[Idx / 64] >> (Idx % 64)) & 1;
  }

  void set(size_t Idx) {
    assert(Idx < NumBits && "bit index out of range");
    words()[Idx / 64] |= uint64_t(1) << (Idx % 64);
  }

  void reset(size_t Idx) {
    assert(Idx < NumBits && "bit index out of range");
    words()[Idx / 64] &= ~(uint64_t(1) << (Idx % 64));
  }

  /// Sets every bit.
  void setAll();

  /// Clears every bit.
  void resetAll();

  /// Returns true if any bit is set.
  bool any() const;

  /// Returns true if no bit is set.
  bool none() const { return !any(); }

  /// Number of set bits.
  size_t count() const;

  /// Index of the first set bit at or after \p From, or npos if none.
  size_t findNext(size_t From) const;

  static constexpr size_t npos = static_cast<size_t>(-1);

  DenseBitVector &operator|=(const DenseBitVector &RHS);
  DenseBitVector &operator&=(const DenseBitVector &RHS);

  /// this = this & ~RHS. Returns *this.
  DenseBitVector &andNot(const DenseBitVector &RHS);

  friend bool operator==(const DenseBitVector &A, const DenseBitVector &B);
  friend bool operator!=(const DenseBitVector &A, const DenseBitVector &B) {
    return !(A == B);
  }

  /// Iterates over set bits, calling \p Fn with each index in order.
  template <typename CallableT> void forEachSetBit(CallableT Fn) const {
    for (size_t I = findNext(0); I != npos; I = findNext(I + 1))
      Fn(I);
  }

  /// Cumulative count of word-parallel operations (|=, &=, andNot, count,
  /// ==) performed by every vector in the process. The telemetry layer
  /// (src/obs) surfaces this as the "support.bitvector.word_ops" gauge;
  /// support sits below obs in the layering, so the raw total lives here.
  ///
  /// The count is kept per thread (a plain thread-local add on the hot
  /// path) plus an atomic total retired from exited threads; wordOps()
  /// returns retired + the calling thread's live count. Like the stat
  /// shards in obs/StatRegistry, the total is exact once every writer
  /// thread has been joined (its shard flush calls retireThreadOps()).
  static uint64_t wordOps();

  /// The calling thread's live op count only — no retired total, so a
  /// before/after delta around a single-threaded computation is exact even
  /// while other threads exit (their shard flush mutates the retired
  /// total). The artifact cache measures build costs this way.
  static uint64_t threadWordOps();

  /// Folds the calling thread's live op count into the retired total and
  /// zeroes it. Called by the obs-layer thread-shard flush at thread exit.
  static void retireThreadOps();

  /// Adds \p N to the calling thread's live op count. The artifact cache
  /// (src/cache) uses this to replay the word-op cost of a data-flow build
  /// it satisfied from a stored seed, keeping the work-proxy gauge
  /// identical whether a compile recomputed its sets or reused them.
  static void creditThreadOps(uint64_t N);

private:
  static constexpr size_t InlineWords = 2;

  static size_t wordsFor(size_t Bits) { return (Bits + 63) / 64; }
  size_t numWords() const { return wordsFor(NumBits); }
  bool isInline() const { return NumBits <= InlineWords * 64; }
  uint64_t *words() { return isInline() ? Inline.data() : Heap.data(); }
  const uint64_t *words() const {
    return isInline() ? Inline.data() : Heap.data();
  }

  /// Clears any bits in the last word beyond NumBits so that whole-word
  /// operations (count, ==) remain exact.
  void clearUnusedBits();

  size_t NumBits = 0;
  /// The words of a vector of at most 128 bits; words past numWords() are
  /// zero. Unused once the vector is on the heap.
  std::array<uint64_t, InlineWords> Inline = {};
  /// The words of a vector of more than 128 bits; empty otherwise.
  std::vector<uint64_t> Heap;
};

} // namespace nascent

#endif // NASCENT_SUPPORT_DENSEBITVECTOR_H
