//===----------------------------------------------------------------------===//
///
/// \file
/// Word-packed bit sets for the data-flow solvers. The range-check
/// availability/anticipatability problems operate over the "check
/// universe", so set operations (and/or/and-not) must be fast.
///
///  - BitRows: a table of N rows × W words in one contiguous allocation,
///    the storage of every per-block and per-check set (transfer sets,
///    closures, data-flow solutions).
///  - ConstBitRow / BitRow: read-only and writable views of one row (of a
///    BitRows table or of a DenseBitVector).
///  - DenseBitVector: an owning scratch set. Up to 128 bits live inline;
///    only larger vectors allocate, so the solvers' running sets never
///    touch the heap for a suite-sized universe.
///
/// Every set operation through any of them (|=, &=, andNot, count, ==)
/// counts one word op per call, whatever the number of words, so the
/// "support.bitvector.word_ops" work proxy measures the same algorithm
/// whichever storage holds the operands.
///
//===----------------------------------------------------------------------===//

#ifndef NASCENT_SUPPORT_DENSEBITVECTOR_H
#define NASCENT_SUPPORT_DENSEBITVECTOR_H

#include <array>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace nascent {

namespace detail {
/// The calling thread's word-parallel operation count; one increment per
/// set operation, not per word, so the hot solver loops pay a single
/// thread-local add. Retired into the process-wide total when the
/// thread's stat shard flushes (DenseBitVector::retireThreadOps()).
inline thread_local uint64_t WordOpCount = 0;
} // namespace detail

/// A read-only view of one row of bits: NumBits bits packed into
/// consecutive 64-bit words, the bits past NumBits in the last word clear.
/// Views are cheap to copy and do not own their words.
class ConstBitRow {
public:
  ConstBitRow() = default;
  ConstBitRow(const uint64_t *Words, size_t NumBits)
      : W(Words), NumBits(NumBits) {}

  static constexpr size_t npos = static_cast<size_t>(-1);

  size_t size() const { return NumBits; }
  size_t numWords() const { return (NumBits + 63) / 64; }
  const uint64_t *words() const { return W; }

  bool test(size_t Idx) const {
    assert(Idx < NumBits && "bit index out of range");
    return (W[Idx / 64] >> (Idx % 64)) & 1;
  }

  /// Returns true if any bit is set.
  bool any() const {
    for (size_t I = 0, E = numWords(); I != E; ++I)
      if (W[I] != 0)
        return true;
    return false;
  }

  /// Returns true if no bit is set.
  bool none() const { return !any(); }

  /// Number of set bits.
  size_t count() const {
    ++detail::WordOpCount;
    size_t N = 0;
    for (size_t I = 0, E = numWords(); I != E; ++I)
      N += static_cast<size_t>(std::popcount(W[I]));
    return N;
  }

  /// Index of the first set bit at or after \p From, or npos if none.
  size_t findNext(size_t From) const {
    if (From >= NumBits)
      return npos;
    size_t WordIdx = From / 64, E = numWords();
    uint64_t Word = W[WordIdx] & (~uint64_t(0) << (From % 64));
    while (true) {
      if (Word != 0) {
        size_t Bit = WordIdx * 64 + static_cast<size_t>(std::countr_zero(Word));
        return Bit < NumBits ? Bit : npos;
      }
      if (++WordIdx == E)
        return npos;
      Word = W[WordIdx];
    }
  }

  /// Iterates over set bits, calling \p Fn with each index in order.
  template <typename CallableT> void forEachSetBit(CallableT Fn) const {
    for (size_t I = findNext(0); I != npos; I = findNext(I + 1))
      Fn(I);
  }

protected:
  const uint64_t *W = nullptr;
  size_t NumBits = 0;
};

/// Same size and same bits. Counts one word op.
inline bool operator==(ConstBitRow A, ConstBitRow B) {
  ++detail::WordOpCount;
  if (A.size() != B.size())
    return false;
  const uint64_t *WA = A.words(), *WB = B.words();
  for (size_t I = 0, E = A.numWords(); I != E; ++I)
    if (WA[I] != WB[I])
      return false;
  return true;
}

/// A writable view of one row. Binary operations require both operands
/// to have the same size; this is asserted, because the solvers always
/// size their sets to the check universe. Mutators are const: they write
/// the viewed words, not the view.
class BitRow : public ConstBitRow {
public:
  BitRow() = default;
  BitRow(uint64_t *Words, size_t NumBits) : ConstBitRow(Words, NumBits) {}

  void set(size_t Idx) const {
    assert(Idx < NumBits && "bit index out of range");
    mut()[Idx / 64] |= uint64_t(1) << (Idx % 64);
  }

  void reset(size_t Idx) const {
    assert(Idx < NumBits && "bit index out of range");
    mut()[Idx / 64] &= ~(uint64_t(1) << (Idx % 64));
  }

  /// Sets every bit.
  void setAll() const {
    for (size_t I = 0, E = numWords(); I != E; ++I)
      mut()[I] = ~uint64_t(0);
    clearUnusedBits();
  }

  /// Clears every bit.
  void resetAll() const {
    for (size_t I = 0, E = numWords(); I != E; ++I)
      mut()[I] = 0;
  }

  /// Copies \p Src's bits (a copy, not a counted op).
  void assign(ConstBitRow Src) const {
    assert(NumBits == Src.size() && "bit row size mismatch");
    for (size_t I = 0, E = numWords(); I != E; ++I)
      mut()[I] = Src.words()[I];
  }

  const BitRow &operator|=(ConstBitRow RHS) const {
    ++detail::WordOpCount;
    assert(NumBits == RHS.size() && "bit row size mismatch");
    for (size_t I = 0, E = numWords(); I != E; ++I)
      mut()[I] |= RHS.words()[I];
    return *this;
  }

  const BitRow &operator&=(ConstBitRow RHS) const {
    ++detail::WordOpCount;
    assert(NumBits == RHS.size() && "bit row size mismatch");
    for (size_t I = 0, E = numWords(); I != E; ++I)
      mut()[I] &= RHS.words()[I];
    return *this;
  }

  /// this = this & ~RHS.
  const BitRow &andNot(ConstBitRow RHS) const {
    ++detail::WordOpCount;
    assert(NumBits == RHS.size() && "bit row size mismatch");
    for (size_t I = 0, E = numWords(); I != E; ++I)
      mut()[I] &= ~RHS.words()[I];
    return *this;
  }

  /// Clears any bits in the last word beyond NumBits so that whole-word
  /// operations (count, ==) remain exact.
  void clearUnusedBits() const {
    if (NumBits % 64 != 0)
      mut()[numWords() - 1] &= (uint64_t(1) << (NumBits % 64)) - 1;
  }

private:
  uint64_t *mut() const { return const_cast<uint64_t *>(W); }
};

/// A table of equally sized bit rows in one contiguous allocation: row R
/// is words [R * stride, (R + 1) * stride). One table holds a whole
/// per-block or per-check family of sets, so building or copying it is
/// one allocation however many rows it has.
class BitRows {
public:
  BitRows() = default;
  BitRows(size_t NumRows, size_t NumBits, bool InitialValue = false)
      : NumRows(NumRows), NumBits(NumBits), Stride((NumBits + 63) / 64),
        Words(NumRows * Stride, InitialValue ? ~uint64_t(0) : 0) {
    if (InitialValue && NumBits % 64 != 0)
      for (size_t R = 0; R != NumRows; ++R)
        (*this)[R].clearUnusedBits();
  }

  size_t numRows() const { return NumRows; }
  size_t numBits() const { return NumBits; }
  /// Heap bytes the table holds.
  size_t bytes() const { return Words.size() * sizeof(uint64_t); }

  ConstBitRow operator[](size_t R) const {
    assert(R < NumRows && "row index out of range");
    return {Words.data() + R * Stride, NumBits};
  }
  BitRow operator[](size_t R) {
    assert(R < NumRows && "row index out of range");
    return {Words.data() + R * Stride, NumBits};
  }

private:
  size_t NumRows = 0;
  size_t NumBits = 0;
  size_t Stride = 0;
  std::vector<uint64_t> Words;
};

/// Fixed-universe owning bit vector: the scratch set of the solvers and
/// the passes' running in-block sets. Its set algebra takes any row view
/// (a DenseBitVector converts to one), with the same size asserted.
class DenseBitVector {
public:
  DenseBitVector() = default;
  explicit DenseBitVector(size_t NumBits, bool InitialValue = false);
  /// A copy of \p Row's bits (not a counted op).
  explicit DenseBitVector(ConstBitRow Row);

  DenseBitVector(const DenseBitVector &) = default;
  DenseBitVector &operator=(const DenseBitVector &) = default;
  /// A moved-from vector is empty (size 0).
  DenseBitVector(DenseBitVector &&Other) noexcept;
  DenseBitVector &operator=(DenseBitVector &&Other) noexcept;
  /// Takes \p Row's bits and size (a copy, not a counted op).
  DenseBitVector &operator=(ConstBitRow Row) {
    if (NumBits != Row.size())
      resize(Row.size());
    row().assign(Row);
    return *this;
  }

  operator ConstBitRow() const { return {words(), NumBits}; }

  size_t size() const { return NumBits; }
  bool empty() const { return NumBits == 0; }

  /// Grows or shrinks to \p NumBits; new bits are cleared.
  void resize(size_t NumBits);

  bool test(size_t Idx) const { return view().test(Idx); }
  void set(size_t Idx) { row().set(Idx); }
  void reset(size_t Idx) { row().reset(Idx); }

  /// Sets every bit.
  void setAll() { row().setAll(); }

  /// Clears every bit.
  void resetAll() { row().resetAll(); }

  /// Returns true if any bit is set.
  bool any() const { return view().any(); }

  /// Returns true if no bit is set.
  bool none() const { return !any(); }

  /// Number of set bits.
  size_t count() const { return view().count(); }

  /// Index of the first set bit at or after \p From, or npos if none.
  size_t findNext(size_t From) const { return view().findNext(From); }

  static constexpr size_t npos = ConstBitRow::npos;

  DenseBitVector &operator|=(ConstBitRow RHS) {
    row() |= RHS;
    return *this;
  }
  DenseBitVector &operator&=(ConstBitRow RHS) {
    row() &= RHS;
    return *this;
  }

  /// this = this & ~RHS. Returns *this.
  DenseBitVector &andNot(ConstBitRow RHS) {
    row().andNot(RHS);
    return *this;
  }

  /// Iterates over set bits, calling \p Fn with each index in order.
  template <typename CallableT> void forEachSetBit(CallableT Fn) const {
    view().forEachSetBit(Fn);
  }

  /// Cumulative count of word-parallel operations (|=, &=, andNot, count,
  /// ==) performed on every bit set in the process. The telemetry layer
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
  static uint64_t threadWordOps() { return detail::WordOpCount; }

  /// Folds the calling thread's live op count into the retired total and
  /// zeroes it. Called by the obs-layer thread-shard flush at thread exit.
  static void retireThreadOps();

  /// Adds \p N to the calling thread's live op count. The artifact cache
  /// (src/cache) uses this to replay the word-op cost of a data-flow build
  /// it satisfied from a stored seed, keeping the work-proxy gauge
  /// identical whether a compile recomputed its sets or reused them.
  static void creditThreadOps(uint64_t N) { detail::WordOpCount += N; }

  /// Removes \p N from the calling thread's live op count: work done
  /// ahead of need whose cost is credited later, when it is needed (a
  /// cache seed's eagerly completed tables).
  static void debitThreadOps(uint64_t N) { detail::WordOpCount -= N; }

private:
  static constexpr size_t InlineWords = 2;

  static size_t wordsFor(size_t Bits) { return (Bits + 63) / 64; }
  size_t numWords() const { return wordsFor(NumBits); }
  bool isInline() const { return NumBits <= InlineWords * 64; }
  uint64_t *words() { return isInline() ? Inline.data() : Heap.data(); }
  const uint64_t *words() const {
    return isInline() ? Inline.data() : Heap.data();
  }
  ConstBitRow view() const { return *this; }
  BitRow row() { return {words(), NumBits}; }

  size_t NumBits = 0;
  /// The words of a vector of at most 128 bits; words past numWords() are
  /// zero. Unused once the vector is on the heap.
  std::array<uint64_t, InlineWords> Inline = {};
  /// The words of a vector of more than 128 bits; empty otherwise.
  std::vector<uint64_t> Heap;
};

} // namespace nascent

#endif // NASCENT_SUPPORT_DENSEBITVECTOR_H
