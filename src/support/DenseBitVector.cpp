#include "support/DenseBitVector.h"

#include <atomic>
#include <bit>
#include <utility>

using namespace nascent;

namespace {
/// The calling thread's word-parallel operation count; one increment per
/// call, not per word, so the hot solver loops pay a single thread-local
/// add. Retired into the process-wide atomic when the thread's stat
/// shard flushes (obs/StatRegistry calls retireThreadOps()).
thread_local uint64_t WordOpCount = 0;
std::atomic<uint64_t> RetiredWordOps{0};
} // namespace

uint64_t DenseBitVector::wordOps() {
  return RetiredWordOps.load(std::memory_order_relaxed) + WordOpCount;
}

void DenseBitVector::retireThreadOps() {
  RetiredWordOps.fetch_add(WordOpCount, std::memory_order_relaxed);
  WordOpCount = 0;
}

uint64_t DenseBitVector::threadWordOps() { return WordOpCount; }

void DenseBitVector::creditThreadOps(uint64_t N) { WordOpCount += N; }

DenseBitVector::DenseBitVector(size_t NumBits, bool InitialValue)
    : NumBits(NumBits) {
  if (!isInline())
    Heap.assign(numWords(), 0);
  if (InitialValue)
    setAll();
}

DenseBitVector::DenseBitVector(DenseBitVector &&Other) noexcept
    : NumBits(Other.NumBits), Inline(Other.Inline),
      Heap(std::move(Other.Heap)) {
  Other.NumBits = 0;
  Other.Inline = {};
  Other.Heap.clear();
}

DenseBitVector &DenseBitVector::operator=(DenseBitVector &&Other) noexcept {
  if (this == &Other)
    return *this;
  NumBits = Other.NumBits;
  Inline = Other.Inline;
  Heap = std::move(Other.Heap);
  Other.NumBits = 0;
  Other.Inline = {};
  Other.Heap.clear();
  return *this;
}

void DenseBitVector::resize(size_t NewNumBits) {
  size_t OldWords = numWords(), NewWords = wordsFor(NewNumBits);
  if (NewWords <= InlineWords) {
    if (OldWords > InlineWords) {
      for (size_t I = 0; I != NewWords; ++I)
        Inline[I] = Heap[I];
      Heap.clear();
    }
    for (size_t I = NewWords; I != InlineWords; ++I)
      Inline[I] = 0;
  } else if (OldWords <= InlineWords) {
    Heap.assign(NewWords, 0);
    for (size_t I = 0; I != OldWords; ++I)
      Heap[I] = Inline[I];
    Inline = {};
  } else {
    Heap.resize(NewWords, 0);
  }
  NumBits = NewNumBits;
  clearUnusedBits();
}

void DenseBitVector::setAll() {
  uint64_t *W = words();
  for (size_t I = 0, E = numWords(); I != E; ++I)
    W[I] = ~uint64_t(0);
  clearUnusedBits();
}

void DenseBitVector::resetAll() {
  uint64_t *W = words();
  for (size_t I = 0, E = numWords(); I != E; ++I)
    W[I] = 0;
}

bool DenseBitVector::any() const {
  const uint64_t *W = words();
  for (size_t I = 0, E = numWords(); I != E; ++I)
    if (W[I] != 0)
      return true;
  return false;
}

size_t DenseBitVector::count() const {
  ++WordOpCount;
  const uint64_t *W = words();
  size_t N = 0;
  for (size_t I = 0, E = numWords(); I != E; ++I)
    N += static_cast<size_t>(std::popcount(W[I]));
  return N;
}

size_t DenseBitVector::findNext(size_t From) const {
  if (From >= NumBits)
    return npos;
  const uint64_t *Words = words();
  size_t WordIdx = From / 64, E = numWords();
  uint64_t W = Words[WordIdx] & (~uint64_t(0) << (From % 64));
  while (true) {
    if (W != 0) {
      size_t Bit = WordIdx * 64 + static_cast<size_t>(std::countr_zero(W));
      return Bit < NumBits ? Bit : npos;
    }
    if (++WordIdx == E)
      return npos;
    W = Words[WordIdx];
  }
}

DenseBitVector &DenseBitVector::operator|=(const DenseBitVector &RHS) {
  ++WordOpCount;
  assert(NumBits == RHS.NumBits && "bit vector size mismatch");
  uint64_t *W = words();
  const uint64_t *R = RHS.words();
  for (size_t I = 0, E = numWords(); I != E; ++I)
    W[I] |= R[I];
  return *this;
}

DenseBitVector &DenseBitVector::operator&=(const DenseBitVector &RHS) {
  ++WordOpCount;
  assert(NumBits == RHS.NumBits && "bit vector size mismatch");
  uint64_t *W = words();
  const uint64_t *R = RHS.words();
  for (size_t I = 0, E = numWords(); I != E; ++I)
    W[I] &= R[I];
  return *this;
}

DenseBitVector &DenseBitVector::andNot(const DenseBitVector &RHS) {
  ++WordOpCount;
  assert(NumBits == RHS.NumBits && "bit vector size mismatch");
  uint64_t *W = words();
  const uint64_t *R = RHS.words();
  for (size_t I = 0, E = numWords(); I != E; ++I)
    W[I] &= ~R[I];
  return *this;
}

void DenseBitVector::clearUnusedBits() {
  if (NumBits % 64 != 0)
    words()[numWords() - 1] &= (uint64_t(1) << (NumBits % 64)) - 1;
}

namespace nascent {

bool operator==(const DenseBitVector &A, const DenseBitVector &B) {
  ++WordOpCount;
  if (A.NumBits != B.NumBits)
    return false;
  const uint64_t *WA = A.words(), *WB = B.words();
  for (size_t I = 0, E = A.numWords(); I != E; ++I)
    if (WA[I] != WB[I])
      return false;
  return true;
}

} // namespace nascent
