#include "support/DenseBitVector.h"

#include <atomic>
#include <utility>

using namespace nascent;

namespace {
/// Word ops of threads that have exited (or flushed their stat shard).
std::atomic<uint64_t> RetiredWordOps{0};
} // namespace

uint64_t DenseBitVector::wordOps() {
  return RetiredWordOps.load(std::memory_order_relaxed) + detail::WordOpCount;
}

void DenseBitVector::retireThreadOps() {
  RetiredWordOps.fetch_add(detail::WordOpCount, std::memory_order_relaxed);
  detail::WordOpCount = 0;
}

DenseBitVector::DenseBitVector(size_t NumBits, bool InitialValue)
    : NumBits(NumBits) {
  if (!isInline())
    Heap.assign(numWords(), 0);
  if (InitialValue)
    setAll();
}

DenseBitVector::DenseBitVector(ConstBitRow Row) : DenseBitVector(Row.size()) {
  row().assign(Row);
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
  row().clearUnusedBits();
}
