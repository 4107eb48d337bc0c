//===----------------------------------------------------------------------===//
///
/// \file
/// A vector of trivially copyable elements whose first N elements live
/// inside the object. The IR keeps its short per-instruction and per-block
/// lists (operands, subscripts, predecessors) in it, so copying an
/// instruction or a block, which the artifact cache and the audit snapshot
/// do for whole modules, touches the heap only for the rare list that has
/// outgrown its inline slots.
///
/// The rule: elements keep the order a std::vector would give them under
/// the same edits. A list that grows past N moves to one heap block
/// (capacity at least doubling) and keeps that block when it shrinks, as
/// std::vector keeps its capacity; a copy is inline again whenever the
/// source's size fits N. Iterators are plain pointers and are invalidated
/// by any edit that changes the size.
///
//===----------------------------------------------------------------------===//

#ifndef NASCENT_SUPPORT_INLINEVECTOR_H
#define NASCENT_SUPPORT_INLINEVECTOR_H

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <iterator>
#include <new>
#include <type_traits>

namespace nascent {

template <typename T, uint32_t N> class InlineVector {
  static_assert(std::is_trivially_copyable_v<T>,
                "elements are moved with memcpy");
  static_assert(N > 0, "an inline vector needs at least one inline slot");

public:
  using value_type = T;
  using size_type = size_t;
  using difference_type = std::ptrdiff_t;
  using reference = T &;
  using const_reference = const T &;
  using pointer = T *;
  using const_pointer = const T *;
  using iterator = T *;
  using const_iterator = const T *;

  /// Elements held without a heap block.
  static constexpr uint32_t InlineCapacity = N;

  InlineVector() noexcept : Inline() {}
  InlineVector(std::initializer_list<T> L) : Inline() {
    assign(L.begin(), L.end());
  }
  InlineVector(const InlineVector &O) {
    if (O.Size <= N)
      copyInline(O);
    else
      assign(O.begin(), O.end());
  }
  InlineVector(InlineVector &&O) noexcept { take(O); }
  ~InlineVector() { release(); }

  InlineVector &operator=(const InlineVector &O) {
    if (this == &O)
      return *this;
    if (isInline() && O.Size <= N)
      copyInline(O);
    else
      assign(O.begin(), O.end());
    return *this;
  }
  InlineVector &operator=(InlineVector &&O) noexcept {
    if (this != &O) {
      release();
      take(O);
    }
    return *this;
  }
  InlineVector &operator=(std::initializer_list<T> L) {
    assign(L.begin(), L.end());
    return *this;
  }

  size_t size() const { return Size; }
  bool empty() const { return Size == 0; }
  size_t capacity() const { return Cap; }
  /// True while the elements live in the inline slots.
  bool isInline() const { return Cap == N; }

  T *data() { return isInline() ? inlineData() : Heap; }
  const T *data() const { return isInline() ? inlineData() : Heap; }
  iterator begin() { return data(); }
  iterator end() { return data() + Size; }
  const_iterator begin() const { return data(); }
  const_iterator end() const { return data() + Size; }

  T &operator[](size_t I) {
    assert(I < Size && "index out of range");
    return data()[I];
  }
  const T &operator[](size_t I) const {
    assert(I < Size && "index out of range");
    return data()[I];
  }

  void reserve(size_t Want) {
    if (Want > Cap)
      grow(Want);
  }

  void clear() { Size = 0; }

  void push_back(const T &V) {
    if (Size == Cap) {
      T Copy = V; // V may live in the storage grow() frees
      grow(Size + 1);
      data()[Size++] = Copy;
      return;
    }
    data()[Size++] = V;
  }

  template <typename It> void assign(It First, It Last) {
    size_t Count = static_cast<size_t>(std::distance(First, Last));
    if (Count > Cap) {
      // Heap storage fits any source: drop it before growing so the
      // elements are copied once. A source aliasing this vector never
      // exceeds its capacity.
      Size = 0;
      grow(Count);
    }
    std::copy(First, Last, data());
    Size = static_cast<uint32_t>(Count);
  }

  /// Inserts \p V before \p Pos; returns an iterator to the new element.
  iterator insert(const_iterator Pos, const T &V) {
    size_t At = static_cast<size_t>(Pos - begin());
    assert(At <= Size && "insert position out of range");
    T Copy = V; // V may be an element of this vector
    if (Size == Cap)
      grow(Size + 1);
    T *D = data();
    std::memmove(static_cast<void *>(D + At + 1), D + At,
                 (Size - At) * sizeof(T));
    D[At] = Copy;
    ++Size;
    return D + At;
  }

  /// Erases the element at \p Pos; returns an iterator to its successor.
  iterator erase(const_iterator Pos) { return erase(Pos, Pos + 1); }

  /// Erases [First, Last); returns an iterator to the element after them.
  iterator erase(const_iterator First, const_iterator Last) {
    size_t From = static_cast<size_t>(First - begin());
    size_t To = static_cast<size_t>(Last - begin());
    assert(From <= To && To <= Size && "erase range out of range");
    T *D = data();
    std::memmove(static_cast<void *>(D + From), D + To,
                 (Size - To) * sizeof(T));
    Size -= static_cast<uint32_t>(To - From);
    return D + From;
  }

  friend bool operator==(const InlineVector &A, const InlineVector &B) {
    return A.Size == B.Size && std::equal(A.begin(), A.end(), B.begin());
  }
  friend bool operator!=(const InlineVector &A, const InlineVector &B) {
    return !(A == B);
  }

private:
  T *inlineData() { return reinterpret_cast<T *>(Inline); }
  const T *inlineData() const { return reinterpret_cast<const T *>(Inline); }

  /// Moves the elements to a heap block of at least \p Want slots.
  void grow(size_t Want) {
    assert(Want > Cap && "grow must enlarge the storage");
    size_t NewCap = std::max<size_t>(Want, size_t(Cap) * 2);
    T *P = static_cast<T *>(::operator new(NewCap * sizeof(T)));
    std::memcpy(static_cast<void *>(P), data(), Size * sizeof(T));
    release();
    Heap = P;
    Cap = static_cast<uint32_t>(NewCap);
  }

  void release() {
    if (!isInline())
      ::operator delete(Heap);
  }

  /// Copies \p O's at most N elements into the inline slots. The copy is
  /// of all N slots, a fixed-size move the compiler unrolls; a heap block
  /// always has more than N slots, so reading N of them stays inside it.
  void copyInline(const InlineVector &O) {
    std::memcpy(Inline, O.data(), sizeof(Inline));
    Size = O.Size;
  }

  /// Takes \p O's elements (its heap block, if any); O is left empty and
  /// inline. This object must own no heap block.
  void take(InlineVector &O) {
    if (O.isInline())
      std::memcpy(Inline, O.Inline, sizeof(Inline));
    else
      Heap = O.Heap;
    Size = O.Size;
    Cap = O.Cap;
    O.Size = 0;
    O.Cap = N;
  }

  union {
    alignas(T) unsigned char Inline[N * sizeof(T)];
    T *Heap;
  };
  uint32_t Size = 0;
  uint32_t Cap = N; ///< N exactly when the elements are inline
};

} // namespace nascent

#endif // NASCENT_SUPPORT_INLINEVECTOR_H
