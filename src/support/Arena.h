//===----------------------------------------------------------------------===//
///
/// \file
/// A bump allocator for objects that live and die together. The parser
/// builds each program's syntax tree, child lists and identifier spellings
/// in one arena, so a parse allocates a few chunks instead of one heap
/// block per node, and the tree is freed by releasing the chunks.
///
/// Only trivially destructible objects may live in an arena: no destructor
/// runs when it is released.
///
//===----------------------------------------------------------------------===//

#ifndef NASCENT_SUPPORT_ARENA_H
#define NASCENT_SUPPORT_ARENA_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <span>
#include <string_view>
#include <type_traits>
#include <utility>

namespace nascent {

class Arena {
public:
  Arena() = default;
  Arena(const Arena &) = delete;
  Arena &operator=(const Arena &) = delete;
  ~Arena() {
    while (Head) {
      Chunk *Next = Head->Next;
      ::operator delete(Head);
      Head = Next;
    }
  }

  /// \p Size bytes aligned to \p Align (a power of two no larger than
  /// alignof(std::max_align_t)).
  void *allocate(size_t Size, size_t Align) {
    assert(Align <= alignof(std::max_align_t) && (Align & (Align - 1)) == 0);
    uintptr_t P = (reinterpret_cast<uintptr_t>(Cur) + Align - 1) &
                  ~uintptr_t(Align - 1);
    if (!Cur || P + Size > reinterpret_cast<uintptr_t>(End)) {
      grow(Size);
      P = reinterpret_cast<uintptr_t>(Cur);
    }
    Cur = reinterpret_cast<char *>(P + Size);
    return reinterpret_cast<void *>(P);
  }

  /// Constructs a T in the arena.
  template <typename T, typename... ArgTs> T *make(ArgTs &&...Args) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena objects are never destroyed");
    return new (allocate(sizeof(T), alignof(T)))
        T(std::forward<ArgTs>(Args)...);
  }

  /// Copies \p Src into the arena; an empty list allocates nothing.
  template <typename T> std::span<T> copy(std::span<const T> Src) {
    static_assert(std::is_trivially_copyable_v<T> &&
                      std::is_trivially_destructible_v<T>,
                  "arena lists are copied bytewise and never destroyed");
    if (Src.empty())
      return {};
    T *Dst = static_cast<T *>(allocate(sizeof(T) * Src.size(), alignof(T)));
    std::memcpy(static_cast<void *>(Dst), Src.data(), sizeof(T) * Src.size());
    return {Dst, Src.size()};
  }

  /// Copies the characters of \p S into the arena.
  std::string_view copy(std::string_view S) {
    if (S.empty())
      return {};
    char *Dst = static_cast<char *>(allocate(S.size(), 1));
    std::memcpy(Dst, S.data(), S.size());
    return {Dst, S.size()};
  }

  /// Chunks obtained from the heap so far.
  size_t numChunks() const { return NumChunks; }

private:
  struct Chunk {
    Chunk *Next;
  };
  static constexpr size_t FirstChunkBytes = 4096;
  static constexpr size_t MaxChunkBytes = 64 * 1024;

  /// Starts a chunk with room for \p Need bytes at any supported
  /// alignment. Chunks double up to MaxChunkBytes; a larger request gets a
  /// chunk of its own size.
  void grow(size_t Need) {
    size_t Bytes = NextChunkBytes;
    if (NextChunkBytes < MaxChunkBytes)
      NextChunkBytes *= 2;
    size_t Header = (sizeof(Chunk) + alignof(std::max_align_t) - 1) &
                    ~(alignof(std::max_align_t) - 1);
    if (Need + Header > Bytes)
      Bytes = Need + Header;
    auto *C = static_cast<Chunk *>(::operator new(Bytes));
    C->Next = Head;
    Head = C;
    ++NumChunks;
    Cur = reinterpret_cast<char *>(C) + Header;
    End = reinterpret_cast<char *>(C) + Bytes;
  }

  Chunk *Head = nullptr;
  char *Cur = nullptr;
  char *End = nullptr;
  size_t NextChunkBytes = FirstChunkBytes;
  size_t NumChunks = 0;
};

} // namespace nascent

#endif // NASCENT_SUPPORT_ARENA_H
