//===----------------------------------------------------------------------===//
///
/// \file
/// Linear (affine) integer expressions over symbols: sum of coeff*symbol
/// terms plus a constant. This is the normal form behind the paper's
/// canonical range checks (section 2.2): terms are kept in a canonical
/// order (by symbol id) so that semantically equivalent but syntactically
/// different expressions compare equal, which maximises family sizes.
///
/// Almost every check, guard and loop bound has one or two terms, so up to
/// two terms live inline and only larger expressions allocate. Where the
/// terms live is invisible: inline and heap terms keep the same sorted
/// order, and equality, hash() and str() read only the term sequence.
///
//===----------------------------------------------------------------------===//

#ifndef NASCENT_IR_LINEAREXPR_H
#define NASCENT_IR_LINEAREXPR_H

#include "ir/Symbol.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iterator>
#include <optional>
#include <string>
#include <utility>

namespace nascent {

class SymbolTable;

/// An affine expression  sum_i Coeff_i * Sym_i + Const  with terms sorted by
/// symbol id and no zero coefficients.
class LinearExpr {
public:
  /// One (symbol, coefficient) term.
  using Term = std::pair<SymbolID, int64_t>;

  /// A read-only view of the terms in symbol order. Iterating yields Term
  /// values, so `for (const auto &[Sym, Coeff] : E.terms())` reads as over
  /// a container of pairs. Valid until the expression changes.
  class TermRange {
  public:
    class iterator {
    public:
      using iterator_category = std::input_iterator_tag;
      using value_type = Term;
      using difference_type = std::ptrdiff_t;
      using pointer = void;
      using reference = Term;

      iterator() = default;
      Term operator*() const { return {Syms[Idx], Coeffs[Idx]}; }
      iterator &operator++() {
        ++Idx;
        return *this;
      }
      iterator operator++(int) {
        iterator Old = *this;
        ++Idx;
        return Old;
      }
      friend bool operator==(const iterator &A, const iterator &B) {
        return A.Idx == B.Idx;
      }

    private:
      friend class TermRange;
      iterator(const SymbolID *Syms, const int64_t *Coeffs, size_t Idx)
          : Syms(Syms), Coeffs(Coeffs), Idx(Idx) {}
      const SymbolID *Syms = nullptr;
      const int64_t *Coeffs = nullptr;
      size_t Idx = 0;
    };

    iterator begin() const { return {Syms, Coeffs, 0}; }
    iterator end() const { return {Syms, Coeffs, N}; }
    size_t size() const { return N; }
    bool empty() const { return N == 0; }
    Term operator[](size_t I) const { return {Syms[I], Coeffs[I]}; }
    Term front() const { return (*this)[0]; }

  private:
    friend class LinearExpr;
    TermRange(const SymbolID *Syms, const int64_t *Coeffs, size_t N)
        : Syms(Syms), Coeffs(Coeffs), N(N) {}
    const SymbolID *Syms;
    const int64_t *Coeffs;
    size_t N;
  };

  // Copies and moves of inline expressions are a few word moves, inlined
  // into every Instruction and CheckExpr copy; only heap expressions take
  // the out-of-line path.
  LinearExpr() = default;
  LinearExpr(const LinearExpr &Other) : Const(Other.Const) {
    if (Other.onHeap())
      copyTerms(Other);
    else
      takeWords(Other);
  }
  LinearExpr(LinearExpr &&Other) noexcept : Const(Other.Const) {
    takeWords(Other);
    Other.Coeffs[0] = Other.Coeffs[1] = 0;
  }
  LinearExpr &operator=(const LinearExpr &Other) {
    if (this == &Other)
      return *this;
    if (onHeap() || Other.onHeap())
      copyTerms(Other);
    else
      takeWords(Other);
    Const = Other.Const;
    return *this;
  }
  LinearExpr &operator=(LinearExpr &&Other) noexcept {
    if (this == &Other)
      return *this;
    release();
    takeWords(Other);
    Const = Other.Const;
    Other.Coeffs[0] = Other.Coeffs[1] = 0;
    return *this;
  }
  ~LinearExpr() {
    if (onHeap())
      ::operator delete(Heap);
  }

  /// The constant expression \p C.
  static LinearExpr constant(int64_t C) {
    LinearExpr E;
    E.Const = C;
    return E;
  }

  /// The single-symbol expression  Coeff * Sym.
  static LinearExpr term(SymbolID Sym, int64_t Coeff = 1) {
    LinearExpr E;
    if (Coeff != 0) {
      E.InlineSyms[0] = Sym;
      E.Coeffs[0] = Coeff;
    }
    return E;
  }

  /// Adds \p Coeff * \p Sym into this expression.
  void addTerm(SymbolID Sym, int64_t Coeff);

  /// Adds \p C into the constant part.
  void addConstant(int64_t C) { Const += C; }

  LinearExpr &operator+=(const LinearExpr &RHS);
  LinearExpr &operator-=(const LinearExpr &RHS);

  friend LinearExpr operator+(LinearExpr A, const LinearExpr &B) {
    A += B;
    return A;
  }
  friend LinearExpr operator-(LinearExpr A, const LinearExpr &B) {
    A -= B;
    return A;
  }

  /// Returns this expression multiplied by the constant \p Factor.
  LinearExpr scaled(int64_t Factor) const;

  /// Returns the negation of this expression.
  LinearExpr negated() const { return scaled(-1); }

  /// True when there are no symbolic terms.
  bool isConstant() const { return size() == 0; }

  /// The constant part.
  int64_t constantPart() const { return Const; }

  /// Returns a copy with the constant part zeroed; this is the
  /// "range-expression" of a canonical check.
  LinearExpr symbolicPart() const {
    LinearExpr E = *this;
    E.Const = 0;
    return E;
  }

  /// Coefficient of \p Sym (0 when absent).
  int64_t coeff(SymbolID Sym) const;

  /// Removes the \p Sym term and returns its former coefficient.
  int64_t removeTerm(SymbolID Sym);

  /// Replaces the \p Sym term (coefficient c) by c * Replacement.
  /// No-op when the term is absent.
  void substitute(SymbolID Sym, const LinearExpr &Replacement);

  /// True if \p Sym appears with a nonzero coefficient.
  bool references(SymbolID Sym) const { return coeff(Sym) != 0; }

  /// The terms, sorted by symbol id.
  TermRange terms() const { return {syms(), coeffs(), size()}; }

  /// Renders e.g. "2*n - i + 3" using names from \p Syms; "0" when empty.
  std::string str(const SymbolTable &Syms) const;

  /// Structural equality (terms and constant).
  friend bool operator==(const LinearExpr &A, const LinearExpr &B) {
    uint32_t N = A.size();
    return A.Const == B.Const && N == B.size() &&
           std::equal(A.syms(), A.syms() + N, B.syms()) &&
           std::equal(A.coeffs(), A.coeffs() + N, B.coeffs());
  }
  friend bool operator!=(const LinearExpr &A, const LinearExpr &B) {
    return !(A == B);
  }

  /// Hash of the full expression, suitable for unordered_map keys.
  size_t hash() const;

private:
  // Up to two terms live inline: InlineSyms[k] and Coeffs[k] for
  // k < size(), with zero coefficients in the unused slots (terms never
  // have one). A larger expression keeps its terms in one heap block, Cap
  // coefficients followed by Cap symbols, pointed to by Heap; Coeffs[0]
  // is then 0 and Coeffs[1] packs the size (low half) and the capacity
  // (high half), a state no inline expression can be in. The block is
  // kept when the expression shrinks again, so the representation only
  // decides where the terms are read from, never their order or values.
  static constexpr uint32_t InlineTerms = 2;

  bool onHeap() const { return Coeffs[0] == 0 && Coeffs[1] != 0; }
  uint32_t size() const {
    if (onHeap())
      return static_cast<uint32_t>(Coeffs[1]);
    return (Coeffs[0] != 0) + (Coeffs[1] != 0);
  }
  uint32_t capacity() const {
    return onHeap() ? static_cast<uint32_t>(uint64_t(Coeffs[1]) >> 32)
                    : InlineTerms;
  }
  int64_t *coeffs() { return onHeap() ? Heap : Coeffs; }
  const int64_t *coeffs() const { return onHeap() ? Heap : Coeffs; }
  SymbolID *syms() {
    return onHeap() ? reinterpret_cast<SymbolID *>(Heap + capacity())
                    : InlineSyms;
  }
  const SymbolID *syms() const {
    return onHeap() ? reinterpret_cast<const SymbolID *>(Heap + capacity())
                    : InlineSyms;
  }
  /// Records the heap size of a heap expression.
  void setHeapSize(uint32_t N) {
    Coeffs[1] = static_cast<int64_t>((uint64_t(capacity()) << 32) | N);
  }

  /// Index of the first term whose symbol is not below \p Sym.
  uint32_t lowerBound(SymbolID Sym) const;
  /// Inserts a term at position \p Pos, spilling to the heap when full.
  void insertAt(uint32_t Pos, SymbolID Sym, int64_t Coeff);
  /// Removes the term at position \p Pos; the storage stays where it is.
  void eraseAt(uint32_t Pos);
  /// Readies storage for \p N terms that the caller then writes through
  /// syms() and coeffs(), reusing the heap block when it is large enough.
  /// Inline, the caller's nonzero coefficients are what make the size.
  void resizeForCopy(uint32_t N);
  /// Frees the heap block, if any, leaving an empty inline expression.
  void release() {
    if (onHeap())
      ::operator delete(Heap);
    Coeffs[0] = Coeffs[1] = 0;
  }
  /// Copies \p Other's terms into this expression's own storage.
  void copyTerms(const LinearExpr &Other);
  /// Takes \p Other's term words as they are: its inline terms, or its
  /// heap block and size word.
  void takeWords(const LinearExpr &Other) {
    if (Other.onHeap()) {
      Heap = Other.Heap;
    } else {
      InlineSyms[0] = Other.InlineSyms[0];
      InlineSyms[1] = Other.InlineSyms[1];
    }
    Coeffs[0] = Other.Coeffs[0];
    Coeffs[1] = Other.Coeffs[1];
  }

  union {
    SymbolID InlineSyms[InlineTerms] = {0, 0};
    int64_t *Heap;
  };
  int64_t Coeffs[InlineTerms] = {0, 0};
  int64_t Const = 0;
};

static_assert(sizeof(LinearExpr) <= 32,
              "LinearExpr is embedded in every instruction and check");

/// Hash functor so LinearExpr can key unordered containers.
struct LinearExprHash {
  size_t operator()(const LinearExpr &E) const { return E.hash(); }
};

} // namespace nascent

#endif // NASCENT_IR_LINEAREXPR_H
