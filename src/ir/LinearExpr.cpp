#include "ir/LinearExpr.h"

#include "ir/Symbol.h"

#include <algorithm>

using namespace nascent;

void LinearExpr::copyTerms(const LinearExpr &Other) {
  uint32_t N = Other.size();
  resizeForCopy(N);
  std::copy(Other.syms(), Other.syms() + N, syms());
  std::copy(Other.coeffs(), Other.coeffs() + N, coeffs());
}

/// A heap block for \p Cap terms: Cap coefficients, then Cap symbols.
static int64_t *allocateTerms(uint32_t Cap) {
  return static_cast<int64_t *>(
      ::operator new(Cap * (sizeof(int64_t) + sizeof(SymbolID))));
}

void LinearExpr::resizeForCopy(uint32_t N) {
  if (onHeap() && N <= capacity()) {
    setHeapSize(N);
    return;
  }
  release();
  if (N <= InlineTerms)
    return; // the copied nonzero coefficients make the size
  Heap = allocateTerms(N);
  Coeffs[1] = static_cast<int64_t>((uint64_t(N) << 32) | N);
}

uint32_t LinearExpr::lowerBound(SymbolID Sym) const {
  const SymbolID *Begin = syms();
  return static_cast<uint32_t>(std::lower_bound(Begin, Begin + size(), Sym) -
                               Begin);
}

void LinearExpr::insertAt(uint32_t Pos, SymbolID Sym, int64_t Coeff) {
  uint32_t N = size();
  if (N == capacity()) {
    uint32_t NewCap = std::max<uint32_t>(2 * N, 4);
    int64_t *Block = allocateTerms(NewCap);
    std::copy(coeffs(), coeffs() + N, Block);
    std::copy(syms(), syms() + N, reinterpret_cast<SymbolID *>(Block + NewCap));
    release();
    Heap = Block;
    Coeffs[1] = static_cast<int64_t>((uint64_t(NewCap) << 32) | N);
  }
  // Shifting up never leaves an inline expression with a zero first and
  // a nonzero second coefficient, the heap marker.
  bool Heaped = onHeap();
  int64_t *Cs = coeffs();
  SymbolID *Ss = syms();
  std::copy_backward(Cs + Pos, Cs + N, Cs + N + 1);
  std::copy_backward(Ss + Pos, Ss + N, Ss + N + 1);
  Cs[Pos] = Coeff;
  Ss[Pos] = Sym;
  if (Heaped)
    setHeapSize(N + 1);
}

void LinearExpr::eraseAt(uint32_t Pos) {
  uint32_t N = size();
  bool Heaped = onHeap();
  int64_t *Cs = coeffs();
  SymbolID *Ss = syms();
  std::copy(Cs + Pos + 1, Cs + N, Cs + Pos);
  std::copy(Ss + Pos + 1, Ss + N, Ss + Pos);
  if (Heaped)
    setHeapSize(N - 1);
  else
    Coeffs[N - 1] = 0; // the last slot empties: shifting down first never
                       // leaves a zero ahead of a nonzero coefficient
}

void LinearExpr::addTerm(SymbolID Sym, int64_t Coeff) {
  if (Coeff == 0)
    return;
  uint32_t Pos = lowerBound(Sym);
  if (Pos != size() && syms()[Pos] == Sym) {
    // Decide before writing: a zero left in an inline slot would read as
    // the heap marker.
    int64_t Sum = coeffs()[Pos] + Coeff;
    if (Sum == 0)
      eraseAt(Pos);
    else
      coeffs()[Pos] = Sum;
    return;
  }
  insertAt(Pos, Sym, Coeff);
}

LinearExpr &LinearExpr::operator+=(const LinearExpr &RHS) {
  for (const auto &[Sym, Coeff] : RHS.terms())
    addTerm(Sym, Coeff);
  Const += RHS.Const;
  return *this;
}

LinearExpr &LinearExpr::operator-=(const LinearExpr &RHS) {
  for (const auto &[Sym, Coeff] : RHS.terms())
    addTerm(Sym, -Coeff);
  Const -= RHS.Const;
  return *this;
}

LinearExpr LinearExpr::scaled(int64_t Factor) const {
  LinearExpr E;
  if (Factor == 0)
    return E;
  E.Const = Const * Factor;
  // Appending in order keeps the terms sorted. A product that wraps to
  // zero drops its term, so no zero coefficient is ever stored.
  for (const auto &[Sym, Coeff] : terms())
    if (int64_t Scaled = Coeff * Factor)
      E.insertAt(E.size(), Sym, Scaled);
  return E;
}

int64_t LinearExpr::coeff(SymbolID Sym) const {
  uint32_t Pos = lowerBound(Sym);
  if (Pos != size() && syms()[Pos] == Sym)
    return coeffs()[Pos];
  return 0;
}

int64_t LinearExpr::removeTerm(SymbolID Sym) {
  uint32_t Pos = lowerBound(Sym);
  if (Pos == size() || syms()[Pos] != Sym)
    return 0;
  int64_t C = coeffs()[Pos];
  eraseAt(Pos);
  return C;
}

void LinearExpr::substitute(SymbolID Sym, const LinearExpr &Replacement) {
  int64_t C = removeTerm(Sym);
  if (C != 0)
    *this += Replacement.scaled(C);
}

std::string LinearExpr::str(const SymbolTable &Syms) const {
  if (isConstant())
    return std::to_string(Const);
  std::string Out;
  bool First = true;
  // Magnitudes are unsigned, so INT64_MIN prints without overflow.
  auto magnitude = [](int64_t V) {
    return V < 0 ? 0 - static_cast<uint64_t>(V) : static_cast<uint64_t>(V);
  };
  for (const auto &[Sym, Coeff] : terms()) {
    if (First) {
      if (Coeff < 0)
        Out += "-";
    } else {
      Out += (Coeff < 0) ? " - " : " + ";
    }
    if (magnitude(Coeff) != 1)
      Out += std::to_string(magnitude(Coeff)) + "*";
    Out += Syms.name(Sym);
    First = false;
  }
  if (Const > 0)
    Out += " + " + std::to_string(Const);
  else if (Const < 0)
    Out += " - " + std::to_string(magnitude(Const));
  return Out;
}

size_t LinearExpr::hash() const {
  size_t H = std::hash<int64_t>()(Const);
  for (const auto &[Sym, Coeff] : terms()) {
    H ^= std::hash<uint64_t>()((uint64_t(Sym) << 32) ^ uint64_t(Coeff)) +
         0x9e3779b97f4a7c15ull + (H << 6) + (H >> 2);
  }
  return H;
}
