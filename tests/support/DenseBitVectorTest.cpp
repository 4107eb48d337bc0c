#include "support/DenseBitVector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <string>
#include <vector>

using namespace nascent;

TEST(DenseBitVector, EmptyVector) {
  DenseBitVector V;
  EXPECT_EQ(V.size(), 0u);
  EXPECT_TRUE(V.empty());
  EXPECT_TRUE(V.none());
  EXPECT_EQ(V.count(), 0u);
  EXPECT_EQ(V.findNext(0), DenseBitVector::npos);
}

TEST(DenseBitVector, SetResetTest) {
  DenseBitVector V(130);
  EXPECT_FALSE(V.test(0));
  V.set(0);
  V.set(64);
  V.set(129);
  EXPECT_TRUE(V.test(0));
  EXPECT_TRUE(V.test(64));
  EXPECT_TRUE(V.test(129));
  EXPECT_FALSE(V.test(1));
  EXPECT_EQ(V.count(), 3u);
  V.reset(64);
  EXPECT_FALSE(V.test(64));
  EXPECT_EQ(V.count(), 2u);
}

TEST(DenseBitVector, InitialValueTrue) {
  DenseBitVector V(70, true);
  EXPECT_EQ(V.count(), 70u);
  EXPECT_TRUE(V.test(69));
}

TEST(DenseBitVector, SetAllRespectsSize) {
  // The unused high bits of the last word must stay clear so count and
  // equality remain exact.
  DenseBitVector V(65);
  V.setAll();
  EXPECT_EQ(V.count(), 65u);
  DenseBitVector W(65, true);
  EXPECT_EQ(V, W);
}

TEST(DenseBitVector, FindNextSkipsWords) {
  DenseBitVector V(256);
  V.set(3);
  V.set(200);
  EXPECT_EQ(V.findNext(0), 3u);
  EXPECT_EQ(V.findNext(4), 200u);
  EXPECT_EQ(V.findNext(201), DenseBitVector::npos);
}

TEST(DenseBitVector, SetAlgebra) {
  DenseBitVector A(100), B(100);
  A.set(1);
  A.set(50);
  B.set(50);
  B.set(99);

  DenseBitVector Or = A;
  Or |= B;
  EXPECT_TRUE(Or.test(1));
  EXPECT_TRUE(Or.test(50));
  EXPECT_TRUE(Or.test(99));
  EXPECT_EQ(Or.count(), 3u);

  DenseBitVector And = A;
  And &= B;
  EXPECT_EQ(And.count(), 1u);
  EXPECT_TRUE(And.test(50));

  DenseBitVector Diff = A;
  Diff.andNot(B);
  EXPECT_EQ(Diff.count(), 1u);
  EXPECT_TRUE(Diff.test(1));
}

TEST(DenseBitVector, ResizePreservesAndClears) {
  DenseBitVector V(64);
  V.set(10);
  V.resize(128);
  EXPECT_TRUE(V.test(10));
  EXPECT_FALSE(V.test(100));
  V.resize(8);
  EXPECT_EQ(V.size(), 8u);
}

TEST(DenseBitVector, ForEachSetBitOrder) {
  DenseBitVector V(300);
  std::vector<size_t> Expected = {0, 63, 64, 128, 299};
  for (size_t B : Expected)
    V.set(B);
  std::vector<size_t> Seen;
  V.forEachSetBit([&](size_t B) { Seen.push_back(B); });
  EXPECT_EQ(Seen, Expected);
}

// --- inline/heap boundary --------------------------------------------------
// Vectors of up to 128 bits keep their words inline; larger ones on the
// heap. Every size class below meets every other one.

namespace {

const size_t BoundarySizes[] = {0, 1, 63, 64, 65, 127, 128, 129, 300};

/// A vector of \p N bits with a size-dependent pattern: bit 0, every
/// third bit and the top bit.
DenseBitVector patterned(size_t N) {
  DenseBitVector V(N);
  for (size_t B = 0; B < N; B += 3)
    V.set(B);
  if (N != 0)
    V.set(N - 1);
  return V;
}

void expectPatterned(const DenseBitVector &V, size_t N) {
  ASSERT_EQ(V.size(), N);
  for (size_t B = 0; B != N; ++B)
    EXPECT_EQ(V.test(B), B % 3 == 0 || B == N - 1) << "bit " << B;
}

void expectEmpty(const DenseBitVector &V) {
  EXPECT_EQ(V.size(), 0u);
  EXPECT_TRUE(V.empty());
  EXPECT_TRUE(V.none());
  EXPECT_EQ(V.findNext(0), DenseBitVector::npos);
}

} // namespace

TEST(DenseBitVector, CopyAndMoveAcrossInlineHeapBoundary) {
  for (size_t From : BoundarySizes) {
    SCOPED_TRACE("from " + std::to_string(From));
    DenseBitVector Src = patterned(From);

    DenseBitVector Copy(Src);
    expectPatterned(Copy, From);
    expectPatterned(Src, From);

    DenseBitVector Moved(std::move(Src));
    expectPatterned(Moved, From);
    expectEmpty(Src);
    // A moved-from vector is reusable.
    Src.resize(From);
    EXPECT_EQ(Src.size(), From);
    EXPECT_TRUE(Src.none());

    for (size_t To : BoundarySizes) {
      SCOPED_TRACE("to " + std::to_string(To));
      DenseBitVector Dst = patterned(To);
      Dst = Copy;
      expectPatterned(Dst, From);
      EXPECT_TRUE(Dst == Copy);

      DenseBitVector Tmp = patterned(From);
      DenseBitVector Dst2 = patterned(To);
      Dst2 = std::move(Tmp);
      expectPatterned(Dst2, From);
      expectEmpty(Tmp);
    }

    // Self-assignment keeps the contents.
    DenseBitVector Self = patterned(From);
    DenseBitVector &Alias = Self;
    Self = Alias;
    expectPatterned(Self, From);
    Self = std::move(Alias);
    expectPatterned(Self, From);
  }
}

TEST(DenseBitVector, ResizeAcrossBoundaryKeepsLowBitsAndClearsTail) {
  for (size_t From : BoundarySizes) {
    for (size_t To : BoundarySizes) {
      SCOPED_TRACE(std::to_string(From) + " -> " + std::to_string(To));
      DenseBitVector V(From, true);
      V.resize(To);
      ASSERT_EQ(V.size(), To);
      for (size_t B = 0; B != To; ++B)
        EXPECT_EQ(V.test(B), B < From) << "bit " << B;
      EXPECT_EQ(V.count(), std::min(From, To));
      // Growing back must not resurrect bits dropped by a shrink.
      V.resize(300);
      EXPECT_EQ(V.count(), std::min({From, To, size_t(300)}));
    }
  }
}

TEST(DenseBitVector, EqualityAcrossBoundary) {
  for (size_t N : BoundarySizes) {
    SCOPED_TRACE(N);
    EXPECT_TRUE(patterned(N) == patterned(N));
    EXPECT_TRUE(DenseBitVector(N, true) == DenseBitVector(N, true));
    if (N != 0) {
      DenseBitVector Other = patterned(N);
      Other.reset(N - 1);
      EXPECT_TRUE(patterned(N) != Other);
    }
    // Shrinking to N and growing a smaller vector to N give equal vectors.
    DenseBitVector Shrunk(300, true), Grown(N == 0 ? 0 : N - 1, true);
    Shrunk.resize(N);
    Grown.resize(N);
    if (N != 0)
      Grown.set(N - 1);
    EXPECT_TRUE(Shrunk == Grown);
  }
  EXPECT_TRUE(patterned(64) != patterned(65));
}

TEST(DenseBitVector, CopiesAndMovesAreNotCountedWordOps) {
  for (size_t N : BoundarySizes) {
    SCOPED_TRACE(N);
    DenseBitVector A = patterned(N), B(N, true);
    uint64_t Before = DenseBitVector::threadWordOps();
    DenseBitVector C(A);
    DenseBitVector D(std::move(C));
    C = D;
    D = std::move(C);
    EXPECT_EQ(DenseBitVector::threadWordOps(), Before);

    auto expectOneOp = [&](auto Op) {
      uint64_t At = DenseBitVector::threadWordOps();
      Op();
      EXPECT_EQ(DenseBitVector::threadWordOps(), At + 1);
    };
    expectOneOp([&] { D |= B; });
    expectOneOp([&] { D &= A; });
    expectOneOp([&] { D.andNot(A); });
    expectOneOp([&] { (void)D.count(); });
    expectOneOp([&] { (void)(D == A); });
  }
}

/// Property sweep: random operations agree with std::set semantics, at
/// sizes on both sides of the inline/heap boundary.
class BitVectorRandomTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(BitVectorRandomTest, MatchesReferenceSet) {
  std::mt19937 Rng(GetParam());
  for (size_t N : {size_t(5), size_t(64), size_t(130), size_t(200)}) {
    SCOPED_TRACE(N);
    DenseBitVector V(N), W(N);
    std::set<size_t> Ref, RefW;
    for (int Step = 0; Step != 500; ++Step) {
      size_t Bit = Rng() % N;
      switch (Rng() % 3) {
      case 0:
        V.set(Bit);
        Ref.insert(Bit);
        break;
      case 1:
        V.reset(Bit);
        Ref.erase(Bit);
        break;
      default:
        W.set(Bit);
        RefW.insert(Bit);
        break;
      }
    }
    EXPECT_EQ(V.count(), Ref.size());
    for (size_t B = 0; B != N; ++B)
      EXPECT_EQ(V.test(B), Ref.count(B) != 0) << "bit " << B;

    DenseBitVector Or = V, And = V, Diff = V;
    Or |= W;
    And &= W;
    Diff.andNot(W);
    for (size_t B = 0; B != N; ++B) {
      bool InV = Ref.count(B) != 0, InW = RefW.count(B) != 0;
      EXPECT_EQ(Or.test(B), InV || InW) << "bit " << B;
      EXPECT_EQ(And.test(B), InV && InW) << "bit " << B;
      EXPECT_EQ(Diff.test(B), InV && !InW) << "bit " << B;
    }
    std::vector<size_t> Seen;
    V.forEachSetBit([&](size_t B) { Seen.push_back(B); });
    EXPECT_EQ(Seen, std::vector<size_t>(Ref.begin(), Ref.end()));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BitVectorRandomTest,
                         ::testing::Values(1u, 2u, 3u, 42u, 1234u));
