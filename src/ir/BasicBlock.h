//===----------------------------------------------------------------------===//
///
/// \file
/// Basic blocks: straight-line instruction sequences ending in exactly one
/// terminator. Successors are derived from the terminator; predecessor
/// lists are (re)computed by Function::recomputePreds after CFG edits.
///
//===----------------------------------------------------------------------===//

#ifndef NASCENT_IR_BASICBLOCK_H
#define NASCENT_IR_BASICBLOCK_H

#include "ir/Instruction.h"

#include <algorithm>
#include <array>
#include <string>
#include <vector>

namespace nascent {

/// The successor block ids of one block, held inline: a terminator has at
/// most two targets, so asking a block for its successors never touches
/// the heap. Iterates like a container, in terminator order (a Br's true
/// target first).
class SuccessorList {
public:
  using value_type = BlockID;
  using const_iterator = const BlockID *;
  using iterator = const_iterator;

  SuccessorList() = default;
  explicit SuccessorList(BlockID A) : Ids{A, InvalidBlock}, Count(1) {}
  SuccessorList(BlockID A, BlockID B) : Ids{A, B}, Count(2) {}

  const_iterator begin() const { return Ids.data(); }
  const_iterator end() const { return Ids.data() + Count; }
  size_t size() const { return Count; }
  bool empty() const { return Count == 0; }
  BlockID operator[](size_t I) const {
    assert(I < Count && "successor index out of range");
    return Ids[I];
  }

  friend bool operator==(const SuccessorList &A, const SuccessorList &B) {
    return A.Count == B.Count && std::equal(A.begin(), A.end(), B.begin());
  }
  friend bool operator!=(const SuccessorList &A, const SuccessorList &B) {
    return !(A == B);
  }

private:
  std::array<BlockID, 2> Ids = {InvalidBlock, InvalidBlock};
  uint32_t Count = 0;
};

/// The predecessor block ids of one block. Almost every block has one or
/// two predecessors, so four ids live inline (the footprint of a
/// std::vector) and copying a block allocates nothing for them.
using PredList = InlineVector<BlockID, 4>;

/// One CFG node. Blocks are owned by their Function and addressed by their
/// dense BlockID.
class BasicBlock {
public:
  BasicBlock(BlockID ID, std::string Name) : ID(ID), Name(std::move(Name)) {}

  BlockID id() const { return ID; }
  const std::string &name() const { return Name; }
  void setName(std::string N) { Name = std::move(N); }

  std::vector<Instruction> &instructions() { return Insts; }
  const std::vector<Instruction> &instructions() const { return Insts; }

  bool empty() const { return Insts.empty(); }
  size_t size() const { return Insts.size(); }

  /// The terminator, which must exist for a well-formed block.
  const Instruction &terminator() const {
    assert(!Insts.empty() && Insts.back().isTerminator() &&
           "block has no terminator");
    return Insts.back();
  }
  Instruction &terminator() {
    assert(!Insts.empty() && Insts.back().isTerminator() &&
           "block has no terminator");
    return Insts.back();
  }

  /// True once a terminator has been appended.
  bool hasTerminator() const {
    return !Insts.empty() && Insts.back().isTerminator();
  }

  /// Appends \p I; asserts the block is not already terminated.
  void append(Instruction I) {
    assert(!hasTerminator() && "appending past the terminator");
    Insts.push_back(std::move(I));
  }

  /// Appends an instruction with opcode \p Op, constructed in place, and
  /// returns it for the caller to fill in; asserts the block is not
  /// already terminated.
  Instruction &appendNew(Opcode Op) {
    assert(!hasTerminator() && "appending past the terminator");
    Instruction &I = Insts.emplace_back();
    I.Op = Op;
    return I;
  }

  /// Inserts \p I before position \p Pos (0 = block start).
  void insertAt(size_t Pos, Instruction I) {
    assert(Pos <= Insts.size() && "insert position out of range");
    Insts.insert(Insts.begin() + static_cast<ptrdiff_t>(Pos), std::move(I));
  }

  /// Inserts \p I immediately before the terminator. The block must be
  /// terminated.
  void insertBeforeTerminator(Instruction I) {
    assert(hasTerminator() && "block has no terminator");
    Insts.insert(Insts.end() - 1, std::move(I));
  }

  /// Erases the instructions at the strictly ascending positions \p Sorted
  /// in one compaction pass, keeping the others in order. Linear in the
  /// block size; erasing them one at a time is quadratic.
  void eraseAt(const std::vector<size_t> &Sorted) {
    if (Sorted.empty())
      return;
    size_t Out = Sorted.front(), Next = 0;
    for (size_t In = Out; In != Insts.size(); ++In) {
      if (Next != Sorted.size() && Sorted[Next] == In) {
        ++Next;
        continue;
      }
      Insts[Out++] = std::move(Insts[In]);
    }
    assert(Next == Sorted.size() && "erase position out of range");
    Insts.erase(Insts.begin() + static_cast<ptrdiff_t>(Out), Insts.end());
  }

  /// Successor block ids, derived from the terminator: two for a Br with
  /// distinct targets, one for a Jump or a Br whose targets are equal,
  /// none for Ret/Trap (or a block without a terminator).
  SuccessorList successors() const;

  /// Predecessors; valid only after Function::recomputePreds.
  const PredList &preds() const { return Preds; }

private:
  friend class Function;

  BlockID ID;
  std::string Name;
  std::vector<Instruction> Insts;
  PredList Preds;
};

} // namespace nascent

#endif // NASCENT_IR_BASICBLOCK_H
