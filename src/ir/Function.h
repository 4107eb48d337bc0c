//===----------------------------------------------------------------------===//
///
/// \file
/// Function: a CFG of basic blocks plus the symbol table, parameter list,
/// and front-end loop metadata. Procedures ("subroutine") have no result;
/// functions return a scalar.
///
//===----------------------------------------------------------------------===//

#ifndef NASCENT_IR_FUNCTION_H
#define NASCENT_IR_FUNCTION_H

#include "ir/BasicBlock.h"
#include "ir/LoopMetadata.h"
#include "ir/Symbol.h"

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace nascent {

class Module;

/// One procedure in a Module.
class Function {
public:
  explicit Function(std::string Name) : Name(std::move(Name)) {}

  const std::string &name() const { return Name; }

  SymbolTable &symbols() { return Syms; }
  const SymbolTable &symbols() const { return Syms; }

  /// Parameters in declaration order. Scalars are passed by value; arrays
  /// alias the caller's storage.
  std::vector<SymbolID> &params() { return Params; }
  const std::vector<SymbolID> &params() const { return Params; }

  /// Result type for functions; nullopt for subroutines and the program.
  std::optional<ScalarType> resultType() const { return ResultType; }
  void setResultType(ScalarType T) { ResultType = T; }

  /// Creates a new block; the first created block is the entry.
  BasicBlock *createBlock(std::string_view NameHint);

  BasicBlock *block(BlockID ID) { return Blocks[ID].get(); }
  const BasicBlock *block(BlockID ID) const { return Blocks[ID].get(); }

  size_t numBlocks() const { return Blocks.size(); }

  BlockID entryBlock() const { return 0; }

  /// Recomputes all predecessor lists from terminators. Must be called
  /// after any CFG edit and before using BasicBlock::preds.
  void recomputePreds();

  /// Splits every critical edge (multi-successor source to multi-pred
  /// target) by inserting an empty forwarding block, then recomputes preds.
  /// PRE insertion on edges requires this normal form. Returns the number
  /// of edges split.
  unsigned splitCriticalEdges();

  std::vector<DoLoopInfo> &doLoops() { return DoLoops; }
  const std::vector<DoLoopInfo> &doLoops() const { return DoLoops; }

  /// Allocates the next check lifecycle tag (1-based; 0 is NoCheckTag).
  /// Delegates to the owning module's counter so tags are unique across
  /// the whole compilation — the provenance recorder keys on them alone;
  /// a standalone function (unit tests) falls back to a local counter.
  /// Assignment order is the deterministic insertion order of checks, so
  /// tags are stable across runs and job counts.
  CheckTag allocateCheckTag();
  CheckTag lastCheckTag() const { return LastCheckTag; }

  /// Deep copy: blocks, instructions, symbol table, and loop metadata.
  /// Block ids are preserved, so analyses over the copy and the source
  /// speak about the same CFG points. The audit subsystem snapshots the
  /// pre-optimization IR this way.
  std::unique_ptr<Function> clone() const;

  /// Iteration over blocks in id order.
  auto begin() { return Blocks.begin(); }
  auto end() { return Blocks.end(); }
  auto begin() const { return Blocks.begin(); }
  auto end() const { return Blocks.end(); }

private:
  friend class Module;

  std::string Name;
  SymbolTable Syms;
  std::vector<SymbolID> Params;
  std::optional<ScalarType> ResultType;
  std::vector<std::unique_ptr<BasicBlock>> Blocks;
  std::vector<DoLoopInfo> DoLoops;
  Module *Parent = nullptr;
  CheckTag LastCheckTag = NoCheckTag;
};

/// A whole program: functions indexed by name, with a designated entry
/// ("the program" in mini-Fortran).
class Module {
public:
  /// Creates a function; names must be unique.
  Function *createFunction(const std::string &Name);

  Function *function(std::string_view Name);
  const Function *function(std::string_view Name) const;

  void setEntry(const std::string &Name) { EntryName = Name; }
  const std::string &entryName() const { return EntryName; }
  Function *entry() { return function(EntryName); }
  const Function *entry() const { return function(EntryName); }

  std::vector<Function *> functions();
  std::vector<const Function *> functions() const;

  /// Deep copy of every function plus the entry designation.
  std::unique_ptr<Module> clone() const;

  /// The module-wide check lifecycle tag counter (Function::
  /// allocateCheckTag delegates here for owned functions).
  CheckTag allocateCheckTag() { return ++LastCheckTag; }

private:
  std::vector<std::unique_ptr<Function>> Funcs;
  std::string EntryName;
  CheckTag LastCheckTag = NoCheckTag;
};

inline CheckTag Function::allocateCheckTag() {
  return Parent ? Parent->allocateCheckTag() : ++LastCheckTag;
}

} // namespace nascent

#endif // NASCENT_IR_FUNCTION_H
