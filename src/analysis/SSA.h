//===----------------------------------------------------------------------===//
///
/// \file
/// SSA construction (Cytron et al.) as a side-table overlay: the IR itself
/// stays in non-SSA three-address form (the check data-flow problems of
/// the paper operate on that form), while induction-variable analysis
/// reads this overlay to reason about value flow. Each scalar symbol use
/// in each instruction is resolved to an SSA value; phi nodes live in
/// per-block side lists.
///
//===----------------------------------------------------------------------===//

#ifndef NASCENT_ANALYSIS_SSA_H
#define NASCENT_ANALYSIS_SSA_H

#include "analysis/Dominators.h"
#include "ir/Function.h"

#include <span>
#include <vector>

namespace nascent {

using SSAValueID = uint32_t;
constexpr SSAValueID InvalidSSAValue = ~SSAValueID(0);

/// Where an SSA value is defined.
struct SSADef {
  enum class Kind {
    Entry, ///< value of the symbol on function entry (param or undefined)
    Inst,  ///< destination of the instruction at (Block, InstIdx)
    Phi,   ///< phi number PhiIdx of Block
  };
  Kind K = Kind::Entry;
  SymbolID Sym = InvalidSymbol;
  BlockID Block = InvalidBlock;
  uint32_t InstIdx = 0; ///< instruction index (Inst) or phi index (Phi)
};

/// One phi node in the overlay.
struct SSAPhi {
  SymbolID Sym = InvalidSymbol;
  SSAValueID Result = InvalidSSAValue;
  /// Incoming values aligned with the block's predecessor list: a run of
  /// the overlay's incoming pool (SSA::incoming).
  uint32_t IncomingBegin = 0;
  uint32_t NumIncoming = 0;
};

/// The SSA overlay for one function. Construction requires current
/// predecessor lists and a dominator tree. The overlay is invalidated by
/// any IR mutation.
///
/// Per-instruction uses and definitions live in flat tables indexed by
/// the instruction's position in block order, and the phis of all blocks
/// and their incoming values in two pools, so building the overlay
/// allocates per function, not per instruction or phi.
class SSA {
public:
  SSA(const Function &F, const DominatorTree &DT);

  /// SSA values of the scalar-symbol uses of instruction (B, InstIdx), in
  /// the canonical order produced by forEachSymbolUse. The entries of an
  /// instruction in an unreachable block are InvalidSSAValue.
  std::span<const SSAValueID> usesOf(BlockID B, size_t InstIdx) const {
    size_t I = InstBase[B] + InstIdx;
    return {Uses.data() + UseBegin[I], UseBegin[I + 1] - UseBegin[I]};
  }

  /// The SSA value defined by instruction (B, InstIdx); InvalidSSAValue
  /// when the instruction has no scalar destination.
  SSAValueID defOf(BlockID B, size_t InstIdx) const {
    return InstDefs[InstBase[B] + InstIdx];
  }

  const SSADef &def(SSAValueID V) const { return Defs[V]; }

  std::span<const SSAPhi> phisIn(BlockID B) const {
    return {Phis.data() + PhiBegin[B], PhiBegin[B + 1] - PhiBegin[B]};
  }

  /// Incoming values of \p P, aligned with its block's predecessors.
  std::span<const SSAValueID> incoming(const SSAPhi &P) const {
    return {Incoming.data() + P.IncomingBegin, P.NumIncoming};
  }

  size_t numValues() const { return Defs.size(); }

  /// The function the overlay was built for.
  const Function &function() const { return F; }

  /// Enumerates the scalar-symbol uses of \p I in the canonical order:
  /// operands, then subscripts, then check-expression terms, then guard
  /// terms. Array symbols (e.g. whole-array call arguments) are skipped.
  template <typename CallableT>
  static void forEachSymbolUse(const Instruction &I, const SymbolTable &Syms,
                               CallableT &&Fn) {
    for (const Value &V : I.Operands)
      if (V.isSym() && !Syms.get(V.symbol()).isArray())
        Fn(V.symbol());
    for (const Value &V : I.Indices)
      if (V.isSym() && !Syms.get(V.symbol()).isArray())
        Fn(V.symbol());
    for (const auto &[Sym, Coeff] : I.Check.expr().terms()) {
      (void)Coeff;
      Fn(Sym);
    }
    for (const CheckExpr &G : I.Guards)
      for (const auto &[Sym, Coeff] : G.expr().terms()) {
        (void)Coeff;
        Fn(Sym);
      }
  }

  /// Resolves the SSA value of symbol \p Sym at the *use position* of
  /// instruction (B, InstIdx). Returns InvalidSSAValue when \p Sym is not
  /// used by the instruction.
  SSAValueID useOfSymbol(BlockID B, size_t InstIdx, SymbolID Sym) const;

private:
  void placePhis(const DominatorTree &DT);
  void rename(const DominatorTree &DT);

  const Function &F;
  std::vector<SSADef> Defs;
  /// Every block's phis, grouped by block in block order; the phis of B
  /// are Phis[PhiBegin[B], PhiBegin[B + 1]), in creation order.
  std::vector<SSAPhi> Phis;
  std::vector<uint32_t> PhiBegin;
  std::vector<SSAValueID> Incoming;
  /// Flat index of each block's first instruction; one past the last
  /// instruction at the end.
  std::vector<uint32_t> InstBase;
  /// Per flat instruction, its first entry in Uses; one past the last
  /// entry at the end.
  std::vector<uint32_t> UseBegin;
  std::vector<SSAValueID> Uses;
  std::vector<SSAValueID> InstDefs;    ///< per flat instruction
  std::vector<SSAValueID> EntryValues; ///< per-symbol entry value
};

} // namespace nascent

#endif // NASCENT_ANALYSIS_SSA_H
