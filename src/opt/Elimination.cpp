#include "opt/Elimination.h"

using namespace nascent;

using obs::JustificationId;
using obs::LifecycleKind;
using obs::LifecyclePass;

namespace {

/// Names the fact that made an available check deletable, for the
/// lifecycle event: the three possible sources are block-entry
/// availability, a preheader entry fact, and an earlier check in the same
/// block.
JustificationId availJustification(const CheckContext &Ctx,
                                   const DataflowResult &Avail, BlockID B,
                                   CheckID C) {
  if (Avail.In[B].test(C))
    return JustificationId::AvailableOnAllPaths;
  if (Ctx.genInBits(B).test(C))
    return JustificationId::ImpliedByPreheaderCheck;
  return JustificationId::CoveredEarlierInBlock;
}

} // namespace

void nascent::eliminateRedundantChecks(Function &F, const CheckContext &Ctx,
                                       obs::ProvenanceRecorder &PR) {
  if (Ctx.universe().size() == 0)
    return;

  F.recomputePreds();
  DataflowResult Avail = Ctx.solveAvailability();

  // The last surviving in-block check whose availability gen covers each
  // universe member: the witness of CoveredEarlierInBlock subsumptions.
  // An entry is current only while ProviderBlock names the block being
  // scanned, so nothing is reset between blocks.
  std::vector<CheckTag> Provider(Ctx.universe().size(), NoCheckTag);
  std::vector<BlockID> ProviderBlock(Ctx.universe().size(), InvalidBlock);

  for (auto &BB : F) {
    BlockID B = BB->id();
    DenseBitVector Cur(Avail.In[B]);
    Cur |= Ctx.genInBits(B);

    std::vector<size_t> ToDelete;
    for (size_t Idx = 0; Idx != BB->size(); ++Idx) {
      const Instruction &I = BB->instructions()[Idx];
      Ctx.applyKill(I, Cur);
      if (I.Op == Opcode::Check) {
        CheckID C = Ctx.idOf(B, Idx);
        if (C != InvalidCheck && Cur.test(C)) {
          // Witness attribution mirrors the justification priority:
          // all-paths availability has no single witness; a preheader
          // fact names the hoisted conditional; otherwise an earlier
          // check in this block covers it.
          JustificationId Why = availJustification(Ctx, Avail, B, C);
          CheckTag Witness = NoCheckTag;
          if (Why == JustificationId::ImpliedByPreheaderCheck)
            Witness = Ctx.preheaderWitness(B, C);
          else if (Why == JustificationId::CoveredEarlierInBlock &&
                   ProviderBlock[C] == B)
            Witness = Provider[C];
          PR.record(LifecycleKind::SubsumedBy, LifecyclePass::Elimination, F,
                    B, I, Why, Witness);
          ToDelete.push_back(Idx);
          continue; // a deleted check generates nothing
        }
      }
      Ctx.applyAvailGen(B, Idx, I, Cur);
      if (I.Op == Opcode::Check) {
        CheckID C = Ctx.idOf(B, Idx);
        if (C != InvalidCheck)
          Ctx.weakerClosure(C).forEachSetBit([&](size_t Bit) {
            Provider[Bit] = I.Tag;
            ProviderBlock[Bit] = B;
          });
      }
    }
    BB->eraseAt(ToDelete);
  }
}

void nascent::foldCompileTimeChecks(Function &F, DiagnosticEngine &Diags,
                                    obs::ProvenanceRecorder &PR) {
  // Closes the lifecycle of the check at Idx and marks it for deletion;
  // the block's marked checks are erased together once it is scanned.
  std::vector<size_t> ToDelete;
  auto Delete = [&](BasicBlock &BB, size_t Idx, JustificationId Why) {
    PR.record(LifecycleKind::Eliminated, LifecyclePass::Elimination, F,
              BB.id(), BB.instructions()[Idx], Why);
    ToDelete.push_back(Idx);
  };
  // Reports the always-failing check at Idx and replaces it, and the now
  // unreachable rest of the block, by a TRAP terminator that keeps its
  // tag. The checks swept away are no optimizer decision about the check
  // itself, so they close under a pseudo-pass no decision count includes.
  auto TrapAt = [&](BasicBlock &BB, size_t Idx, JustificationId Why) {
    auto &Insts = BB.instructions();
    Instruction Trap;
    Trap.Op = Opcode::Trap;
    Trap.Origin = Insts[Idx].Origin;
    Trap.Tag = Insts[Idx].Tag;
    Diags.warning(Trap.Origin.Loc,
                  "array range violation detected at compile time" +
                      (Trap.Origin.ArrayName.empty()
                           ? std::string()
                           : " (array " + Trap.Origin.ArrayName + ")"));
    PR.record(LifecycleKind::Trapped, LifecyclePass::Elimination, F, BB.id(),
              Insts[Idx], Why);
    for (size_t T = Idx + 1; T < Insts.size(); ++T)
      if (Insts[T].isRangeCheck() && Insts[T].Tag != NoCheckTag)
        PR.record(LifecycleKind::Eliminated, LifecyclePass::Unreachable, F,
                  BB.id(), Insts[T], JustificationId::TruncatedByTrap);
    Insts.resize(Idx);
    Insts.push_back(std::move(Trap));
  };

  for (auto &BB : F) {
    auto &Insts = BB->instructions();
    ToDelete.clear();
    for (size_t Idx = 0; Idx < Insts.size();) {
      Instruction &I = Insts[Idx];
      if (I.Op == Opcode::Check) {
        if (!I.Check.isCompileTimeConstant()) {
          ++Idx;
          continue;
        }
        if (I.Check.evaluatesToTrue()) {
          Delete(*BB, Idx++, JustificationId::ConstantPasses);
          continue;
        }
        TrapAt(*BB, Idx, JustificationId::ConstantFails);
        break; // block is now terminated
      }
      if (I.Op == Opcode::CondCheck) {
        // Fold constant guards.
        bool GuardFalse = false;
        for (size_t G = 0; G < I.Guards.size();) {
          if (!I.Guards[G].isCompileTimeConstant()) {
            ++G;
            continue;
          }
          if (I.Guards[G].evaluatesToTrue()) {
            I.Guards.erase(I.Guards.begin() + static_cast<ptrdiff_t>(G));
          } else {
            GuardFalse = true;
            break;
          }
        }
        if (GuardFalse) {
          Delete(*BB, Idx++, JustificationId::GuardConstantFalse);
          continue;
        }
        if (I.Check.isCompileTimeConstant() && I.Check.evaluatesToTrue()) {
          Delete(*BB, Idx++, JustificationId::ConstantCondPasses);
          continue;
        }
        if (I.Guards.empty()) {
          if (I.Check.isCompileTimeConstant()) {
            // Unconditional and always failing.
            TrapAt(*BB, Idx, JustificationId::ConstantCondFails);
            break;
          }
          // All guards folded away: demote to a plain check.
          I.Op = Opcode::Check;
        }
        ++Idx;
        continue;
      }
      ++Idx;
    }
    BB->eraseAt(ToDelete);
  }
}
