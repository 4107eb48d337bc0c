#include "opt/Elimination.h"

using namespace nascent;

namespace {

/// Names the fact that made an available check deletable, for the
/// lifecycle event: the three possible sources are block-entry availability, a
/// preheader entry fact, and an earlier check in the same block.
std::string availJustification(const CheckContext &Ctx,
                               const DataflowResult &Avail, BlockID B,
                               CheckID C) {
  if (Avail.In[B].test(C))
    return "an as-strong check is available on every path into the block";
  if (Ctx.genInBits(B).test(C))
    return "implied by a conditional check hoisted to the loop preheader";
  return "covered by an as-strong check earlier in the block";
}

} // namespace

EliminationStats
nascent::eliminateRedundantChecks(Function &F, const CheckContext &Ctx,
                                  obs::ProvenanceRecorder *Prov) {
  EliminationStats Stats;
  if (Ctx.universe().size() == 0)
    return Stats;

  F.recomputePreds();
  DataflowResult Avail = Ctx.solveAvailability();

  bool WantProv = Prov && Prov->enabled();
  // Last surviving in-block check providing each universe member's
  // availability; the witness of "covered earlier in the block" events.
  std::vector<const Instruction *> Provider;

  for (auto &BB : F) {
    BlockID B = BB->id();
    DenseBitVector Cur = Avail.In[B];
    Cur |= Ctx.genInBits(B);
    if (WantProv)
      Provider.assign(Ctx.universe().size(), nullptr);

    std::vector<size_t> ToDelete;
    for (size_t Idx = 0; Idx != BB->size(); ++Idx) {
      const Instruction &I = BB->instructions()[Idx];
      Ctx.applyKill(I, Cur);
      if (I.Op == Opcode::Check) {
        CheckID C = Ctx.idOf(B, Idx);
        if (C != InvalidCheck && Cur.test(C)) {
          ToDelete.push_back(Idx);
          if (WantProv) {
            obs::LifecycleEvent E = obs::makeLifecycleEvent(
                obs::LifecycleKind::SubsumedBy, "Elimination", F, *BB, I,
                availJustification(Ctx, Avail, B, C));
            // Witness attribution mirrors the justification priority:
            // all-paths availability has no single witness; a preheader
            // fact names the hoisted conditional; otherwise an earlier
            // check in this block covers it.
            if (!Avail.In[B].test(C)) {
              if (Ctx.genInBits(B).test(C)) {
                E.OtherTag = Ctx.preheaderWitness(B, C);
              } else if (const Instruction *W = Provider[C]) {
                E.OtherTag = W->Tag;
                E.Edge = W->Check.str(F.symbols());
              }
            }
            Prov->record(std::move(E));
          }
          continue; // a deleted check generates nothing
        }
      }
      Ctx.applyAvailGen(B, Idx, I, Cur);
      if (WantProv && I.Op == Opcode::Check) {
        CheckID C = Ctx.idOf(B, Idx);
        if (C != InvalidCheck)
          Ctx.weakerClosure(C).forEachSetBit(
              [&](size_t Bit) { Provider[Bit] = &I; });
      }
    }
    for (auto It = ToDelete.rbegin(); It != ToDelete.rend(); ++It) {
      BB->instructions().erase(BB->instructions().begin() +
                               static_cast<ptrdiff_t>(*It));
      ++Stats.ChecksDeleted;
    }
  }
  return Stats;
}

EliminationStats
nascent::foldCompileTimeChecks(Function &F, DiagnosticEngine &Diags,
                               obs::ProvenanceRecorder *Prov) {
  EliminationStats Stats;
  auto Event = [&](obs::LifecycleKind Kind, const BasicBlock &BB,
                   const Instruction &I, std::string Justification) {
    if (Prov && Prov->enabled())
      Prov->record(obs::makeLifecycleEvent(Kind, "Elimination", F, BB, I,
                                           std::move(Justification)));
  };
  // Checks swept away because a compile-time trap truncated their block:
  // not an optimizer decision about the check itself, so they close under
  // a pass of their own (reconciliation ignores it).
  auto CloseTail = [&](const BasicBlock &BB,
                       const std::vector<Instruction> &Insts, size_t From) {
    if (!Prov || !Prov->enabled())
      return;
    for (size_t T = From; T < Insts.size(); ++T)
      if (Insts[T].isRangeCheck() && Insts[T].Tag != NoCheckTag)
        Prov->record(obs::makeLifecycleEvent(
            obs::LifecycleKind::Eliminated, "Unreachable", F, BB, Insts[T],
            "unreachable: a compile-time trap truncated the block"));
  };

  for (auto &BB : F) {
    auto &Insts = BB->instructions();
    for (size_t Idx = 0; Idx < Insts.size();) {
      Instruction &I = Insts[Idx];
      if (I.Op == Opcode::Check) {
        if (!I.Check.isCompileTimeConstant()) {
          ++Idx;
          continue;
        }
        if (I.Check.evaluatesToTrue()) {
          Event(obs::LifecycleKind::Eliminated, *BB, I,
                "constant check always passes");
          Insts.erase(Insts.begin() + static_cast<ptrdiff_t>(Idx));
          ++Stats.CompileTimeDeleted;
          continue;
        }
        // Always fails: report and replace with a TRAP terminator; the
        // rest of the block is unreachable.
        Diags.warning(I.Origin.Loc,
                      "array range violation detected at compile time" +
                          (I.Origin.ArrayName.empty()
                               ? std::string()
                               : " (array " + I.Origin.ArrayName + ")"));
        Event(obs::LifecycleKind::Trapped, *BB, I,
              "constant check always fails; replaced by a trap");
        CloseTail(*BB, Insts, Idx + 1);
        Instruction Trap;
        Trap.Op = Opcode::Trap;
        Trap.Origin = I.Origin;
        Trap.Tag = I.Tag;
        Insts.resize(Idx);
        Insts.push_back(std::move(Trap));
        ++Stats.CompileTimeTraps;
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
            ++Stats.GuardsFolded;
          } else {
            GuardFalse = true;
            break;
          }
        }
        if (GuardFalse) {
          Event(obs::LifecycleKind::Eliminated, *BB, I,
                "conditional check guarded by a constant-false guard can "
                "never fire");
          Insts.erase(Insts.begin() + static_cast<ptrdiff_t>(Idx));
          ++Stats.CompileTimeDeleted;
          continue;
        }
        if (I.Check.isCompileTimeConstant() && I.Check.evaluatesToTrue()) {
          Event(obs::LifecycleKind::Eliminated, *BB, I,
                "constant conditional check always passes");
          Insts.erase(Insts.begin() + static_cast<ptrdiff_t>(Idx));
          ++Stats.CompileTimeDeleted;
          continue;
        }
        if (I.Guards.empty()) {
          if (I.Check.isCompileTimeConstant()) {
            // Unconditional and always failing.
            Diags.warning(I.Origin.Loc,
                          "array range violation detected at compile time" +
                              (I.Origin.ArrayName.empty()
                                   ? std::string()
                                   : " (array " + I.Origin.ArrayName + ")"));
            Event(obs::LifecycleKind::Trapped, *BB, I,
                  "conditional check with all guards folded always fails; "
                  "replaced by a trap");
            CloseTail(*BB, Insts, Idx + 1);
            Instruction Trap;
            Trap.Op = Opcode::Trap;
            Trap.Origin = I.Origin;
            Trap.Tag = I.Tag;
            Insts.resize(Idx);
            Insts.push_back(std::move(Trap));
            ++Stats.CompileTimeTraps;
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
  }
  return Stats;
}
