#include "opt/CheckStrengthening.h"

using namespace nascent;

void nascent::runCheckStrengthening(Function &F, const CheckContext &Ctx,
                                    obs::ProvenanceRecorder &PR) {
  const CheckUniverse &U = Ctx.universe();
  if (U.size() == 0)
    return;

  F.recomputePreds();
  DataflowResult Antic = Ctx.solveAnticipatability();

  for (auto &BB : F) {
    BlockID B = BB->id();
    // Backward in-block scan: at each point, the current anticipatable
    // set; a check is replaced by the strongest anticipatable member of
    // its family at the point just before it.
    DenseBitVector Cur(Antic.Out[B]);
    // Collect per-instruction "antic before" sets by scanning backward.
    std::vector<DenseBitVector> Before(BB->size());
    for (size_t Idx = BB->size(); Idx-- > 0;) {
      const Instruction &I = BB->instructions()[Idx];
      Ctx.applyKill(I, Cur);
      Ctx.applyAnticGen(B, Idx, I, Cur);
      Before[Idx] = Cur;
    }

    for (size_t Idx = 0; Idx != BB->size(); ++Idx) {
      Instruction &I = BB->instructions()[Idx];
      if (I.Op != Opcode::Check)
        continue;
      CheckID C = Ctx.idOf(B, Idx);
      if (C == InvalidCheck)
        continue;
      FamilyID Fam = U.familyOf(C);
      // Family members are in ascending bound order: the first
      // anticipatable member is the strongest.
      for (CheckID M : U.familyMembers(Fam)) {
        if (M == C)
          break; // reached the check itself: nothing stronger anticipated
        if (U.check(M).bound() >= U.check(C).bound())
          break;
        if (Before[Idx].test(M)) {
          I.Check = U.check(M);
          PR.record(obs::LifecycleKind::Strengthened,
                    obs::LifecyclePass::CheckStrengthening, F, B, I,
                    obs::JustificationId::BoundTightened);
          break;
        }
      }
    }
  }
}
