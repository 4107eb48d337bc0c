#include "driver/Pipeline.h"

#include "audit/TrapSafetyAuditor.h"
#include "cache/ArtifactCache.h"
#include "checks/INXSynthesis.h"
#include "ir/Verifier.h"
#include "lang/Parser.h"
#include "lang/Sema.h"

#include <chrono>

using namespace nascent;

CompileResult nascent::compileSource(const std::string &Source,
                                     const PipelineOptions &Opts) {
  CompileResult R;
  obs::PhaseTimings *PT = &R.Phases;
  // An audited compile of a two-function program records ~46 entries.
  PT->Phases.reserve(64);
  double Cpu0 = obs::threadCpuSeconds();

  // The "total" phase is recorded explicitly (not via ScopedPhase) so it
  // covers every exit path, including early returns on front-end errors.
  // It spans the record from its origin and, like every depth-0 phase,
  // charges only this thread's CPU.
  auto Finish = [&] {
    obs::PhaseTiming Total;
    Total.Name = "total";
    Total.CpuSeconds = obs::threadCpuSeconds() - Cpu0;
    Total.WallSeconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - PT->Origin)
                            .count();
    PT->Phases.push_back(std::move(Total));
    if (!Opts.Telemetry.TracePath.empty()) {
      std::string Err;
      if (!obs::writeMergedTraceFile({{PT, ""}}, Opts.Telemetry.TracePath,
                                     &Err))
        R.Diags.error(SourceLocation(), "cannot write trace file: " + Err);
    }
  };

  // Frontend artifact tier: reuse a verified post-lowering snapshot of
  // this exact (source, lowering options, check source) if one is cached.
  // The clone preserves check tags, so lifecycle recording below re-opens
  // the same events the organic path would.
  cache::ArtifactCache *Cache =
      Opts.Cache.Enabled
          ? (Opts.Cache.Cache ? Opts.Cache.Cache
                              : &cache::ArtifactCache::global())
          : nullptr;
  support::Hash128 FrontKey;
  std::unique_ptr<Module> M;
  if (Cache) {
    FrontKey = cache::hashFrontendKey(Source, Opts.Lowering,
                                      static_cast<unsigned>(Opts.Source));
    obs::ScopedPhase Ph(PT, "cache-frontend");
    if (auto FA = Cache->findFrontend(FrontKey))
      M = FA->Snapshot->clone();
  }

  if (!M) {
    std::unique_ptr<ProgramAST> AST;
    {
      obs::ScopedPhase Ph(PT, "parse");
      Parser P(Source, R.Diags);
      AST = P.parseProgram();
    }
    if (R.Diags.hasErrors()) {
      Finish();
      return R;
    }

    {
      obs::ScopedPhase Ph(PT, "sema");
      Sema S(*AST, R.Diags);
      M = S.run();
    }
    if (!M || R.Diags.hasErrors()) {
      Finish();
      return R;
    }

    {
      obs::ScopedPhase Ph(PT, "lower");
      lowerProgram(*AST, *M, Opts.Lowering);
    }
    bool VerifyOk;
    {
      obs::ScopedPhase Ph(PT, "verify");
      VerifyOk = verifyModule(*M, R.Diags);
    }
    if (!VerifyOk) {
      Finish();
      return R;
    }
    // Only diagnostic-free compiles are stored: a later cache hit skips
    // the frontend entirely, so it must have no warnings to replay.
    if (Cache && R.Diags.diagnostics().empty()) {
      obs::ScopedPhase Ph(PT, "cache-store");
      Cache->storeFrontend(FrontKey, M->clone());
    }
  }
  // Every naive check materialised by lowering opens its lifecycle here
  // (a cache hit's snapshot carries the same tags); optimizer insertions
  // record their own Inserted events as they happen.
  obs::recordInsertedChecks(*M, R.Provenance);

  if (Opts.Source == CheckSource::INX) {
    obs::ScopedPhase Ph(PT, "inx-synthesis");
    for (Function *F : M->functions())
      synthesizeINXChecks(*F, &R.Provenance);
  }

  if (Opts.Optimize) {
    std::unique_ptr<Module> Snapshot;
    if (Opts.Audit) {
      obs::ScopedPhase Ph(PT, "snapshot");
      Snapshot = M->clone();
    }
    {
      obs::ScopedPhase Ph(PT, "optimize");
      RangeCheckOptions OC = Opts.Opt;
      OC.Phases = PT;
      OC.Provenance = &R.Provenance;
      OC.Cache = Cache;
      OC.ModuleKey = FrontKey;
      R.Stats = optimizeModule(*M, OC, R.Diags);
    }
    bool PostOk;
    {
      obs::ScopedPhase Ph(PT, "verify-post");
      DiagnosticEngine VerifyDiags;
      PostOk = verifyModule(*M, VerifyDiags);
      if (!PostOk)
        R.Diags.error(SourceLocation(),
                      "internal error: optimizer produced malformed IR:\n" +
                          VerifyDiags.render());
    }
    if (!PostOk) {
      // Keep the module alive: the recorded events name its functions.
      R.M = std::move(M);
      Finish();
      return R;
    }
    if (Opts.Audit) {
      obs::ScopedPhase Ph(PT, "audit");
      AuditOptions AO;
      AO.Scheme = Opts.Opt.Scheme;
      AO.Phases = PT;
      R.Audit = auditModulePair(*Snapshot, *M, AO);
      if (!R.Audit.clean())
        R.Audit.emitTo(R.Diags);
    }
  }

  // Close the lifecycle of every surviving check (optimized or not).
  obs::recordResidualChecks(*M, R.Provenance);

  // The profile skeleton describes the *residual* shape, so attach after
  // all rewrites. M lives behind a unique_ptr: the profile's function
  // pointers stay valid across the CompileResult move.
  if (Opts.Telemetry.Profile)
    R.Profile.attach(*M);

  Finish();
  R.M = std::move(M);
  R.Success = true;
  return R;
}
