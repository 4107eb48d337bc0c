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
  using Clock = std::chrono::steady_clock;
  CompileResult R;
  auto T0 = Clock::now();
  double Cpu0 = obs::processCpuSeconds();

  if (Opts.Telemetry.Trace || !Opts.Telemetry.TracePath.empty())
    R.Trace.enable();

  // The "total" phase is recorded explicitly (not via ScopedPhase) so it
  // covers every exit path, including early returns on front-end errors.
  auto Finish = [&] {
    obs::PhaseTiming Total;
    Total.Name = "total";
    Total.WallSeconds = std::chrono::duration<double>(Clock::now() - T0).count();
    Total.CpuSeconds = obs::processCpuSeconds() - Cpu0;
    R.Phases.Phases.push_back(std::move(Total));
    if (!Opts.Telemetry.TracePath.empty()) {
      std::string Err;
      if (!R.Trace.writeFile(Opts.Telemetry.TracePath, &Err))
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
    obs::ScopedPhase Ph(R.Phases, "cache-frontend", T0, &R.Trace);
    if (auto FA = Cache->findFrontend(FrontKey))
      M = FA->Snapshot->clone();
  }

  if (!M) {
    std::unique_ptr<ProgramAST> AST;
    {
      obs::ScopedPhase Ph(R.Phases, "parse", T0, &R.Trace);
      Parser P(Source, R.Diags);
      AST = P.parseProgram();
    }
    if (R.Diags.hasErrors()) {
      Finish();
      return R;
    }

    {
      obs::ScopedPhase Ph(R.Phases, "sema", T0, &R.Trace);
      Sema S(*AST, R.Diags);
      M = S.run();
    }
    if (!M || R.Diags.hasErrors()) {
      Finish();
      return R;
    }

    {
      obs::ScopedPhase Ph(R.Phases, "lower", T0, &R.Trace);
      lowerProgram(*AST, *M, Opts.Lowering);
    }
    bool VerifyOk;
    {
      obs::ScopedPhase Ph(R.Phases, "verify", T0, &R.Trace);
      VerifyOk = verifyModule(*M, R.Diags);
    }
    if (!VerifyOk) {
      Finish();
      return R;
    }
    // Only diagnostic-free compiles are stored: a later cache hit skips
    // the frontend entirely, so it must have no warnings to replay.
    if (Cache && R.Diags.diagnostics().empty()) {
      obs::ScopedPhase Ph(R.Phases, "cache-store", T0, &R.Trace);
      Cache->storeFrontend(FrontKey, M->clone());
    }
  }
  // Every naive check materialised by lowering opens its lifecycle here
  // (a cache hit's snapshot carries the same tags); optimizer insertions
  // record their own Inserted events as they happen.
  obs::recordInsertedChecks(*M, R.Provenance);

  if (Opts.Source == CheckSource::INX) {
    obs::ScopedPhase Ph(R.Phases, "inx-synthesis", T0, &R.Trace);
    for (Function *F : M->functions())
      synthesizeINXChecks(*F, &R.Provenance);
  }

  if (Opts.Optimize) {
    std::unique_ptr<Module> Snapshot;
    if (Opts.Audit) {
      obs::ScopedPhase Ph(R.Phases, "snapshot", T0, &R.Trace);
      Snapshot = M->clone();
    }
    {
      obs::ScopedPhase Ph(R.Phases, "optimize", T0, &R.Trace);
      RangeCheckOptions OC = Opts.Opt;
      OC.Trace = &R.Trace;
      OC.Provenance = &R.Provenance;
      OC.Cache = Cache;
      OC.ModuleKey = FrontKey;
      R.Stats = optimizeModule(*M, OC, R.Diags);
    }
    bool PostOk;
    {
      obs::ScopedPhase Ph(R.Phases, "verify-post", T0, &R.Trace);
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
      obs::ScopedPhase Ph(R.Phases, "audit", T0, &R.Trace);
      AuditOptions AO;
      AO.Scheme = Opts.Opt.Scheme;
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
