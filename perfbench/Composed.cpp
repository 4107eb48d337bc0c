#include "Composed.h"

#include "audit/TrapSafetyAuditor.h"
#include "cache/ArtifactCache.h"
#include "checks/INXSynthesis.h"
#include "interp/Interpreter.h"
#include "ir/Verifier.h"
#include "lang/Parser.h"
#include "lang/Sema.h"

using namespace nascent;
using namespace perfbench;

// Mirrors src/driver/Pipeline.cpp step for step. Telemetry streams that
// compileSource leaves disabled by default (remarks, provenance, trace,
// profile) are omitted: with them off the pipeline's calls into them are
// no-ops.
ComposedResult perfbench::composeCompile(const std::string &Source,
                                         const PipelineOptions &Opts,
                                         SpanRecorder &Spans, uint32_t Parent,
                                         uint32_t Op) {
  ComposedResult R;
  DiagnosticEngine Diags;
  auto Fail = [&] {
    R.Errors = Diags.render();
    return std::move(R);
  };

  cache::ArtifactCache *Cache = Opts.Cache.Enabled ? Opts.Cache.Cache : nullptr;
  support::Hash128 FrontKey;
  std::unique_ptr<Module> M;
  if (Cache) {
    ScopedSpan S(Spans, SpanKind::CacheLookup, Parent, Op);
    FrontKey = cache::hashFrontendKey(Source, Opts.Lowering,
                                      static_cast<unsigned>(Opts.Source));
    if (auto FA = Cache->findFrontend(FrontKey))
      M = FA->Snapshot->clone();
    S.count(M ? 1 : 0);
  }

  if (!M) {
    std::unique_ptr<ProgramAST> AST;
    {
      ScopedSpan S(Spans, SpanKind::Parse, Parent, Op);
      Parser P(Source, Diags);
      AST = P.parseProgram();
      S.count(Source.size());
    }
    if (Diags.hasErrors())
      return Fail();
    {
      ScopedSpan S(Spans, SpanKind::Sema, Parent, Op);
      Sema Sm(*AST, Diags);
      M = Sm.run();
    }
    if (!M || Diags.hasErrors())
      return Fail();
    uint32_t LowerSpan;
    {
      ScopedSpan S(Spans, SpanKind::Lower, Parent, Op);
      lowerProgram(*AST, *M, Opts.Lowering);
      LowerSpan = S.handle();
    }
    Spans.setCount(LowerSpan, countStatic(*M).Checks);
    bool VerifyOk;
    {
      ScopedSpan S(Spans, SpanKind::Verify, Parent, Op);
      VerifyOk = verifyModule(*M, Diags);
    }
    if (!VerifyOk)
      return Fail();
    if (Cache && Diags.diagnostics().empty()) {
      ScopedSpan S(Spans, SpanKind::CacheStore, Parent, Op);
      Cache->storeFrontend(FrontKey, M->clone());
    }
  }

  if (Opts.Source == CheckSource::INX) {
    ScopedSpan S(Spans, SpanKind::Inx, Parent, Op);
    for (Function *F : M->functions())
      synthesizeINXChecks(*F);
  }

  if (Opts.Optimize) {
    std::unique_ptr<Module> Snapshot;
    if (Opts.Audit) {
      ScopedSpan S(Spans, SpanKind::Snapshot, Parent, Op);
      Snapshot = M->clone();
    }
    {
      ScopedSpan S(Spans, SpanKind::Optimize, Parent, Op);
      RangeCheckOptions OC = Opts.Opt;
      OC.Cache = Cache;
      OC.ModuleKey = FrontKey;
      R.Stats = optimizeModule(*M, OC, Diags);
      S.count(R.Stats.ChecksAfter);
    }
    bool PostOk;
    {
      ScopedSpan S(Spans, SpanKind::VerifyPost, Parent, Op);
      DiagnosticEngine VerifyDiags;
      PostOk = verifyModule(*M, VerifyDiags);
      if (!PostOk)
        Diags.error(SourceLocation(),
                    "internal error: optimizer produced malformed IR:\n" +
                        VerifyDiags.render());
    }
    if (!PostOk)
      return Fail();
    if (Opts.Audit) {
      ScopedSpan S(Spans, SpanKind::Audit, Parent, Op);
      AuditOptions AO;
      AO.Scheme = Opts.Opt.Scheme;
      R.Audit = auditModulePair(*Snapshot, *M, AO);
      S.count(R.Audit.numFindings());
    }
  }

  R.M = std::move(M);
  R.Success = true;
  return R;
}

std::string perfbench::reconcile(const ComposedResult &Composed,
                                 const CompileResult &Reference) {
  if (Composed.Success != Reference.Success)
    return Composed.Success ? "compileSource failed, composition compiled"
                            : "composition failed: " + Composed.Errors;
  if (!Composed.Success)
    return "";
  uint64_t A = countStatic(*Composed.M).Checks;
  uint64_t B = countStatic(*Reference.M).Checks;
  if (A != B)
    return "residual static checks " + std::to_string(A) + " vs " +
           std::to_string(B);
  std::string SA = Composed.Stats.toJson(), SB = Reference.Stats.toJson();
  if (SA != SB)
    return "optimizer stats " + SA + " vs " + SB;
  if (Composed.Audit.numFindings() != Reference.Audit.numFindings())
    return "audit findings " + std::to_string(Composed.Audit.numFindings()) +
           " vs " + std::to_string(Reference.Audit.numFindings());
  return "";
}
