//===----------------------------------------------------------------------===//
///
/// \file
/// sweep: batch-compiles the whole (program, scheme, implication-mode)
/// matrix through BatchCompiler with the trap-safety auditor on for every
/// cell, and summarises what each configuration did — static checks left
/// in the IR, checks eliminated/hoisted, and the per-job work-proxy
/// counters the batch engine captures (bit-vector word ops, dataflow block
/// visits, CIG edges) — plus the audit totals over the matrix. Any audit
/// finding, compile failure or provenance reconcile failure is printed to
/// stderr and makes the exit code 1: this is the CI gate behind the
/// `check-audit` test label, so a change to the optimizer that silently
/// weakens trap safety fails here even when no hand-written test
/// exercises the broken placement. It is also the smallest driver that
/// exercises the parallel compilation path end to end:
///
///   sweep --jobs 8          # fan the matrix across 8 workers
///   sweep --jobs 0          # one worker per hardware thread
///   sweep --json            # machine-readable document on stdout
///   sweep --remarks[=RE]    # per-decision remarks, submission order
///   sweep --provenance      # per-run lifecycle record (+ reconcile gate)
///   sweep --profile         # interpret every compiled result and report
///                           # dynamic check density per configuration
///   sweep --cache           # share frontend/analysis artifacts across
///                           # cells (docs/caching.md); stats on stderr
///   sweep -trace-out=PATH   # one merged Chrome trace, one lane per
///                           # worker thread
///   sweep prog.mf ...       # sweep the given files instead of the
///                           # built-in suite (each read exactly once)
///
/// Results are consumed in submission order and no job count is echoed
/// into the document, so the output is bit-identical for every --jobs
/// value (timing columns aside; --profile drops them so its whole output
/// is byte-identical across job counts; docs/parallelism.md). The remark
/// and provenance streams inherit the contract: each job buffers into its
/// own collectors, and sweep flushes the buffers in submission order, so
/// `--jobs N` output matches a serial run byte for byte.
///
//===----------------------------------------------------------------------===//

#include "cache/ArtifactCache.h"
#include "driver/BatchCompiler.h"
#include "interp/Interpreter.h"
#include "obs/BenchSchema.h"
#include "obs/Json.h"
#include "obs/Remarks.h"
#include "obs/Trace.h"
#include "suite/Suite.h"
#include "support/StringUtils.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

using namespace nascent;

namespace {

const char *implicationModeName(ImplicationMode M) {
  switch (M) {
  case ImplicationMode::All:
    return "all";
  case ImplicationMode::CrossFamilyOnly:
    return "cross";
  case ImplicationMode::None:
    return "none";
  }
  return "?";
}

/// Accumulated results of one (scheme, mode) configuration over the suite.
struct ConfigSummary {
  uint64_t StaticChecks = 0;
  uint64_t Deleted = 0;
  uint64_t Inserted = 0;
  uint64_t WordOps = 0;
  double OptimizeWall = 0;
  double OptimizeCpu = 0;
  unsigned Runs = 0;
  // --profile aggregates (dynamic, from interpreting each result).
  uint64_t DynChecks = 0;
  uint64_t DynTraps = 0;
  uint64_t Accesses = 0;
  uint64_t TrappedRuns = 0;
};

} // namespace

int main(int argc, char **argv) {
  bool Json = false;
  bool Remarks = false;
  bool Provenance = false;
  bool Profile = false;
  bool UseCache = false;
  // Empty; carries the --remarks= filter into each cell's copy below.
  obs::RemarkCollector RemarkTemplate;
  std::string TracePath;
  std::vector<std::string> Files;
  unsigned Jobs = 1;
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--json") == 0)
      Json = true;
    else if (std::strcmp(argv[I], "--remarks") == 0)
      Remarks = true;
    else if (std::strncmp(argv[I], "--remarks=", 10) == 0) {
      Remarks = true;
      std::string Err;
      if (!RemarkTemplate.setFilter(argv[I] + 10, &Err)) {
        std::fprintf(stderr, "sweep: invalid --remarks regex '%s': %s\n",
                     argv[I] + 10, Err.c_str());
        return 2;
      }
    } else if (std::strcmp(argv[I], "--provenance") == 0)
      Provenance = true;
    else if (std::strcmp(argv[I], "--profile") == 0)
      Profile = true;
    else if (std::strcmp(argv[I], "--cache") == 0)
      UseCache = true;
    else if (std::strncmp(argv[I], "-trace-out=", 11) == 0)
      TracePath = argv[I] + 11;
    else if (std::strcmp(argv[I], "--jobs") == 0 && I + 1 < argc) {
      unsigned Requested = 0;
      if (!parseJobCount(argv[++I], Requested)) {
        std::fprintf(stderr,
                     "sweep: invalid --jobs value '%s' (expected a "
                     "non-negative integer; 0 = one worker per hardware "
                     "thread)\n",
                     argv[I]);
        return 2;
      }
      Jobs = resolveJobCount(Requested);
    } else if (argv[I][0] != '-')
      Files.push_back(argv[I]);
    else {
      std::fprintf(stderr,
                   "usage: %s [--json] [--remarks[=REGEX]] [--provenance] "
                   "[--profile] [--cache] [-trace-out=PATH] [--jobs N] "
                   "[FILE.mf ...]\n",
                   argv[0]);
      return 2;
    }
  }

  const PlacementScheme Schemes[] = {
      PlacementScheme::NI,  PlacementScheme::CS,  PlacementScheme::LNI,
      PlacementScheme::SE,  PlacementScheme::LI,  PlacementScheme::LLS,
      PlacementScheme::ALL, PlacementScheme::MCM, PlacementScheme::AI};
  const ImplicationMode Modes[] = {ImplicationMode::All,
                                   ImplicationMode::CrossFamilyOnly,
                                   ImplicationMode::None};

  // Every program's text is materialised exactly once — suite sources are
  // wrapped in one shared buffer each, file arguments are read once here —
  // and every grid cell over that program shares the same buffer through
  // BatchJob's shared_ptr, instead of re-reading or copying per cell.
  struct ProgramEntry {
    std::string Name;
    std::shared_ptr<const std::string> Source;
  };
  std::vector<ProgramEntry> Programs;
  if (Files.empty()) {
    for (const SuiteProgram &P : benchmarkSuite())
      Programs.push_back(
          {P.Name, std::make_shared<const std::string>(P.Source)});
  } else {
    for (const std::string &Path : Files) {
      std::ifstream In(Path);
      if (!In) {
        std::fprintf(stderr, "sweep: cannot open %s\n", Path.c_str());
        return 2;
      }
      std::ostringstream Buf;
      Buf << In.rdbuf();
      Programs.push_back(
          {Path, std::make_shared<const std::string>(Buf.str())});
    }
  }

  struct RunKey {
    std::string Program;
    PlacementScheme Scheme;
    ImplicationMode Mode;
  };
  std::vector<BatchJob> Batch;
  std::vector<RunKey> Keys;
  for (const ProgramEntry &P : Programs) {
    for (PlacementScheme Scheme : Schemes) {
      for (ImplicationMode Mode : Modes) {
        PipelineOptions PO;
        PO.Opt.Scheme = Scheme;
        PO.Opt.Implications = Mode;
        PO.Audit = true;
        PO.Cache.Enabled = UseCache;
        PO.Telemetry.Profile = Profile;
        Batch.push_back({P.Source, PO});
        Keys.push_back({P.Name, Scheme, Mode});
      }
    }
  }

  if (UseCache)
    cache::ArtifactCache::global().resetStats();
  std::vector<BatchJobResult> Results = BatchCompiler(Jobs).run(Batch);
  // Stats go to stderr so stdout stays byte-identical cache-on vs off.
  if (UseCache)
    std::fprintf(stderr, "sweep: %s\n",
                 cache::ArtifactCache::global().summaryLine().c_str());

  // --profile: run every compiled module once, streaming dynamic counts
  // into its attached profile. Serial and in submission order, so the
  // profile documents are byte-identical for every --jobs value.
  if (Profile) {
    for (BatchJobResult &BR : Results) {
      CompileResult &R = BR.Result;
      if (!R.Success)
        continue;
      InterpOptions IO;
      IO.Profile = &R.Profile;
      interpret(*R.M, IO);
    }
  }

  // Each job recorded its own lifecycle events; deriving the remarks in
  // submission order makes the stream byte-identical to a serial run no
  // matter how the pool interleaved the jobs.
  if (Remarks) {
    for (size_t I = 0; I != Results.size(); ++I) {
      const RunKey &K = Keys[I];
      const CompileResult &R = Results[I].Result;
      if (!R.Success)
        continue;
      obs::RemarkCollector RC = RemarkTemplate;
      obs::collectDecisionRemarks(R.Provenance, RC);
      if (RC.remarks().empty())
        continue;
      std::cerr << "== " << K.Program << " scheme="
                << placementSchemeName(K.Scheme)
                << " impl=" << implicationModeName(K.Mode) << "\n";
      RC.renderText(std::cerr);
    }
  }

  // One coherent Chrome trace: every compile's spans on its worker's
  // lane, timestamps rebased onto the earliest record origin.
  if (!TracePath.empty()) {
    std::vector<obs::TraceMergeInput> Lanes;
    std::set<uint32_t> Named;
    for (const BatchJobResult &BR : Results) {
      obs::TraceMergeInput In;
      In.Phases = &BR.Result.Phases;
      uint32_t Tid = BR.Result.Phases.Tid;
      if (Named.insert(Tid).second)
        In.Label = "worker " + std::to_string(Tid);
      Lanes.push_back(std::move(In));
    }
    std::string Err;
    if (!obs::writeMergedTraceFile(Lanes, TracePath, &Err)) {
      std::fprintf(stderr, "sweep: cannot write trace file: %s\n",
                   Err.c_str());
      return 2;
    }
  }

  obs::JsonWriter W;
  if (Json) {
    W.beginObject();
    W.kv("schemaVersion", obs::BenchSchemaVersion);
    W.kv("tool", "sweep");
    W.key("runs");
    W.beginArray();
  }

  unsigned Failures = 0;
  AuditStats Audit;
  std::map<std::pair<std::string, std::string>, ConfigSummary> Summaries;
  for (size_t I = 0; I != Results.size(); ++I) {
    const RunKey &K = Keys[I];
    const CompileResult &R = Results[I].Result;
    if (!R.Success) {
      std::fprintf(stderr, "sweep: %s/%s: compile failed:\n%s\n",
                   K.Program.c_str(), placementSchemeName(K.Scheme),
                   R.Diags.render().c_str());
      ++Failures;
      continue;
    }
    ConfigSummary &S = Summaries[{placementSchemeName(K.Scheme),
                                  implicationModeName(K.Mode)}];
    StaticCounts SC = countStatic(*R.M);
    S.StaticChecks += SC.Checks;
    S.Deleted += R.Stats.ChecksDeleted;
    S.Inserted += R.Stats.ChecksInserted;
    auto WordOps = Results[I].Work.find("support.bitvector.word_ops");
    if (WordOps != Results[I].Work.end())
      S.WordOps += WordOps->second;
    S.OptimizeWall += R.optimizeWallSeconds();
    S.OptimizeCpu += R.optimizeCpuSeconds();
    ++S.Runs;
    if (Profile) {
      S.DynChecks += R.Profile.dynChecks();
      S.DynTraps += R.Profile.dynTraps();
      S.Accesses += R.Profile.arrayAccesses();
      S.TrappedRuns += R.Profile.trappedRuns();
    }
    if (Json) {
      W.beginObject();
      W.kv("program", K.Program);
      W.kv("scheme", placementSchemeName(K.Scheme));
      W.kv("impl", implicationModeName(K.Mode));
      W.kv("staticChecks", SC.Checks);
      W.key("stats");
      R.Stats.writeJson(W);
      W.key("work");
      W.beginObject();
      for (const auto &[Name, V] : Results[I].Work)
        W.kv(Name, V);
      W.endObject();
      if (Provenance) {
        W.key("provenance");
        R.Provenance.writeJson(W);
      }
      if (Profile) {
        W.kv("profileVersion", obs::ProfileVersion);
        W.key("profile");
        R.Profile.writeJson(W);
      }
      W.endObject();
    }
    if (Provenance) {
      std::vector<std::string> Problems =
          reconcileCheckProvenance(R.Provenance, R.Stats);
      if (!Problems.empty()) {
        std::fprintf(stderr, "sweep: %s scheme=%s impl=%s provenance "
                             "FAILED\n",
                     K.Program.c_str(), placementSchemeName(K.Scheme),
                     implicationModeName(K.Mode));
        for (const std::string &P : Problems)
          std::fprintf(stderr, "  %s\n", P.c_str());
        ++Failures;
      }
    }
    Audit += R.Audit.stats();
    if (!R.Audit.clean()) {
      std::fprintf(stderr, "sweep: %s scheme=%s impl=%s audit FAILED\n%s",
                   K.Program.c_str(), placementSchemeName(K.Scheme),
                   implicationModeName(K.Mode), R.Audit.render().c_str());
      ++Failures;
    }
  }

  if (Json) {
    W.endArray();
    W.kv("failures", Failures);
    W.key("audit");
    W.beginObject();
    W.kv("checks", Audit.ChecksAudited);
    W.kv("condchecks", Audit.CondChecksAudited);
    W.kv("traps", Audit.TrapsAudited);
    W.kv("covered", Audit.OriginalChecksCovered);
    W.kv("facts", Audit.FactsValidated);
    W.endObject();
    W.key("configs");
    W.beginArray();
    for (const auto &[Key, S] : Summaries) {
      W.beginObject();
      W.kv("scheme", Key.first);
      W.kv("impl", Key.second);
      W.kv("staticChecks", S.StaticChecks);
      W.kv("deleted", S.Deleted);
      W.kv("inserted", S.Inserted);
      W.kv("wordOps", S.WordOps);
      if (Profile) {
        // Dynamic density instead of timings: everything here is
        // deterministic, keeping --profile output byte-identical across
        // --jobs values.
        W.kv("dynChecks", S.DynChecks);
        W.kv("dynTraps", S.DynTraps);
        W.kv("arrayAccesses", S.Accesses);
        W.kv("checksPerAccess",
             S.Accesses ? static_cast<double>(S.DynChecks) /
                              static_cast<double>(S.Accesses)
                        : 0.0);
        W.kv("trappedRuns", S.TrappedRuns);
      } else {
        W.kv("optimizeWallSeconds", S.OptimizeWall);
        W.kv("optimizeCpuSeconds", S.OptimizeCpu);
      }
      W.endObject();
    }
    W.endArray();
    W.endObject();
    std::printf("%s\n", W.str().c_str());
    return Failures ? 1 : 0;
  }

  std::printf("sweep: %zu compilations, %u failures\n"
              "audit: checks=%u condchecks=%u traps=%u covered=%u facts=%u\n\n",
              Results.size(), Failures, Audit.ChecksAudited,
              Audit.CondChecksAudited, Audit.TrapsAudited,
              Audit.OriginalChecksCovered, Audit.FactsValidated);
  std::vector<std::string> Cols = {"scheme",   "impl",     "static",
                                   "deleted",  "inserted", "word ops"};
  if (Profile) {
    Cols.push_back("dyn checks");
    Cols.push_back("accesses");
    Cols.push_back("chk/acc");
    Cols.push_back("trapped");
  } else {
    Cols.push_back("opt wall");
    Cols.push_back("opt cpu");
  }
  TextTable T(Cols);
  for (const auto &[Key, S] : Summaries) {
    std::vector<std::string> Row = {
        Key.first, Key.second,
        formatString("%llu", static_cast<unsigned long long>(S.StaticChecks)),
        formatString("%llu", static_cast<unsigned long long>(S.Deleted)),
        formatString("%llu", static_cast<unsigned long long>(S.Inserted)),
        formatString("%llu", static_cast<unsigned long long>(S.WordOps))};
    if (Profile) {
      Row.push_back(
          formatString("%llu", static_cast<unsigned long long>(S.DynChecks)));
      Row.push_back(
          formatString("%llu", static_cast<unsigned long long>(S.Accesses)));
      Row.push_back(formatString(
          "%.4f", S.Accesses ? static_cast<double>(S.DynChecks) /
                                   static_cast<double>(S.Accesses)
                             : 0.0));
      Row.push_back(formatString(
          "%llu", static_cast<unsigned long long>(S.TrappedRuns)));
    } else {
      Row.push_back(formatString("%.3f", S.OptimizeWall));
      Row.push_back(formatString("%.3f", S.OptimizeCpu));
    }
    T.addRow(Row);
  }
  std::printf("%s", T.render().c_str());
  return Failures ? 1 : 0;
}
