//===----------------------------------------------------------------------===//
///
/// \file
/// mfc: the mini-Fortran compiler driver. Compiles a source file with a
/// selectable check-placement scheme, optionally dumps the IR, runs the
/// program in the interpreter, and reports dynamic instruction and check
/// counts — a command-line face for the whole library.
///
///   mfc [options] file.mf
///     -scheme=NAME                      placement scheme (default LLS):
///                                       NI|CS|LNI|SE|LI|LLS|ALL|MCM|AI
///     -impl=all|cross|none              implication mode (default all)
///     -inx                              use induction-expression checks
///     -audit                            run the trap-safety auditor over
///                                       the (original, optimized) pair
///     -no-opt                           naive checking only
///     -no-checks                        do not insert range checks
///     -dump-ir                          print the optimized IR
///     -emit-c                           print instrumented C instead of
///                                       running the program
///     -quiet                            suppress program output
///     -cache[=off]                      reuse frontend/analysis artifacts
///                                       from the process-global content-
///                                       addressed cache (docs/caching.md)
///     -stats-json                       print optimizer stats, phase
///                                       timings, the global stat registry,
///                                       and (with -cache) cacheStats as
///                                       JSON on stdout
///     -trace-out=PATH                   write a Chrome trace_event JSON
///                                       of the pipeline phases and their
///                                       optimizer/auditor sub-phases
///                                       (open in Perfetto)
///     -remarks[=REGEX]                  print one remark per optimizer
///                                       decision to stderr, optionally
///                                       filtered by family/array regex;
///                                       residual checks are annotated
///                                       with their dynamic hit counts
///     -provenance-json                  print the stats envelope with the
///                                       full check-lifecycle provenance
///                                       record (implies -stats-json)
///     -provenance-dot=PATH              write the subsumption /
///                                       justification graph as DOT
///     -explain=SITE                     print the full decision chain of
///                                       every check originating at SITE
///                                       ([file:]line[:col]) or of one
///                                       check by lifecycle tag (tag:N —
///                                       the form profdiff reports)
///     -profile                          print a human-readable execution
///                                       profile (hot check sites, loop
///                                       trip counts, densities) to stderr
///     -profile-json[=PATH]              write the versioned execution-
///                                       profile envelope to PATH (or
///                                       stdout); with -emit-c, emit the
///                                       profile counter table into the C
///
//===----------------------------------------------------------------------===//

#include "cache/ArtifactCache.h"
#include "cbackend/CEmitter.h"
#include "driver/Pipeline.h"
#include "interp/Interpreter.h"
#include "ir/IRPrinter.h"
#include "obs/BenchSchema.h"
#include "obs/Json.h"
#include "obs/Remarks.h"
#include "obs/StatRegistry.h"

#include <algorithm>
#include <climits>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

using namespace nascent;

namespace {

void usage() {
  std::fprintf(
      stderr,
      "usage: mfc [-scheme=NAME] [-impl=all|cross|none] [-inx] [-audit]\n"
      "           [-no-opt] [-no-checks] [-dump-ir] [-emit-c] [-quiet]\n"
      "           [-cache[=off]] [-stats-json] [-trace-out=PATH] "
      "[-remarks[=REGEX]]\n"
      "           [-provenance-json] [-provenance-dot=PATH] "
      "[-explain=SITE|tag:N]\n"
      "           [-profile] [-profile-json[=PATH]] file.mf\n");
}

/// True when \p S is a non-empty run of decimal digits.
bool isNumeric(const std::string &S) {
  if (S.empty())
    return false;
  for (char C : S)
    if (C < '0' || C > '9')
      return false;
  return true;
}

/// Parses a decimal digit string into \p Out; false when the value does
/// not fit an unsigned (CheckTag is one too).
bool parseUnsigned(const std::string &S, unsigned &Out) {
  unsigned long long V = 0;
  for (char C : S) {
    V = V * 10 + static_cast<unsigned>(C - '0');
    if (V > UINT_MAX)
      return false;
  }
  Out = static_cast<unsigned>(V);
  return true;
}

/// Parses an -explain site spec of the form [file:]line[:col]: the
/// trailing one or two ':'-separated numeric components are the line (and
/// column); any leading file path is ignored (mfc compiles one file).
/// Sets \p OutOfRange when a component does not fit an unsigned.
bool parseExplainSite(const std::string &Spec, unsigned &Line, unsigned &Col,
                      bool &OutOfRange) {
  std::vector<std::string> Parts;
  size_t Start = 0;
  while (true) {
    size_t Colon = Spec.find(':', Start);
    Parts.push_back(Spec.substr(Start, Colon - Start));
    if (Colon == std::string::npos)
      break;
    Start = Colon + 1;
  }
  Line = Col = 0;
  OutOfRange = false;
  size_t N = Parts.size();
  if (N >= 2 && isNumeric(Parts[N - 2]) && isNumeric(Parts[N - 1])) {
    OutOfRange = !parseUnsigned(Parts[N - 2], Line) ||
                 !parseUnsigned(Parts[N - 1], Col);
    return !OutOfRange;
  }
  if (isNumeric(Parts[N - 1])) {
    OutOfRange = !parseUnsigned(Parts[N - 1], Line);
    return !OutOfRange;
  }
  return false;
}

} // namespace

int main(int argc, char **argv) {
  PipelineOptions PO;
  bool DumpIR = false;
  bool EmitC = false;
  bool Quiet = false;
  bool StatsJson = false;
  bool ProvJson = false;
  bool ProfileText = false;
  bool ProfileJson = false;
  bool WantRemarks = false;
  obs::RemarkCollector Remarks;
  std::string ProfileJsonPath;
  std::string ProvDotPath;
  std::string ExplainSpec;
  const char *Path = nullptr;

  for (int I = 1; I < argc; ++I) {
    const char *Arg = argv[I];
    if (std::strncmp(Arg, "-scheme=", 8) == 0) {
      if (!parsePlacementScheme(Arg + 8, PO.Opt.Scheme)) {
        std::fprintf(stderr, "mfc: unknown scheme '%s' (valid: %s)\n",
                     Arg + 8, placementSchemeNames());
        return 2;
      }
    } else if (std::strcmp(Arg, "-impl=all") == 0) {
      PO.Opt.Implications = ImplicationMode::All;
    } else if (std::strcmp(Arg, "-impl=cross") == 0) {
      PO.Opt.Implications = ImplicationMode::CrossFamilyOnly;
    } else if (std::strcmp(Arg, "-impl=none") == 0) {
      PO.Opt.Implications = ImplicationMode::None;
    } else if (std::strcmp(Arg, "-inx") == 0) {
      PO.Source = CheckSource::INX;
    } else if (std::strcmp(Arg, "-audit") == 0) {
      PO.Audit = true;
    } else if (std::strcmp(Arg, "-no-opt") == 0) {
      PO.Optimize = false;
    } else if (std::strcmp(Arg, "-no-checks") == 0) {
      PO.Lowering.InsertChecks = false;
    } else if (std::strcmp(Arg, "-dump-ir") == 0) {
      DumpIR = true;
    } else if (std::strcmp(Arg, "-emit-c") == 0) {
      EmitC = true;
    } else if (std::strcmp(Arg, "-quiet") == 0) {
      Quiet = true;
    } else if (std::strcmp(Arg, "-cache") == 0) {
      PO.Cache.Enabled = true;
    } else if (std::strcmp(Arg, "-cache=off") == 0) {
      PO.Cache.Enabled = false;
    } else if (std::strcmp(Arg, "-stats-json") == 0) {
      StatsJson = true;
    } else if (std::strncmp(Arg, "-trace-out=", 11) == 0) {
      PO.Telemetry.TracePath = Arg + 11;
    } else if (std::strcmp(Arg, "-remarks") == 0) {
      WantRemarks = true;
    } else if (std::strncmp(Arg, "-remarks=", 9) == 0) {
      WantRemarks = true;
      std::string Err;
      if (!Remarks.setFilter(Arg + 9, &Err)) {
        std::fprintf(stderr, "mfc: invalid -remarks regex '%s': %s\n",
                     Arg + 9, Err.c_str());
        return 2;
      }
    } else if (std::strcmp(Arg, "-provenance-json") == 0) {
      ProvJson = true;
      StatsJson = true;
    } else if (std::strncmp(Arg, "-provenance-dot=", 16) == 0) {
      ProvDotPath = Arg + 16;
    } else if (std::strncmp(Arg, "-explain=", 9) == 0) {
      ExplainSpec = Arg + 9;
    } else if (std::strcmp(Arg, "-profile") == 0) {
      ProfileText = true;
      PO.Telemetry.Profile = true;
    } else if (std::strcmp(Arg, "-profile-json") == 0) {
      ProfileJson = true;
      PO.Telemetry.Profile = true;
    } else if (std::strncmp(Arg, "-profile-json=", 14) == 0) {
      ProfileJson = true;
      ProfileJsonPath = Arg + 14;
      PO.Telemetry.Profile = true;
    } else if (Arg[0] == '-') {
      std::fprintf(stderr, "mfc: unknown option '%s'\n", Arg);
      usage();
      return 2;
    } else if (Path) {
      usage();
      return 2;
    } else {
      Path = Arg;
    }
  }
  if (!Path) {
    usage();
    return 2;
  }
  unsigned ExplainLine = 0, ExplainCol = 0;
  CheckTag ExplainTag = NoCheckTag;
  if (!ExplainSpec.empty()) {
    bool OutOfRange = false;
    if (ExplainSpec.rfind("tag:", 0) == 0) {
      std::string Num = ExplainSpec.substr(4);
      if (!isNumeric(Num)) {
        std::fprintf(stderr, "mfc: bad -explain tag '%s' (expected tag:N)\n",
                     ExplainSpec.c_str());
        return 2;
      }
      OutOfRange = !parseUnsigned(Num, ExplainTag);
    } else if (!parseExplainSite(ExplainSpec, ExplainLine, ExplainCol,
                                 OutOfRange) &&
               !OutOfRange) {
      std::fprintf(
          stderr,
          "mfc: bad -explain site '%s' (expected [file:]line[:col] or "
          "tag:N)\n",
          ExplainSpec.c_str());
      return 2;
    }
    if (OutOfRange) {
      std::fprintf(stderr,
                   "mfc: -explain value out of range in '%s' (at most %u)\n",
                   ExplainSpec.c_str(), UINT_MAX);
      return 2;
    }
  }
  if (StatsJson && ProfileJson && ProfileJsonPath.empty()) {
    std::fprintf(stderr,
                 "mfc: -stats-json and -profile-json both write to stdout; "
                 "use -profile-json=PATH\n");
    return 2;
  }

  std::ifstream In(Path);
  if (!In) {
    std::fprintf(stderr, "mfc: cannot open '%s'\n", Path);
    return 2;
  }
  std::stringstream SS;
  SS << In.rdbuf();

  // The interpreter phase below wants to appear in the trace, so the
  // pipeline must not write the file yet; mfc writes it after the run.
  std::string TracePath = PO.Telemetry.TracePath;
  PO.Telemetry.TracePath.clear();

  CompileResult R = compileSource(SS.str(), PO);
  std::string Diags = R.Diags.render();
  if (!Diags.empty())
    std::fprintf(stderr, "%s", Diags.c_str());
  if (!R.Success)
    return 1;
  if (PO.Audit) {
    if (!PO.Optimize) {
      std::fprintf(stderr, "audit: skipped (-no-opt leaves nothing to audit)\n");
    } else {
      std::fprintf(stderr, "%s\n", R.Audit.summaryLine().c_str());
      if (!R.Audit.clean())
        return 5;
    }
  }

  // Provenance is complete once compilation finished (the pipeline records
  // the terminal Residualized events), so these can precede the run.
  if (WantRemarks)
    obs::collectDecisionRemarks(R.Provenance, Remarks);
  if (!ExplainSpec.empty()) {
    std::string Chain = ExplainTag != NoCheckTag
                            ? R.Provenance.explainTag(ExplainTag)
                            : R.Provenance.explainSite(ExplainLine,
                                                       ExplainCol);
    if (Chain.empty())
      std::printf("explain: no check recorded at %s\n", ExplainSpec.c_str());
    else
      std::printf("%s", Chain.c_str());
  }
  if (!ProvDotPath.empty()) {
    std::ofstream Dot(ProvDotPath, std::ios::binary);
    if (!Dot) {
      std::fprintf(stderr, "mfc: cannot open dot output file '%s'\n",
                   ProvDotPath.c_str());
      return 2;
    }
    Dot << R.Provenance.toDot();
  }

  if (DumpIR)
    std::printf("%s", printModule(*R.M).c_str());
  if (EmitC) {
    CEmitOptions CO;
    CO.Profile = PO.Telemetry.Profile;
    std::printf("%s", emitModuleToC(*R.M, CO).c_str());
    return 0;
  }

  ExecResult E;
  {
    obs::ScopedPhase Phase(&R.Phases, "interpret");
    InterpOptions IO;
    // Residual-check remarks take their dynamic counts from the profile's
    // per-site hits, so remarks need an attached profile too.
    if (WantRemarks && !R.Profile.attached())
      R.Profile.attach(*R.M);
    if (R.Profile.attached())
      IO.Profile = &R.Profile;
    E = interpret(*R.M, IO);
  }
  if (!Quiet)
    for (const std::string &Line : E.Output)
      std::printf("%s\n", Line.c_str());

  if (WantRemarks) {
    obs::emitResidualCheckRemarks(R.Provenance, R.Profile, Remarks);
    Remarks.renderText(std::cerr);
  }

  if (ProfileJson) {
    std::string Envelope = R.Profile.toEnvelopeJson();
    if (ProfileJsonPath.empty()) {
      std::printf("%s\n", Envelope.c_str());
    } else {
      std::ofstream Out(ProfileJsonPath, std::ios::binary);
      if (!Out) {
        std::fprintf(stderr, "mfc: cannot open profile output file '%s'\n",
                     ProfileJsonPath.c_str());
        return 2;
      }
      Out << Envelope << "\n";
    }
  }
  if (ProfileText) {
    const obs::ExecutionProfile &P = R.Profile;
    std::fprintf(stderr,
                 "[profile] runs=%llu trapped=%llu dynChecks=%llu "
                 "dynTraps=%llu accesses=%llu checksPerAccess=%.4f "
                 "residualSites=%llu\n",
                 (unsigned long long)P.runs(),
                 (unsigned long long)P.trappedRuns(),
                 (unsigned long long)P.dynChecks(),
                 (unsigned long long)P.dynTraps(),
                 (unsigned long long)P.arrayAccesses(), P.checksPerAccess(),
                 (unsigned long long)P.residualSites());
    struct HotSite {
      const obs::CheckSiteProfile *S;
      const obs::FunctionProfile *F;
    };
    std::vector<HotSite> Hot;
    for (const obs::FunctionProfile &FP : P.functions())
      for (const obs::CheckSiteProfile &S : FP.Sites)
        Hot.push_back({&S, &FP});
    std::stable_sort(Hot.begin(), Hot.end(),
                     [](const HotSite &A, const HotSite &B) {
                       return A.S->Hits > B.S->Hits;
                     });
    size_t Shown = 0;
    for (const HotSite &H : Hot) {
      if (Shown++ == 10)
        break;
      std::fprintf(stderr,
                   "[profile]   t%u %s bb%u#%u %s hits=%llu traps=%llu\n",
                   H.S->Tag, H.F->Name.c_str(), H.S->Block, H.S->Index,
                   H.S->CheckStr.c_str(), (unsigned long long)H.S->Hits,
                   (unsigned long long)H.S->Traps);
    }
    for (const obs::FunctionProfile &FP : P.functions())
      for (const obs::LoopProfile &L : FP.Loops)
        std::fprintf(
            stderr,
            "[profile]   loop %s bb%u entries=%llu iterations=%llu "
            "partial=%llu\n",
            FP.Name.c_str(), L.Header, (unsigned long long)L.Entries,
            (unsigned long long)L.Iterations,
            (unsigned long long)L.PartialEntries);
  }

  if (!TracePath.empty()) {
    std::string Err;
    if (!obs::writeMergedTraceFile({{&R.Phases, ""}}, TracePath, &Err)) {
      std::fprintf(stderr, "mfc: cannot write trace file: %s\n", Err.c_str());
      return 2;
    }
  }

  if (StatsJson) {
    obs::JsonWriter W;
    W.beginObject();
    W.kv("schemaVersion", obs::BenchSchemaVersion);
    W.key("optimizer");
    R.Stats.writeJson(W);
    W.key("phases");
    W.beginArray();
    for (const obs::PhaseTiming &P : R.Phases.Phases) {
      W.beginObject();
      W.kv("name", P.Name);
      W.kv("depth", P.Depth);
      W.kv("wallStart", P.WallStart);
      W.kv("wallSeconds", P.WallSeconds);
      if (P.Depth == 0) // nested entries read only the wall clock
        W.kv("cpuSeconds", P.CpuSeconds);
      W.endObject();
    }
    W.endArray();
    W.key("interp");
    W.beginObject();
    W.kv("dynInstrs", E.DynInstrs);
    W.kv("dynChecks", E.DynChecks);
    W.kv("dynCondChecks", E.DynCondChecks);
    W.endObject();
    W.key("registry");
    obs::StatRegistry::global().writeJson(W);
    if (PO.Cache.Enabled) {
      W.key("cacheStats");
      cache::ArtifactCache::global().writeStatsJson(W);
    }
    if (WantRemarks) {
      W.key("remarks");
      Remarks.writeJson(W);
    }
    if (ProvJson) {
      W.key("provenance");
      R.Provenance.writeJson(W);
    }
    W.endObject();
    std::printf("%s\n", W.str().c_str());
  }

  switch (E.St) {
  case ExecResult::Status::Ok:
    break;
  case ExecResult::Status::Trapped:
    std::fprintf(stderr, "mfc: program trapped: %s\n",
                 E.FaultMessage.c_str());
    break;
  default:
    std::fprintf(stderr, "mfc: runtime fault: %s\n", E.FaultMessage.c_str());
    return 3;
  }

  std::fprintf(stderr,
               "[mfc] %llu instructions, %llu range checks executed "
               "(%llu conditional); optimize %.3fs wall / %.3fs cpu\n",
               (unsigned long long)E.DynInstrs,
               (unsigned long long)E.DynChecks,
               (unsigned long long)E.DynCondChecks, R.optimizeWallSeconds(),
               R.optimizeCpuSeconds());
  return E.St == ExecResult::Status::Trapped ? 4 : 0;
}
