//===----------------------------------------------------------------------===//
///
/// \file
/// benchdiff: persistent perf baselines and the noise-aware regression
/// gate. Runs a bench harness (or reads a saved document), compares it
/// against a committed `BENCH_<harness>.json` baseline with the
/// obs/BenchDiff.h rules — deterministic work-proxy counters exactly,
/// CPU-time medians only outside their bootstrap confidence intervals —
/// and prints a markdown trajectory report. Nonzero exit on regression,
/// which is what makes the `bench-gate` CTest label a real gate.
///
///   # refresh (or create) a baseline
///   benchdiff --update BENCH_table2_schemes.json -- \
///       ./bench/table2_schemes --json --tiny --reps 5 --warmup 1
///
///   # gate a fresh run against it
///   benchdiff --check --baseline BENCH_table2_schemes.json -- \
///       ./bench/table2_schemes --json --tiny --reps 5 --warmup 1
///
///   # or diff two saved documents
///   benchdiff --check --baseline old.json --current new.json
///
/// Exit codes: 0 ok / baseline written, 1 regression detected, 2 usage or
/// I/O error.
///
//===----------------------------------------------------------------------===//

#include "obs/BenchDiff.h"
#include "obs/BenchSchema.h"
#include "obs/Json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace nascent;

namespace {

void usage() {
  std::fprintf(
      stderr,
      "usage: benchdiff --update BASELINE -- CMD [ARGS...]\n"
      "       benchdiff --check --baseline BASELINE [--current FILE]\n"
      "                 [--report PATH] [--time-margin F] [--min-time S]\n"
      "                 [-- CMD [ARGS...]]\n");
}

/// Reads a non-negative finite number; the whole of \p Text must be
/// consumed, so "abc", "0.1x" and "-5" are diagnosed instead of being
/// read as 0, 0.1 or -5.
bool parseNonNegative(const char *Flag, const char *Text, double &Out) {
  char *End = nullptr;
  double V = std::strtod(Text, &End);
  if (End == Text || *End != '\0' || !std::isfinite(V) || V < 0) {
    std::fprintf(stderr,
                 "benchdiff: invalid %s value '%s' (expected a non-negative "
                 "number)\n",
                 Flag, Text);
    return false;
  }
  Out = V;
  return true;
}

bool readFile(const std::string &Path, std::string &Out, std::string *Err) {
  std::ifstream In(Path, std::ios::binary);
  if (!In) {
    if (Err)
      *Err = "cannot open '" + Path + "'";
    return false;
  }
  std::ostringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

bool runCommand(const std::vector<std::string> &Cmd, std::string &Out,
                std::string *Err) {
  std::string Joined;
  for (const std::string &Arg : Cmd) {
    if (!Joined.empty())
      Joined += ' ';
    Joined += Arg;
  }
  FILE *P = popen(Joined.c_str(), "r");
  if (!P) {
    if (Err)
      *Err = "cannot run '" + Joined + "'";
    return false;
  }
  char Buf[4096];
  size_t N;
  while ((N = fread(Buf, 1, sizeof(Buf), P)) > 0)
    Out.append(Buf, N);
  if (int Status = pclose(P); Status != 0) {
    if (Err)
      *Err = "'" + Joined + "' exited with status " + std::to_string(Status);
    return false;
  }
  return true;
}

bool parseAndValidate(const std::string &Text, const char *What,
                      obs::JsonValue &Out) {
  std::string Err;
  if (!obs::parseJson(Text, Out, &Err)) {
    std::fprintf(stderr, "benchdiff: %s is not valid JSON: %s\n", What,
                 Err.c_str());
    return false;
  }
  if (!obs::validateBenchDocument(Out, &Err)) {
    std::fprintf(stderr, "benchdiff: %s fails schema validation: %s\n", What,
                 Err.c_str());
    return false;
  }
  return true;
}

} // namespace

int main(int argc, char **argv) {
  bool Check = false;
  std::string UpdatePath;
  std::string BaselinePath;
  std::string CurrentPath;
  std::string ReportPath;
  obs::BenchDiffOptions Opts;
  std::vector<std::string> Cmd;

  for (int I = 1; I < argc; ++I) {
    const char *Arg = argv[I];
    if (std::strcmp(Arg, "--check") == 0) {
      Check = true;
    } else if (std::strcmp(Arg, "--update") == 0 && I + 1 < argc) {
      UpdatePath = argv[++I];
    } else if (std::strcmp(Arg, "--baseline") == 0 && I + 1 < argc) {
      BaselinePath = argv[++I];
    } else if (std::strcmp(Arg, "--current") == 0 && I + 1 < argc) {
      CurrentPath = argv[++I];
    } else if (std::strcmp(Arg, "--report") == 0 && I + 1 < argc) {
      ReportPath = argv[++I];
    } else if (std::strcmp(Arg, "--time-margin") == 0 && I + 1 < argc) {
      if (!parseNonNegative(Arg, argv[++I], Opts.TimeMargin))
        return 2;
    } else if (std::strcmp(Arg, "--min-time") == 0 && I + 1 < argc) {
      if (!parseNonNegative(Arg, argv[++I], Opts.MinTimeSeconds))
        return 2;
    } else if (std::strcmp(Arg, "--") == 0) {
      for (int J = I + 1; J < argc; ++J)
        Cmd.push_back(argv[J]);
      break;
    } else {
      std::fprintf(stderr, "benchdiff: unknown argument '%s'\n", Arg);
      usage();
      return 2;
    }
  }

  if (Check == !UpdatePath.empty() || (Check && BaselinePath.empty())) {
    usage();
    return 2;
  }

  // Obtain the current document: a saved file or a fresh harness run.
  std::string CurrentText;
  std::string Err;
  if (!CurrentPath.empty()) {
    if (!readFile(CurrentPath, CurrentText, &Err)) {
      std::fprintf(stderr, "benchdiff: %s\n", Err.c_str());
      return 2;
    }
  } else if (!Cmd.empty()) {
    if (!runCommand(Cmd, CurrentText, &Err)) {
      std::fprintf(stderr, "benchdiff: %s\n", Err.c_str());
      return 2;
    }
  } else {
    std::fprintf(stderr,
                 "benchdiff: need --current FILE or a command after --\n");
    usage();
    return 2;
  }

  obs::JsonValue Current;
  if (!parseAndValidate(CurrentText, "current run", Current))
    return 2;

  if (!UpdatePath.empty()) {
    std::ofstream Out(UpdatePath, std::ios::binary | std::ios::trunc);
    if (!Out || !(Out << CurrentText)) {
      std::fprintf(stderr, "benchdiff: cannot write '%s'\n",
                   UpdatePath.c_str());
      return 2;
    }
    std::printf("benchdiff: wrote baseline %s (%zu bytes)\n",
                UpdatePath.c_str(), CurrentText.size());
    return 0;
  }

  std::string BaselineText;
  if (!readFile(BaselinePath, BaselineText, &Err)) {
    std::fprintf(stderr,
                 "benchdiff: %s\nbenchdiff: no baseline — create one with "
                 "--update\n",
                 Err.c_str());
    return 2;
  }
  obs::JsonValue Baseline;
  if (!parseAndValidate(BaselineText, "baseline", Baseline))
    return 2;

  obs::BenchDiffResult R = obs::diffBenchDocuments(Baseline, Current, Opts);
  std::string Report = obs::renderMarkdownReport(R, BaselinePath);
  std::printf("%s", Report.c_str());
  if (!ReportPath.empty()) {
    std::ofstream Out(ReportPath, std::ios::binary | std::ios::trunc);
    if (!Out || !(Out << Report)) {
      std::fprintf(stderr, "benchdiff: cannot write report '%s'\n",
                   ReportPath.c_str());
      return 2;
    }
  }
  return R.hasRegression() ? 1 : 0;
}
