//===----------------------------------------------------------------------===//
///
/// \file
/// The repository benchmark (README.md). One serial closed-loop client
/// drives one of three workloads through the public entry points —
/// compileSource, interpret, ArtifactCache::stats — for a fixed number
/// of seconds, checks every result, and prints one JSON line:
///
///   perfbench --workload compile-sweep|cached-sweep|execute-scaled
///             --seed N --seconds S --trace 0|1 [--span-file PATH]
///
/// --trace 0 reports the end-to-end metrics. --trace 1 instead walks
/// compileSource's steps through the layer functions (Composed.h), records
/// a span around each call, and reports per-layer metrics.
///
//===----------------------------------------------------------------------===//

#include "Composed.h"
#include "Spans.h"

#include "cache/ArtifactCache.h"
#include "interp/Interpreter.h"
#include "obs/StatRegistry.h"
#include "suite/Suite.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <regex>
#include <string>
#include <vector>

using namespace nascent;
using namespace perfbench;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

//===-- Command line ------------------------------------------------------===//

struct Args {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 0;
  bool Trace = false;
  std::string SpanFile;
};

bool parseUnsigned(const char *S, uint64_t &Out) {
  if (!*S)
    return false;
  char *End = nullptr;
  errno = 0;
  unsigned long long V = std::strtoull(S, &End, 10);
  if (errno || *End || *S == '-')
    return false;
  Out = V;
  return true;
}

bool parseArgs(int Argc, char **Argv, Args &A) {
  bool HaveWorkload = false, HaveSeed = false, HaveSeconds = false,
       HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (I + 1 >= Argc) {
      std::fprintf(stderr, "perfbench: %s needs a value\n", Flag.c_str());
      return false;
    }
    const char *V = Argv[++I];
    uint64_t N = 0;
    if (Flag == "--workload") {
      A.Workload = V;
      HaveWorkload = true;
    } else if (Flag == "--seed" && parseUnsigned(V, N)) {
      A.Seed = N;
      HaveSeed = true;
    } else if (Flag == "--seconds" && parseUnsigned(V, N) && N >= 1 &&
               N <= 120) {
      A.Seconds = double(N);
      HaveSeconds = true;
    } else if (Flag == "--trace" && parseUnsigned(V, N) && N <= 1) {
      A.Trace = N == 1;
      HaveTrace = true;
    } else if (Flag == "--span-file") {
      A.SpanFile = V;
    } else {
      std::fprintf(stderr, "perfbench: bad argument %s %s\n", Flag.c_str(), V);
      return false;
    }
  }
  if (!HaveWorkload || !HaveSeed || !HaveSeconds || !HaveTrace) {
    std::fprintf(stderr, "usage: perfbench --workload NAME --seed N "
                         "--seconds S --trace 0|1 [--span-file PATH]\n");
    return false;
  }
  if (A.Workload != "compile-sweep" && A.Workload != "cached-sweep" &&
      A.Workload != "execute-scaled") {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 A.Workload.c_str());
    return false;
  }
  return true;
}

//===-- Seeded choices ----------------------------------------------------===//

/// splitmix64: the seed's only uses are the cell orders and the time-step
/// multiples, so one small generator with a fixed algorithm suffices and
/// keeps both identical across standard libraries.
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    uint64_t Z = (State += 0x9e3779b97f4a7c15ull);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return Z ^ (Z >> 31);
  }
  uint64_t below(uint64_t N) { return next() % N; }

private:
  uint64_t State;
};

std::vector<size_t> shuffledIndices(size_t N, Rng &R) {
  std::vector<size_t> Order(N);
  for (size_t I = 0; I != N; ++I)
    Order[I] = I;
  for (size_t I = N; I > 1; --I)
    std::swap(Order[I - 1], Order[R.below(I)]);
  return Order;
}

//===-- Statistics --------------------------------------------------------===//

/// Linear-interpolation quantile (q in [0, 1]) of unsorted samples.
double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * double(V.size() - 1);
  size_t Lo = size_t(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - double(Lo));
}

double median(const std::vector<double> &V) { return quantile(V, 0.5); }

double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double LogSum = 0;
  for (double X : V)
    LogSum += std::log(X);
  return std::exp(LogSum / double(V.size()));
}

double peakRssMb() {
  struct rusage RU;
  getrusage(RUSAGE_SELF, &RU);
  return double(RU.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux
}

//===-- CPU choice --------------------------------------------------------===//

/// On shared hosts one core can run this code up to 1.6x slower than
/// another for seconds at a time (a busy hyperthread sibling), and which
/// core is slow changes. Timings taken on whichever core the scheduler
/// picked would mostly measure that, so the benchmark keeps its one thread
/// on the allowed core that runs a fixed calibration kernel fastest, and
/// re-chooses about once a second. Calibration time is excluded from every
/// reported time.
class CpuPicker {
public:
  CpuPicker() {
    cpu_set_t Set;
    CPU_ZERO(&Set);
    if (sched_getaffinity(0, sizeof Set, &Set) == 0)
      for (int C = 0; C != CPU_SETSIZE; ++C)
        if (CPU_ISSET(C, &Set))
          Cpus.push_back(C);
  }

  /// Re-chooses the core if the last choice is over a second old. Returns
  /// the seconds spent, for the caller to leave out of its timings.
  double pickIfDue() {
    if (Picked && secondsSince(LastPick) < 1.0)
      return 0;
    auto T0 = Clock::now();
    pick();
    return secondsSince(T0);
  }

  void pick() {
    LastPick = Clock::now();
    Picked = true;
    if (Cpus.size() < 2)
      return;
    int Best = Cpus.front();
    double BestSecs = 1e9;
    for (int C : Cpus) {
      if (!pinTo(C))
        continue;
      double Secs = 1e9;
      for (int Rep = 0; Rep != 3; ++Rep) {
        auto T0 = Clock::now();
        Sink += kernel();
        Secs = std::min(Secs, secondsSince(T0));
      }
      if (Secs < BestSecs) {
        BestSecs = Secs;
        Best = C;
      }
    }
    pinTo(Best);
  }

private:
  static bool pinTo(int C) {
    cpu_set_t Set;
    CPU_ZERO(&Set);
    CPU_SET(C, &Set);
    return sched_setaffinity(0, sizeof Set, &Set) == 0;
  }

  /// About a millisecond of table-driven integer work: branchy, memory
  /// bound within L2, like the interpreter and the optimizer's bit vectors.
  uint64_t kernel() {
    uint64_t X = 0x9e3779b97f4a7c15ull, Acc = 0;
    for (int I = 0; I != 200000; ++I) {
      X ^= X << 13;
      X ^= X >> 7;
      X ^= X << 17;
      uint32_t &Slot = Table[X & (Table.size() - 1)];
      Acc += (Slot & 1) ? Slot : Slot >> 1;
      Slot += uint32_t(Acc);
    }
    return Acc;
  }

  std::vector<int> Cpus;
  std::array<uint32_t, 1 << 15> Table{};
  Clock::time_point LastPick;
  bool Picked = false;
  uint64_t Sink = 0;
};

//===-- Result reporting --------------------------------------------------===//

struct Metric {
  double Value;
  const char *Unit;
};
using MetricMap = std::map<std::string, Metric>;

/// Operation accounting for the correctness oracle: every failure names
/// the operation (cell) that failed and why.
struct Oracle {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;

  void fail(const std::string &Op, const std::string &Why) {
    ++Failed;
    if (Failed <= 20)
      std::printf("FAILED %s: %s\n", Op.c_str(), Why.c_str());
  }
};

void printResult(const Oracle &O, const MetricMap &M) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              O.Failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(O.Attempted),
              static_cast<unsigned long long>(O.Failed));
  bool First = true;
  for (const auto &[Name, Mt] : M) {
    double V = std::isfinite(Mt.Value) ? Mt.Value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                First ? "" : ", ", Name.c_str(), V, Mt.Unit);
    First = false;
  }
  std::printf("}}\n");
}

//===-- Programs and cells ------------------------------------------------===//

/// The ten suite programs; on execute-scaled their time-step inputs are
/// scaled (scaleTimeSteps).
struct Program {
  std::string Name;
  std::string Source;
  unsigned StepMultiple = 1;
};

std::vector<Program> loadSuite() {
  std::vector<Program> Ps;
  for (const SuiteProgram &P : benchmarkSuite())
    Ps.push_back({P.Name, P.Source, 1});
  return Ps;
}

/// Rewrites every time-step input literal (`steps = input(k)`,
/// `nsteps = input(k)`) to input(k * Multiple). Returns whether one was
/// found: programs without a time-step loop run at their base size.
bool scaleTimeSteps(std::string &Source, unsigned Multiple) {
  static const std::regex StepInput(R"((\b\w*steps\s*=\s*input\()(\d+)\))");
  std::string Out;
  bool Found = false;
  auto Begin = std::sregex_iterator(Source.begin(), Source.end(), StepInput);
  size_t Last = 0;
  for (auto It = Begin; It != std::sregex_iterator(); ++It) {
    const std::smatch &Mt = *It;
    Out.append(Source, Last, size_t(Mt.position(0)) - Last);
    Out += Mt[1].str() + std::to_string(std::stoul(Mt[2].str()) * Multiple) +
           ")";
    Last = size_t(Mt.position(0) + Mt.length(0));
    Found = true;
  }
  Out.append(Source, Last, std::string::npos);
  Source = std::move(Out);
  return Found;
}

constexpr PlacementScheme AllSchemes[] = {
    PlacementScheme::NI,  PlacementScheme::CS,  PlacementScheme::LNI,
    PlacementScheme::SE,  PlacementScheme::LI,  PlacementScheme::LLS,
    PlacementScheme::ALL, PlacementScheme::MCM, PlacementScheme::AI};
constexpr ImplicationMode AllModes[] = {ImplicationMode::All,
                                        ImplicationMode::CrossFamilyOnly,
                                        ImplicationMode::None};

const char *modeName(ImplicationMode M) {
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

struct CompileCell {
  size_t Prog;
  PipelineOptions Opts;
  std::string Label;
};

/// compile-sweep: program x {PRX, INX} x 9 schemes x 3 implication modes,
/// audited, uncached (the audit_all traffic). cached-sweep: the 270 PRX
/// cells, unaudited, cached (the sweep --cache traffic).
std::vector<CompileCell> sweepCells(const std::vector<Program> &Ps,
                                    bool Cached) {
  std::vector<CompileCell> Cells;
  for (size_t P = 0; P != Ps.size(); ++P)
    for (CheckSource Src : {CheckSource::PRX, CheckSource::INX}) {
      if (Cached && Src == CheckSource::INX)
        continue;
      for (PlacementScheme S : AllSchemes)
        for (ImplicationMode M : AllModes) {
          CompileCell C;
          C.Prog = P;
          C.Opts.Source = Src;
          C.Opts.Opt.Scheme = S;
          C.Opts.Opt.Implications = M;
          C.Opts.Audit = !Cached;
          C.Opts.Cache.Enabled = Cached;
          C.Label = Ps[P].Name + "/" +
                    (Src == CheckSource::PRX ? "PRX" : "INX") + "/" +
                    placementSchemeName(S) + "/" + modeName(M);
          Cells.push_back(std::move(C));
        }
    }
  return Cells;
}

/// The configurations a program is executed under: no checks at all,
/// the naive checks, and the paper's no-insertion and best schemes.
enum ExecConfig : unsigned { Unchecked, Naive, NI, LLS, NumConfigs };
const char *const ConfigNames[NumConfigs] = {"unchecked", "naive", "NI",
                                             "LLS"};

PipelineOptions execOptions(ExecConfig C) {
  PipelineOptions O;
  O.Lowering.InsertChecks = C != Unchecked;
  O.Optimize = C == NI || C == LLS;
  O.Opt.Scheme = C == NI ? PlacementScheme::NI : PlacementScheme::LLS;
  return O;
}

//===-- Compilation with the oracle ---------------------------------------===//

/// compileSource latencies, each tagged with its slot: the work the call
/// did (the cell, and on cached-sweep whether the frontend tier hit).
class Latencies {
public:
  void add(size_t Slot, double Ms) { Samples.push_back({Slot, Ms}); }
  size_t size() const { return Samples.size(); }

  /// Every sample at the fastest time observed for its slot. A cell's work
  /// is deterministic, and contention from other tenants of a shared host
  /// only ever adds time, so this keeps the traffic's real mix of cheap
  /// and expensive calls while dropping the host's noise.
  std::vector<double> denoised() const {
    std::map<size_t, double> Fastest;
    for (const auto &[Slot, Ms] : Samples) {
      auto [It, New] = Fastest.try_emplace(Slot, Ms);
      if (!New)
        It->second = std::min(It->second, Ms);
    }
    std::vector<double> V;
    for (const auto &Sample : Samples)
      V.push_back(Fastest[Sample.first]);
    return V;
  }

private:
  std::vector<std::pair<size_t, double>> Samples;
};

/// One set-up compile: compileSource, checked; in the traced run also
/// composed layer by layer and reconciled (spans of set-up compiles are
/// discarded: per-layer metrics describe the measured loop).
std::unique_ptr<Module> setupCompile(const std::string &Source,
                                     const PipelineOptions &Opts,
                                     const std::string &Label, bool Trace,
                                     Oracle &O, Latencies &Lat, size_t Slot,
                                     uint64_t &Residual) {
  ++O.Attempted;
  auto T0 = Clock::now();
  CompileResult R = compileSource(Source, Opts);
  Lat.add(Slot, secondsSince(T0) * 1e3);
  if (!R.Success) {
    O.fail(Label, "compile failed: " + R.Diags.render());
    return nullptr;
  }
  if (Trace) {
    SpanRecorder Scratch;
    std::string Why =
        reconcile(composeCompile(Source, Opts, Scratch, 0, 0), R);
    if (!Why.empty())
      O.fail(Label, "traced composition differs: " + Why);
  }
  Residual += countStatic(*R.M).Checks;
  return std::move(R.M);
}

//===-- Execution ---------------------------------------------------------===//

/// The compiled modules of every (program, config) cell; null where the
/// compile failed (already counted as a failed operation).
using ExecGrid = std::vector<std::array<std::unique_ptr<Module>, NumConfigs>>;

/// Per (program, config) execution results, with the per-program rows and
/// the aggregates the end-to-end metrics report.
struct ExecTally {
  explicit ExecTally(size_t NumProgs)
      : Ratios(NumProgs), Times(NumProgs), DynInstrs(NumProgs),
        DynChecks(NumProgs), Seen(NumProgs) {}

  /// Per round, a config's run time over the same round's unchecked run
  /// of the same program (the two ran back to back).
  std::vector<std::array<std::vector<double>, NumConfigs>> Ratios;
  std::vector<std::array<std::vector<double>, NumConfigs>> Times;
  std::vector<std::array<uint64_t, NumConfigs>> DynInstrs, DynChecks;
  std::vector<std::array<bool, NumConfigs>> Seen;

  double ratio(size_t P, ExecConfig C) const { return median(Ratios[P][C]); }
  /// Geometric mean over (program, config) cells of the interpretation
  /// rate of the cell's fastest run. The geometric mean keeps the seeded
  /// time-step multiples from reweighting the programs; the fastest run
  /// is taken because contention from other tenants of a shared host only
  /// ever slows a run, and the interpreter feels it most.
  double opsPerSecond() const {
    std::vector<double> Rates;
    for (size_t P = 0; P != Times.size(); ++P)
      for (unsigned C = 0; C != NumConfigs; ++C)
        if (Seen[P][C] && !Times[P][C].empty())
          Rates.push_back(
              double(DynInstrs[P][C] + DynChecks[P][C]) /
              *std::min_element(Times[P][C].begin(), Times[P][C].end()));
    return geomean(Rates);
  }
  /// Geometric mean over programs of the per-program time ratio.
  double timeRatio(ExecConfig C) const {
    std::vector<double> Rs;
    for (size_t P = 0; P != Ratios.size(); ++P)
      Rs.push_back(ratio(P, C));
    return geomean(Rs);
  }
  double eliminatedPct(size_t P, ExecConfig C) const {
    return DynChecks[P][Naive]
               ? 100.0 * (1.0 - double(DynChecks[P][C]) /
                                    double(DynChecks[P][Naive]))
               : 0;
  }
  /// Arithmetic mean over programs of the per-program percentage.
  double eliminatedPct(ExecConfig C) const {
    double Sum = 0;
    for (size_t P = 0; P != DynChecks.size(); ++P)
      Sum += eliminatedPct(P, C);
    return Sum / double(DynChecks.size());
  }
};

/// Runs every cell once: programs in a seeded order, and each program's
/// four configs back to back in a seeded order, so a checked run and the
/// unchecked run it is compared with share the machine's state. Then
/// checks each checked run's output against the unchecked run's. With
/// \p Spans set, each cell runs twice, untraced (tallied, appended to
/// \p RefSeconds) and traced (spans), alternating which goes first.
void runExecRound(const std::vector<Program> &Ps, const ExecGrid &Grid,
                  Rng &R, ExecTally &T, Oracle &O, SpanRecorder *Spans,
                  uint32_t &NextOp, std::vector<double> *RefSeconds) {
  for (size_t P : shuffledIndices(Ps.size(), R)) {
    std::array<std::vector<std::string>, NumConfigs> Out;
    std::array<double, NumConfigs> Secs{};
    std::array<bool, NumConfigs> Ok{};
    for (size_t Cfg : shuffledIndices(NumConfigs, R)) {
      const Module *M = Grid[P][Cfg].get();
      if (!M)
        continue;
      std::string Label = Ps[P].Name + "/" + ConfigNames[Cfg];
      ++O.Attempted;
      uint32_t Op = NextOp++;
      auto Traced = [&] {
        uint32_t Root = Spans->begin(SpanKind::Op, 0, Op);
        {
          ScopedSpan S(*Spans, SpanKind::Interpret, Root, Op);
          ExecResult E = interpret(*M);
          S.count(E.DynInstrs + E.DynChecks);
        }
        Spans->end(Root);
        Spans->setLabel(Root, Label);
      };
      if (Spans && Op % 2)
        Traced();
      auto T0 = Clock::now();
      ExecResult E = interpret(*M);
      Secs[Cfg] = secondsSince(T0);
      if (Spans && Op % 2 == 0)
        Traced();
      if (RefSeconds)
        RefSeconds->push_back(Secs[Cfg]);

      T.Times[P][Cfg].push_back(Secs[Cfg]);
      Ok[Cfg] = E.ok();
      if (!E.ok()) {
        O.fail(Label, "interpret status " + std::to_string(int(E.St)) + " " +
                          E.FaultMessage);
      } else if (!T.Seen[P][Cfg]) {
        T.Seen[P][Cfg] = true;
        T.DynInstrs[P][Cfg] = E.DynInstrs;
        T.DynChecks[P][Cfg] = E.DynChecks;
      } else if (T.DynInstrs[P][Cfg] != E.DynInstrs ||
                 T.DynChecks[P][Cfg] != E.DynChecks) {
        O.fail(Label, "dynamic counts differ between identical runs");
        Ok[Cfg] = false;
      }
      Out[Cfg] = std::move(E.Output);
    }
    if (!Ok[Unchecked])
      continue;
    for (size_t Cfg = Naive; Cfg != NumConfigs; ++Cfg) {
      if (!Ok[Cfg])
        continue;
      if (Out[Cfg] != Out[Unchecked])
        O.fail(Ps[P].Name + "/" + ConfigNames[Cfg],
               "printed output differs from the unchecked run");
      else
        T.Ratios[P][Cfg].push_back(Secs[Cfg] / Secs[Unchecked]);
    }
  }
}

/// Compiles every (program, config) cell; the set-up of every workload.
ExecGrid compileExecGrid(const std::vector<Program> &Ps, bool Trace,
                         Oracle &O, Latencies &Lat,
                         uint64_t &Residual) {
  ExecGrid Grid(Ps.size());
  for (size_t P = 0; P != Ps.size(); ++P)
    for (unsigned C = 0; C != NumConfigs; ++C)
      Grid[P][C] = setupCompile(Ps[P].Source, execOptions(ExecConfig(C)),
                                Ps[P].Name + "/" + ConfigNames[C], Trace, O,
                                Lat, P * NumConfigs + C, Residual);
  return Grid;
}

void printProgramRows(const std::vector<Program> &Ps, const ExecTally &T,
                      const char *Source) {
  std::printf("per-program rows (%s): time ratio vs unchecked, dynamic "
              "checks eliminated vs naive\n",
              Source);
  std::printf("  %-9s %4s %5s %12s %8s %8s %8s %8s %8s\n", "program", "x",
              "runs", "unchecked_ms", "naive", "NI", "LLS", "NI%", "LLS%");
  for (size_t P = 0; P != Ps.size(); ++P)
    std::printf("  %-9s %4u %5zu %12.3f %8.3f %8.3f %8.3f %8.2f %8.2f\n",
                Ps[P].Name.c_str(), Ps[P].StepMultiple,
                T.Times[P][Unchecked].size(),
                median(T.Times[P][Unchecked]) * 1e3, T.ratio(P, Naive),
                T.ratio(P, NI), T.ratio(P, LLS), T.eliminatedPct(P, NI),
                T.eliminatedPct(P, LLS));
  std::printf("  %-9s %4s %5s %12s %8.3f %8.3f %8.3f %8.2f %8.2f  "
              "(geomean / mean)\n",
              "all", "", "", "", T.timeRatio(Naive), T.timeRatio(NI),
              T.timeRatio(LLS), T.eliminatedPct(NI), T.eliminatedPct(LLS));
}

void addExecMetrics(MetricMap &M, const ExecTally &T) {
  M["exec_ops_per_s"] = {T.opsPerSecond(), "1/s"};
  for (ExecConfig C : {Naive, NI, LLS})
    M[std::string("checked_time_ratio.") + ConfigNames[C]] = {
        T.timeRatio(C), "ratio"};
  for (ExecConfig C : {NI, LLS})
    M[std::string("dyn_checks_eliminated_pct.") + ConfigNames[C]] = {
        T.eliminatedPct(C), "%"};
}

void addCompileMetrics(MetricMap &M, const Latencies &Lat) {
  std::vector<double> V = Lat.denoised();
  double TotalMs = 0;
  for (double X : V)
    TotalMs += X;
  M["compile_cells_per_s"] = {TotalMs > 0 ? 1e3 * double(V.size()) / TotalMs
                                          : 0,
                              "1/s"};
  M["compile_cell_p50_ms"] = {quantile(V, 0.50), "ms"};
  M["compile_cell_p99_ms"] = {quantile(V, 0.99), "ms"};
}

//===-- Per-layer metrics -------------------------------------------------===//

constexpr const char *Layers[] = {"bench", "lang",  "frontend",
                                  "ir",    "checks", "opt",
                                  "audit", "interp", "cache"};

/// What a workload's traced loop measured besides its spans. Every field
/// stays zero where the loop does no such work.
struct LayerInputs {
  /// Per span kind, the summed boundary counts of the first pass.
  std::array<uint64_t, size_t(SpanKind::NumKinds)> Pass0Counts{};
  /// StatRegistry growth over the first pass's traced compiles.
  obs::StatSnapshot::FlatMap Pass0Work;
  /// The cache's counters at the end of the first pass.
  cache::ArtifactCache::Stats Pass0Cache;
  /// Untraced compile latencies, split by frontend-tier hit or miss.
  std::vector<double> HitMs, MissMs;
  /// Untraced seconds of the operations the spans repeat.
  double RefSeconds = 0;
  size_t CompileSamples = 0;
  /// The loop's executions; null when the loop executes nothing.
  const ExecTally *Exec = nullptr;

  void addPass0Counts(const SpanRecorder &Spans, size_t FirstSpan) {
    const auto &All = Spans.spans();
    for (size_t I = FirstSpan; I != All.size(); ++I)
      Pass0Counts[size_t(All[I].Kind)] += All[I].Count;
  }
};

double mean(const std::vector<double> &V) {
  double Sum = 0;
  for (double X : V)
    Sum += X;
  return V.empty() ? 0 : Sum / double(V.size());
}

/// Every per-layer metric: self times and shares from the spans, counts
/// from \p In, and the per-program rows of \p Rows.
void addLayerMetrics(MetricMap &M, const SpanRecorder &Spans,
                     const LayerInputs &In, const std::vector<Program> &Ps,
                     const ExecTally &Rows) {
  std::vector<int64_t> Self = Spans.selfTimesNs();
  std::array<double, size_t(SpanKind::NumKinds)> KindNs{};
  std::map<std::string, double> LayerNs;
  double OpNs = 0, Ops = 0, Findings = 0;
  std::array<double, NumConfigs> InterpNs{}, InterpCalls{};
  double InterpOps = 0, InterpTotalNs = 0;
  const auto &All = Spans.spans();
  for (size_t I = 0; I != All.size(); ++I) {
    const Span &S = All[I];
    double Ns = double(S.EndNs - S.StartNs);
    KindNs[size_t(S.Kind)] += double(Self[I]);
    LayerNs[spanLayer(S.Kind)] += double(Self[I]);
    if (S.Kind == SpanKind::Op) {
      OpNs += Ns;
      Ops += 1;
    } else if (S.Kind == SpanKind::Audit) {
      Findings += double(S.Count);
    } else if (S.Kind == SpanKind::Interpret) {
      // The op label ends in the configuration: "<program>/<config>".
      const std::string &Label = Spans.label(Spans.span(S.Parent));
      std::string Cfg = Label.substr(Label.rfind('/') + 1);
      for (unsigned C = 0; C != NumConfigs; ++C)
        if (Cfg == ConfigNames[C]) {
          InterpNs[C] += Ns;
          InterpCalls[C] += 1;
        }
      InterpOps += double(S.Count);
      InterpTotalNs += Ns;
    }
  }

  for (const char *L : Layers)
    M[std::string("self_pct.") + L] = {
        OpNs > 0 ? 100.0 * LayerNs[L] / OpNs : 0, "%"};
  auto PerOpMs = [&](SpanKind K) {
    return Ops > 0 ? KindNs[size_t(K)] / Ops / 1e6 : 0;
  };
  auto Pass0 = [&](SpanKind K) { return double(In.Pass0Counts[size_t(K)]); };
  M["lang.parse_ms"] = {PerOpMs(SpanKind::Parse), "ms"};
  M["lang.sema_ms"] = {PerOpMs(SpanKind::Sema), "ms"};
  M["lang.source_bytes"] = {Pass0(SpanKind::Parse), "bytes"};
  M["frontend.lower_ms"] = {PerOpMs(SpanKind::Lower), "ms"};
  M["frontend.naive_checks"] = {Pass0(SpanKind::Lower), "count"};
  M["ir.verify_ms"] = {PerOpMs(SpanKind::Verify) +
                           PerOpMs(SpanKind::VerifyPost),
                       "ms"};
  M["ir.verify_post_ms"] = {PerOpMs(SpanKind::VerifyPost), "ms"};
  M["checks.inx_ms"] = {PerOpMs(SpanKind::Inx), "ms"};
  M["opt.optimize_ms"] = {PerOpMs(SpanKind::Optimize), "ms"};
  M["opt.residual_checks"] = {Pass0(SpanKind::Optimize), "count"};
  for (const char *K : {"dataflow.block_visits", "support.bitvector.word_ops",
                        "opt.context.builds"}) {
    auto It = In.Pass0Work.find(K);
    M[std::string("work.") + K] = {
        It == In.Pass0Work.end() ? 0 : double(It->second), "count"};
  }
  M["audit.snapshot_ms"] = {PerOpMs(SpanKind::Snapshot), "ms"};
  M["audit.audit_ms"] = {PerOpMs(SpanKind::Audit), "ms"};
  M["audit.findings"] = {Findings, "count"};

  for (unsigned C = 0; C != NumConfigs; ++C) {
    uint64_t Instrs = 0, Checks = 0;
    for (size_t P = 0; In.Exec && P != Ps.size(); ++P) {
      Instrs += In.Exec->DynInstrs[P][C];
      Checks += In.Exec->DynChecks[P][C];
    }
    std::string Cfg = ConfigNames[C];
    M["interp.exec_ms." + Cfg] = {
        InterpCalls[C] > 0 ? InterpNs[C] / InterpCalls[C] / 1e6 : 0, "ms"};
    M["interp.dyn_instrs." + Cfg] = {double(Instrs), "count"};
    M["interp.dyn_checks." + Cfg] = {double(Checks), "count"};
  }
  M["interp.ns_per_op"] = {InterpOps > 0 ? InterpTotalNs / InterpOps : 0,
                           "ns"};

  const cache::ArtifactCache::Stats &CS = In.Pass0Cache;
  double FrontLookups = double(CS.FrontendHits + CS.FrontendMisses);
  double AnaLookups = double(CS.analysisHits() + CS.analysisMisses());
  M["cache.frontend_lookups"] = {FrontLookups, "count"};
  M["cache.frontend_hit_ratio"] = {
      FrontLookups > 0 ? double(CS.FrontendHits) / FrontLookups : 0, "ratio"};
  M["cache.analysis_lookups"] = {AnaLookups, "count"};
  M["cache.analysis_hit_ratio"] = {
      AnaLookups > 0 ? double(CS.analysisHits()) / AnaLookups : 0, "ratio"};
  M["cache.bytes"] = {double(CS.Bytes), "bytes"};
  M["cache.lookup_ms"] = {PerOpMs(SpanKind::CacheLookup) +
                              PerOpMs(SpanKind::CacheStore),
                          "ms"};
  M["cache.hit_cell_ms"] = {mean(In.HitMs), "ms"};
  M["cache.miss_cell_ms"] = {mean(In.MissMs), "ms"};

  for (size_t P = 0; P != Ps.size(); ++P)
    for (ExecConfig C : {Naive, NI, LLS})
      M["program." + Ps[P].Name + ".checked_time_ratio." + ConfigNames[C]] = {
          Rows.ratio(P, C), "ratio"};

  M["compile.samples"] = {double(In.CompileSamples), "count"};
  M["trace.ops"] = {Ops, "count"};
  M["trace.spans"] = {double(All.size()), "count"};
  M["trace.overhead_pct"] = {
      In.RefSeconds > 0 ? 100.0 * (OpNs / 1e9 / In.RefSeconds - 1) : 0, "%"};
}

//===-- Workloads ---------------------------------------------------------===//

struct RunContext {
  Args A;
  Oracle O;
  MetricMap E2E;   // --trace 0
  MetricMap Layer; // --trace 1
  std::unique_ptr<SpanRecorder> Spans;
  CpuPicker Cpu;
};

/// The set-up is repeated at least MinSetupReps times and until it has
/// taken MinSetupSeconds in total (at most MaxSetupReps); setup_s is the
/// median of the repetitions.
constexpr unsigned MinSetupReps = 5, MaxSetupReps = 50;
constexpr double MinSetupSeconds = 1.0;

bool moreSetup(const std::vector<double> &SetupSecs) {
  double Total = 0;
  for (double X : SetupSecs)
    Total += X;
  return SetupSecs.size() < MinSetupReps ||
         (Total < MinSetupSeconds && SetupSecs.size() < MaxSetupReps);
}
/// Seconds between two rounds of the sweeps' reference probe.
constexpr double ProbeInterval = 0.5;

/// The two sweeps. Their set-up loads the programs, builds and orders the
/// cells, and compiles the ten programs at base size under the four
/// execution configs: the reference probe. Between passes, at most every
/// ProbeInterval seconds, the loop runs one probe round. The probe is what
/// the checked-output oracle runs on and where a sweep's execution metrics
/// come from; spreading its rounds over the run makes those metrics see
/// the same host as the compile samples. Probe time is not compile time:
/// the compile metrics come from per-call samples.
void runSweep(RunContext &Ctx, bool Cached) {
  const Args &A = Ctx.A;
  Oracle &O = Ctx.O;
  Rng R(A.Seed);
  // Probe rounds follow the clock, so they draw from their own generator
  // and leave the pass orders a function of the seed alone.
  Rng ProbeOrder(~A.Seed);

  std::vector<Program> Ps;
  std::vector<CompileCell> Cells;
  std::vector<double> SetupSecs;
  Latencies ProbeLat; // not reported: a sweep's compile metrics are its loop's
  ExecTally Probe(benchmarkSuite().size());
  uint64_t ProbeResidual = 0;
  uint32_t ProbeOps = 0;
  ExecGrid Grid;
  while (moreSetup(SetupSecs)) {
    Grid.clear();
    Ctx.Cpu.pick();
    auto T0 = Clock::now();
    Ps = loadSuite();
    Cells = sweepCells(Ps, Cached);
    ProbeResidual = 0;
    Grid = compileExecGrid(Ps, A.Trace, O, ProbeLat, ProbeResidual);
    SetupSecs.push_back(secondsSince(T0));
  }

  // Closed loop: whole passes over the cells, each in a fresh seeded order
  // (and, cached, against a fresh cache) until the time is up.
  Latencies CellMs;
  std::vector<uint64_t> Residual(Cells.size());
  uint64_t Pass0Residual = 0;
  SpanRecorder *Spans = Ctx.Spans.get();
  LayerInputs In;
  uint32_t NextOp = 0;
  double Paused = 0;
  auto Loop0 = Clock::now();
  auto LastProbe = Loop0;
  for (unsigned Pass = 0;
       Pass == 0 || secondsSince(Loop0) - Paused < A.Seconds; ++Pass) {
    if (Pass == 0 || secondsSince(LastProbe) >= ProbeInterval) {
      Paused += Ctx.Cpu.pickIfDue();
      runExecRound(Ps, Grid, ProbeOrder, Probe, O, nullptr, ProbeOps,
                   nullptr);
      LastProbe = Clock::now();
    }
    std::vector<size_t> Order = shuffledIndices(Cells.size(), R);
    std::unique_ptr<cache::ArtifactCache> Cache, TracedCache;
    if (Cached) {
      Cache = std::make_unique<cache::ArtifactCache>();
      TracedCache = std::make_unique<cache::ArtifactCache>();
    }
    for (size_t Idx : Order) {
      Paused += Ctx.Cpu.pickIfDue();
      const CompileCell &C = Cells[Idx];
      const std::string &Src = Ps[C.Prog].Source;
      PipelineOptions Opts = C.Opts;
      Opts.Cache.Cache = Cache.get();
      ++O.Attempted;
      uint32_t Op = NextOp++;

      // The traced run composes the layers itself (spans), and runs
      // compileSource too as the reference it must reconcile with.
      ComposedResult Composed;
      auto Traced = [&] {
        PipelineOptions TOpts = C.Opts;
        TOpts.Cache.Cache = TracedCache.get();
        obs::StatSnapshot Before;
        if (Pass == 0)
          Before = obs::StatRegistry::global().snapshot();
        size_t First = Spans->spans().size();
        uint32_t Root = Spans->begin(SpanKind::Op, 0, Op);
        Composed = composeCompile(Src, TOpts, *Spans, Root, Op);
        Spans->end(Root);
        Spans->setLabel(Root, C.Label);
        if (Pass == 0) {
          for (const auto &[K, V] :
               obs::StatRegistry::global().snapshot().deltaFrom(Before))
            In.Pass0Work[K] += V;
          In.addPass0Counts(*Spans, First);
        }
      };
      if (Spans && Op % 2)
        Traced();
      cache::ArtifactCache::Stats S0;
      if (Cache)
        S0 = Cache->stats();
      auto T0 = Clock::now();
      CompileResult Res = compileSource(Src, Opts);
      double Ms = secondsSince(T0) * 1e3;
      if (Spans && Op % 2 == 0)
        Traced();
      bool Hit = Cache && Cache->stats().FrontendHits > S0.FrontendHits;
      CellMs.add(2 * Idx + Hit, Ms);
      if (Cache)
        (Hit ? In.HitMs : In.MissMs).push_back(Ms);

      if (!Res.Success) {
        O.fail(C.Label, "compile failed: " + Res.Diags.render());
        continue;
      }
      if (Res.Audit.numFindings())
        O.fail(C.Label, std::to_string(Res.Audit.numFindings()) +
                            " audit findings");
      if (Spans) {
        In.RefSeconds += Ms / 1e3;
        std::string Why = reconcile(Composed, Res);
        if (!Why.empty())
          O.fail(C.Label, "traced composition differs: " + Why);
      }
      uint64_t Checks = countStatic(*Res.M).Checks;
      if (Pass == 0) {
        Residual[Idx] = Checks;
        Pass0Residual += Checks;
      } else if (Residual[Idx] != Checks) {
        O.fail(C.Label, "residual checks differ between passes");
      }
    }
    if (Pass == 0 && Cache)
      In.Pass0Cache = Cache->stats();
  }
  double LoopSecs = secondsSince(Loop0) - Paused;

  MetricMap &E = Ctx.E2E;
  E["setup_s"] = {median(SetupSecs), "s"};
  addCompileMetrics(E, CellMs);
  E["static_checks_residual"] = {double(Pass0Residual), "count"};
  addExecMetrics(E, Probe);
  printProgramRows(Ps, Probe, "reference probe, base sizes");
  std::printf("compile cells timed: %zu over %.2f s (p99 has %zu samples "
              "beyond it)\n",
              CellMs.size(), LoopSecs, CellMs.size() / 100);

  if (Spans) {
    In.CompileSamples = CellMs.size();
    addLayerMetrics(Ctx.Layer, *Spans, In, Ps, Probe);
  }
}

/// execute-scaled. Set-up scales each program's time-step inputs by a
/// seeded multiple and compiles it under the four execution configs; the
/// loop then interprets the forty modules round after round, each round
/// in a fresh seeded order.
void runExecute(RunContext &Ctx) {
  const Args &A = Ctx.A;
  Oracle &O = Ctx.O;
  Rng R(A.Seed);
  std::vector<unsigned> Multiples;
  for (size_t P = 0; P != benchmarkSuite().size(); ++P)
    Multiples.push_back(4 + unsigned(R.below(3)));

  std::vector<Program> Ps;
  ExecGrid Grid;
  std::vector<double> SetupSecs;
  Latencies CompileMs;
  uint64_t Residual = 0;
  while (moreSetup(SetupSecs)) {
    Grid.clear();
    Ctx.Cpu.pick();
    auto T0 = Clock::now();
    Ps = loadSuite();
    for (size_t P = 0; P != Ps.size(); ++P)
      if (scaleTimeSteps(Ps[P].Source, Multiples[P]))
        Ps[P].StepMultiple = Multiples[P];
    Residual = 0;
    Grid = compileExecGrid(Ps, A.Trace, O, CompileMs, Residual);
    SetupSecs.push_back(secondsSince(T0));
  }

  ExecTally T(Ps.size());
  SpanRecorder *Spans = Ctx.Spans.get();
  std::vector<double> RefSecs;
  uint32_t NextOp = 0;
  double Paused = 0;
  auto Loop0 = Clock::now();
  for (unsigned Round = 0;
       Round == 0 || secondsSince(Loop0) - Paused < A.Seconds; ++Round) {
    Paused += Ctx.Cpu.pickIfDue();
    runExecRound(Ps, Grid, R, T, O, Spans, NextOp, &RefSecs);
  }

  MetricMap &E = Ctx.E2E;
  E["setup_s"] = {median(SetupSecs), "s"};
  addCompileMetrics(E, CompileMs);
  E["static_checks_residual"] = {double(Residual), "count"};
  addExecMetrics(E, T);
  printProgramRows(Ps, T, "measured loop, scaled time steps");

  if (Spans) {
    LayerInputs In;
    for (double X : RefSecs)
      In.RefSeconds += X;
    In.CompileSamples = CompileMs.size();
    In.Exec = &T;
    addLayerMetrics(Ctx.Layer, *Spans, In, Ps, T);
  }
}

} // namespace

int main(int Argc, char **Argv) {
  RunContext Ctx;
  if (!parseArgs(Argc, Argv, Ctx.A))
    return 2;
  const Args &A = Ctx.A;
  if (A.Trace)
    Ctx.Spans = std::make_unique<SpanRecorder>();
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              A.Workload.c_str(), static_cast<unsigned long long>(A.Seed),
              A.Seconds, A.Trace ? 1 : 0);

  if (A.Workload == "execute-scaled")
    runExecute(Ctx);
  else
    runSweep(Ctx, A.Workload == "cached-sweep");

  MetricMap &Out = A.Trace ? Ctx.Layer : Ctx.E2E;
  double Attempted = double(Ctx.O.Attempted);
  Ctx.E2E["ok_op_ratio"] = {
      Attempted > 0 ? (Attempted - double(Ctx.O.Failed)) / Attempted : 0,
      "ratio"};
  Ctx.E2E["peak_rss_mb"] = {peakRssMb(), "MB"};
  Ctx.Layer["failed_op_ratio"] = {
      Attempted > 0 ? double(Ctx.O.Failed) / Attempted : 0, "ratio"};

  if (A.Trace && !A.SpanFile.empty()) {
    std::string Err;
    std::map<std::string, std::string> Meta = {
        {"workload", A.Workload},
        {"seed", std::to_string(A.Seed)},
        {"seconds", std::to_string(int(A.Seconds))}};
    if (!Ctx.Spans->writeChromeTrace(A.SpanFile, Meta, Err)) {
      std::fprintf(stderr, "perfbench: %s\n", Err.c_str());
      return 1;
    }
    std::printf("spans: %zu written to %s\n", Ctx.Spans->spans().size(),
                A.SpanFile.c_str());
  }
  std::fflush(stdout);
  printResult(Ctx.O, Out);
  return 0;
}
