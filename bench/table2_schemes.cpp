//===----------------------------------------------------------------------===//
///
/// \file
/// Reproduces Table 2 of the paper: percentage of dynamic range checks
/// eliminated by the seven check placement schemes (NI, CS, LNI, SE, LI,
/// LLS, ALL) on both kinds of checks (PRX and INX), plus the compile-time
/// cost columns ("Range" = optimizer wall seconds, "Total" = whole
/// pipeline wall seconds, summed over the ten programs).
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "support/StringUtils.h"

#include <cstdio>

using namespace nascent;
using namespace nascent::bench;

int main(int argc, char **argv) {
  BenchFlags Flags;
  if (!parseBenchFlags(argc, argv, Flags))
    return 2;
  std::vector<SuiteProgram> Suite = benchSuite(Flags);

  const PlacementScheme Schemes[] = {
      PlacementScheme::NI, PlacementScheme::CS,  PlacementScheme::LNI,
      PlacementScheme::SE, PlacementScheme::LI,  PlacementScheme::LLS,
      PlacementScheme::ALL};

  obs::JsonWriter W;
  if (Flags.Json) {
    beginBenchDocument(W, "table2_schemes", Flags);
    W.key("runs");
    W.beginArray();
  } else {
    std::printf("Table 2: percentage of checks eliminated by the placement "
                "schemes, and compilation time\n\n");
  }

  // Measure the whole (source, scheme, program) matrix up front — fanned
  // across --jobs workers — then emit rows from the ordered results.
  const CheckSource Sources[] = {CheckSource::PRX, CheckSource::INX};
  std::vector<SweepConfig> Configs;
  for (CheckSource Source : Sources)
    for (PlacementScheme Scheme : Schemes)
      for (const SuiteProgram &P : Suite)
        Configs.push_back({P, Source, Scheme, ImplicationMode::All});
  std::vector<MeasuredRun> Measured = sweepMeasure(Configs, Flags);

  size_t Next = 0;
  for (CheckSource Source : Sources) {
    std::vector<std::string> Header = {"scheme"};
    for (const SuiteProgram &P : Suite)
      Header.push_back(P.Name);
    Header.push_back("Range(s)");
    Header.push_back("Total(s)");
    TextTable T(std::move(Header));

    for (PlacementScheme Scheme : Schemes) {
      std::vector<std::string> Row = {placementSchemeName(Scheme)};
      double RangeSecs = 0, TotalSecs = 0;
      for (const SuiteProgram &P : Suite) {
        const RunResult &Naive = naiveBaseline(P, Source);
        const MeasuredRun &Opt = Measured[Next++];
        if (Flags.Json) {
          W.beginObject();
          W.kv("source", checkSourceName(Source));
          W.kv("scheme", placementSchemeName(Scheme));
          W.key("run");
          writeRunJson(W, P.Name, Naive, Opt);
          W.endObject();
        }
        Row.push_back(
            formatString("%.2f", percentEliminated(Naive, Opt.Run)));
        RangeSecs += Opt.Run.OptimizeWallSeconds;
        TotalSecs += Opt.Run.TotalWallSeconds;
      }
      Row.push_back(formatString("%.3f", RangeSecs));
      Row.push_back(formatString("%.3f", TotalSecs));
      T.addRow(std::move(Row));
    }
    if (!Flags.Json) {
      std::printf("%s-Checks:\n", checkSourceName(Source));
      std::printf("%s\n", T.render().c_str());
    }
  }

  if (Flags.Json) {
    W.endArray();
    endBenchDocument(W);
    std::printf("%s\n", W.str().c_str());
    return 0;
  }

  std::printf(
      "Shape expectations from the paper: NI/CS/LNI/SE close together; LI\n"
      ">= NI (equal for PRX in the paper); LLS eliminates the vast majority\n"
      "of checks; ALL adds almost nothing over LLS; NI is the cheapest and\n"
      "the PRE-based schemes the most expensive to run.\n");
  return 0;
}
