#include "Spans.h"

#include <iterator>
#include <cstdio>
#include <memory>

using namespace perfbench;

namespace {

struct KindInfo {
  const char *Name;
  const char *Layer;
};

constexpr KindInfo Kinds[] = {
    {"op", "bench"},           {"parse", "lang"},
    {"sema", "lang"},          {"lower", "frontend"},
    {"verify", "ir"},          {"inx", "checks"},
    {"snapshot", "audit"},     {"optimize", "opt"},
    {"verify-post", "ir"},     {"audit", "audit"},
    {"interpret", "interp"},   {"cache-lookup", "cache"},
    {"cache-store", "cache"},
};
static_assert(std::size(Kinds) == size_t(SpanKind::NumKinds),
              "one entry per SpanKind");

void writeEscaped(std::FILE *F, const std::string &S) {
  std::fputc('"', F);
  for (char C : S) {
    if (C == '"' || C == '\\')
      std::fputc('\\', F);
    if (static_cast<unsigned char>(C) < 0x20)
      std::fprintf(F, "\\u%04x", C);
    else
      std::fputc(C, F);
  }
  std::fputc('"', F);
}

} // namespace

const char *perfbench::spanName(SpanKind K) {
  return Kinds[size_t(K)].Name;
}

const char *perfbench::spanLayer(SpanKind K) {
  return Kinds[size_t(K)].Layer;
}

void SpanRecorder::setLabel(uint32_t Handle, const std::string &Label) {
  // Operations repeat the same few hundred cells, so labels are interned.
  auto [It, New] =
      LabelIds.try_emplace(Label, static_cast<uint32_t>(Labels.size()));
  if (New)
    Labels.push_back(Label);
  Spans[Handle - 1].Label = It->second;
}

std::vector<int64_t> SpanRecorder::selfTimesNs() const {
  std::vector<int64_t> Self(Spans.size());
  for (size_t I = 0; I != Spans.size(); ++I)
    Self[I] += Spans[I].EndNs - Spans[I].StartNs;
  for (const Span &S : Spans)
    if (S.Parent)
      Self[S.Parent - 1] -= S.EndNs - S.StartNs;
  return Self;
}

bool SpanRecorder::writeChromeTrace(
    const std::string &Path, const std::map<std::string, std::string> &Meta,
    std::string &Err) const {
  std::unique_ptr<std::FILE, int (*)(std::FILE *)> F(
      std::fopen(Path.c_str(), "w"), &std::fclose);
  if (!F) {
    Err = "cannot open " + Path;
    return false;
  }
  std::fputs("{\"otherData\":{", F.get());
  bool First = true;
  for (const auto &[K, V] : Meta) {
    if (!First)
      std::fputc(',', F.get());
    First = false;
    writeEscaped(F.get(), K);
    std::fputc(':', F.get());
    writeEscaped(F.get(), V);
  }
  std::fputs("},\n\"traceEvents\":[\n", F.get());
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F.get(),
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%u,\"op\":%u,\"count\":%llu",
                 I ? ",\n" : "", spanName(S.Kind), spanLayer(S.Kind),
                 S.StartNs / 1e3, (S.EndNs - S.StartNs) / 1e3, I + 1,
                 S.Parent, S.Op, static_cast<unsigned long long>(S.Count));
    if (S.Label) {
      std::fputs(",\"label\":", F.get());
      writeEscaped(F.get(), Labels[S.Label]);
    }
    std::fputs("}}", F.get());
  }
  std::fputs("\n]}\n", F.get());
  if (std::ferror(F.get()) || std::fflush(F.get()) != 0) {
    Err = "cannot write " + Path;
    return false;
  }
  return true;
}
