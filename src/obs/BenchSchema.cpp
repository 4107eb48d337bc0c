#include "obs/BenchSchema.h"

#include "obs/Json.h"

#include <cstdio>
#include <fstream>
#include <thread>

#ifndef NASCENT_COMPILER_ID
#define NASCENT_COMPILER_ID "unknown"
#endif
#ifndef NASCENT_BUILD_TYPE
#define NASCENT_BUILD_TYPE "unknown"
#endif
#ifndef NASCENT_CXX_FLAGS
#define NASCENT_CXX_FLAGS ""
#endif
#ifndef NASCENT_SANITIZE_CONFIG
#define NASCENT_SANITIZE_CONFIG ""
#endif

using namespace nascent;
using namespace nascent::obs;

namespace {

std::string firstLineOfCommand(const char *Cmd) {
  FILE *P = popen(Cmd, "r");
  if (!P)
    return "";
  char Buf[256] = {};
  std::string Out;
  if (std::fgets(Buf, sizeof(Buf), P))
    Out = Buf;
  pclose(P);
  while (!Out.empty() && (Out.back() == '\n' || Out.back() == '\r'))
    Out.pop_back();
  return Out;
}

std::string cpuModel() {
  std::ifstream In("/proc/cpuinfo");
  std::string Line;
  while (std::getline(In, Line)) {
    size_t Colon = Line.find(':');
    if (Colon == std::string::npos)
      continue;
    if (Line.compare(0, 10, "model name") == 0) {
      size_t Start = Line.find_first_not_of(" \t", Colon + 1);
      return Start == std::string::npos ? "" : Line.substr(Start);
    }
  }
  return "unknown";
}

} // namespace

BenchEnv nascent::obs::captureBenchEnv() {
  BenchEnv Env;
  Env.Compiler = NASCENT_COMPILER_ID;
  Env.BuildType = NASCENT_BUILD_TYPE;
  Env.CxxFlags = NASCENT_CXX_FLAGS;
  Env.Sanitize = NASCENT_SANITIZE_CONFIG;
  Env.GitSha = firstLineOfCommand("git rev-parse HEAD 2>/dev/null");
  if (Env.GitSha.empty())
    Env.GitSha = "unknown";
  Env.Cpu = cpuModel();
  Env.HardwareThreads = std::thread::hardware_concurrency();
  return Env;
}

void nascent::obs::writeBenchEnv(JsonWriter &W, const BenchEnv &Env) {
  W.beginObject();
  W.kv("compiler", Env.Compiler);
  W.kv("buildType", Env.BuildType);
  W.kv("cxxFlags", Env.CxxFlags);
  W.kv("sanitize", Env.Sanitize);
  W.kv("gitSha", Env.GitSha);
  W.kv("cpu", Env.Cpu);
  W.kv("hardwareThreads", Env.HardwareThreads);
  W.endObject();
}

bool nascent::obs::readBenchEnv(const JsonValue &V, BenchEnv &Out) {
  if (!V.isObject())
    return false;
  auto Str = [&V](const char *Key, std::string &Dst) {
    if (const JsonValue *F = V.get(Key); F && F->isString())
      Dst = F->String;
  };
  Str("compiler", Out.Compiler);
  Str("buildType", Out.BuildType);
  Str("cxxFlags", Out.CxxFlags);
  Str("sanitize", Out.Sanitize);
  Str("gitSha", Out.GitSha);
  Str("cpu", Out.Cpu);
  if (const JsonValue *F = V.get("hardwareThreads"); F && F->isNumber())
    Out.HardwareThreads = static_cast<uint64_t>(F->Number);
  return true;
}

namespace {

bool fail(std::string *Err, const std::string &Msg) {
  if (Err)
    *Err = Msg;
  return false;
}

bool validateRunObject(const JsonValue &Run, size_t Index,
                       std::string *Err) {
  auto At = [Index](const std::string &What) {
    return What + " in runs[" + std::to_string(Index) + "]";
  };
  if (!Run.isObject())
    return fail(Err, At("non-object run"));
  const JsonValue *Program = Run.get("program");
  if (!Program || !Program->isString())
    return fail(Err, At("missing string field 'program'"));
  for (const char *Key : {"dynChecks", "dynInstrs", "staticChecks"}) {
    const JsonValue *F = Run.get(Key);
    if (!F || !F->isNumber())
      return fail(Err, At(std::string("missing numeric field '") + Key +
                          "'"));
  }
  for (const char *Key : {"stats", "timing", "work"}) {
    const JsonValue *F = Run.get(Key);
    if (!F || !F->isObject())
      return fail(Err,
                  At(std::string("missing object field '") + Key + "'"));
  }
  return true;
}

} // namespace

bool nascent::obs::validateBenchDocument(const JsonValue &Doc,
                                         std::string *Err) {
  if (!Doc.isObject())
    return fail(Err, "document is not a JSON object");

  const JsonValue *Version = Doc.get("schemaVersion");
  if (!Version || !Version->isNumber())
    return fail(Err, "missing numeric field 'schemaVersion'");
  if (Version->Number != static_cast<double>(BenchSchemaVersion))
    return fail(Err, "unknown schemaVersion " +
                         std::to_string(Version->Number) + " (expected " +
                         std::to_string(BenchSchemaVersion) + ")");

  const JsonValue *Harness = Doc.get("harness");
  if (!Harness || !Harness->isString())
    return fail(Err, "missing string field 'harness'");

  const JsonValue *Env = Doc.get("env");
  if (!Env || !Env->isObject())
    return fail(Err, "missing object field 'env'");
  for (const char *Key :
       {"compiler", "buildType", "gitSha", "cpu", "sanitize"}) {
    const JsonValue *F = Env->get(Key);
    if (!F || !F->isString())
      return fail(Err,
                  std::string("env missing string field '") + Key + "'");
  }
  if (const JsonValue *F = Env->get("hardwareThreads");
      !F || !F->isNumber())
    return fail(Err, "env missing numeric field 'hardwareThreads'");

  const JsonValue *Config = Doc.get("config");
  if (!Config || !Config->isObject())
    return fail(Err, "missing object field 'config'");
  for (const char *Key : {"reps", "warmup"}) {
    const JsonValue *F = Config->get(Key);
    if (!F || !F->isNumber())
      return fail(Err,
                  std::string("config missing numeric field '") + Key +
                      "'");
  }

  const JsonValue *Runs = Doc.get("runs");
  if (!Runs || !Runs->isArray())
    return fail(Err, "missing array field 'runs'");
  for (size_t I = 0; I != Runs->Array.size(); ++I) {
    const JsonValue &Elem = Runs->Array[I];
    if (!Elem.isObject())
      return fail(Err, "runs[" + std::to_string(I) + "] is not an object");
    const JsonValue *Run = Elem.get("run");
    if (!Run)
      return fail(Err, "runs[" + std::to_string(I) +
                           "] missing object field 'run'");
    if (!validateRunObject(*Run, I, Err))
      return false;
  }
  return true;
}
