#include "cbackend/CEmitter.h"

#include "interp/Decoded.h"
#include "obs/Profile.h"
#include "support/StringUtils.h"

#include <cmath>
#include <iterator>

using namespace nascent;

namespace {

/// The runtime every emitted program starts with: counters, the trap and
/// fault exits (each emitted only when a statement calls it, so a program
/// that cannot fault compiles warning-free under -Wall), and the C mirrors
/// of Decoded.h's scalar rules.
constexpr const char *PreludeCounters =
    R"(/* Generated by nascent-rangecheck's instrumented-C back end. */
#include <math.h>
#include <stdio.h>
#include <stdlib.h>

static unsigned long long nck_instrs = 0, nck_checks = 0, nck_condchecks = 0;

static void nck_report(void) {
  fprintf(stderr, "[nascent-counts] instrs=%llu checks=%llu condchecks=%llu\n",
          nck_instrs, nck_checks, nck_condchecks);
}

)";

constexpr const char *PreludeTrap =
    R"(/* A failed check or a Trap exits with status 2. */
static void nck_trap(const char *What) {
  fprintf(stderr, "[nascent-trap] %s\n", What);
  nck_report();
  exit(2);
}

)";

constexpr const char *PreludeFault =
    R"(/* A hard fault exits with status 3. */
static void nck_fault(const char *What) {
  fprintf(stderr, "[nascent-fault] %s\n", What);
  nck_report();
  exit(3);
}

)";

constexpr const char *PreludeArithmetic =
    R"(/* int64 arithmetic wraps as two's complement: INT64_MIN / -1 is INT64_MIN
   and its remainder is 0. */
static inline long long nck_add(long long A, long long B) {
  return (long long)((unsigned long long)A + (unsigned long long)B);
}
static inline long long nck_sub(long long A, long long B) {
  return (long long)((unsigned long long)A - (unsigned long long)B);
}
static inline long long nck_mul(long long A, long long B) {
  return (long long)((unsigned long long)A * (unsigned long long)B);
}
static inline long long nck_div(long long A, long long B) {
  return B == -1 ? nck_sub(0, A) : A / B;
}
static inline long long nck_mod(long long A, long long B) {
  return B == -1 ? 0 : A % B;
}

/* int(x): truncation when it fits, INT64_MIN for NaN and out of range. */
static inline long long nck_rtoi(double X) {
  return X >= -0x1p63 && X < 0x1p63 ? (long long)X : -9223372036854775807LL - 1;
}

/* Whether sum C[k] * X[k] <= Bound holds by the exact sum: products in
   128 bits and a running sum whose overflow is carried. */
static inline int nck_holds(int N, const long long *C, const long long *X,
                            long long Bound) {
  __int128 Sum = 0;
  int Carry = 0;
  for (int K = 0; K < N; ++K) {
    __int128 P = (__int128)C[K] * X[K];
    if (__builtin_add_overflow(Sum, P, &Sum))
      Carry += P < 0 ? -1 : 1;
  }
  return Carry != 0 ? Carry < 0 : Sum <= Bound;
}

)";

/// C forms of the value ops Op::AddI through Op::RealToInt, in Op order.
/// '@' stands for operand A and '#' for operand B, both read as reals when
/// Real is set and as integers otherwise.
struct ValueForm {
  const char *Text;
  bool Real;
};
constexpr ValueForm ValueForms[] = {
    {"nck_add(@, #)", false}, {"nck_sub(@, #)", false},
    {"nck_mul(@, #)", false}, {"nck_div(@, #)", false},
    {"nck_mod(@, #)", false}, {"nck_sub(0, @)", false},
    {"# < @ ? # : @", false}, {"@ < # ? # : @", false}, // std::min, max
    {"@ < 0 ? nck_sub(0, @) : @", false},
    {"@ + #", true}, {"@ - #", true}, {"@ * #", true},
    {"# == 0.0 ? 0.0 : @ / #", true}, {"0.0", true}, {"-(@)", true},
    {"# < @ ? # : @", true}, {"@ < # ? # : @", true}, {"fabs(@)", true},
    {"@ == #", false}, {"@ != #", false}, {"@ < #", false},
    {"@ <= #", false}, {"@ > #", false}, {"@ >= #", false},
    {"@ == #", true}, {"@ != #", true}, {"@ < #", true},
    {"@ <= #", true}, {"@ > #", true}, {"@ >= #", true},
    {"@ != 0 && # != 0", false}, {"@ != 0 || # != 0", false},
    {"@ == 0", false}, {"@", false}, {"@", true}, {"(double)@", false},
    {"nck_rtoi(@)", true},
};
static_assert(std::size(ValueForms) == static_cast<size_t>(Op::RealToInt) + 1);

/// A C literal of \p V; INT64_MIN has none of its own.
std::string cInt(int64_t V) {
  if (V == std::numeric_limits<int64_t>::min())
    return "(-9223372036854775807LL - 1)";
  return std::to_string(V) + "LL";
}

/// A C double literal that reads back as exactly \p V.
std::string cReal(double V) {
  if (std::isnan(V))
    return "__builtin_nan(\"\")";
  if (std::isinf(V))
    return V < 0 ? "(-__builtin_inf())" : "__builtin_inf()";
  std::string S = formatString("%.17g", V);
  if (S.find_first_of(".e") == std::string::npos)
    S += ".0";
  return S;
}

std::string cString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    Out += C;
  }
  return Out + "\"";
}

std::string cType(ScalarType T) {
  return T == ScalarType::Real ? "double" : "long long";
}

/// The first global profile counter slot of one function's sites, blocks
/// and arrays: the profile skeleton numbers them per function, and the
/// tables hold the functions back to back.
struct SlotBase {
  size_t Sites = 0, Blocks = 0, Arrays = 0;
};

/// Prints one decoded function as C.
class FunctionPrinter {
public:
  FunctionPrinter(const DecodedFunction &DF,
                  const obs::ExecutionProfile *Skel, SlotBase Base)
      : DF(DF), F(*DF.F), Skel(Skel), Base(Base) {
    // Declarations are the only place symbols are looked up.
    const SymbolTable &Syms = F.symbols();
    for (SymbolID S = 0; S != Syms.size(); ++S) {
      const Symbol &Sym = Syms.get(S);
      // User variables become v_<name>, temps keep their t<N> shape
      // ("%t3" -> "t3"), arrays become a_<name>.
      std::string Stem;
      for (char C : Sym.Name)
        if (C != '%')
          Stem += C;
      Names.push_back(Sym.isArray()                   ? "a_" + Stem
                      : Sym.Kind == SymbolKind::Temp ? Stem
                                                      : "v_" + Stem);
      Types.push_back(Sym.Type);
      Layouts.push_back(Sym.isArray() ? layoutOf(Sym.Shape)
                                      : std::vector<DimLayout>());
      if (Sym.IsParam)
        continue;
      if (Sym.isArray()) {
        // Local arrays live on the heap, zeroed, for the call's duration:
        // on the C stack a large one would overflow it where the
        // interpreter runs fine. A refused allocation is the
        // interpreter's hard fault, with its message.
        std::string Count = std::to_string(Sym.Shape.elementCount());
        Locals += "  " + cType(Sym.Type) + " *" + Names.back() +
                  " = calloc(" + Count + "u, sizeof *" + Names.back() +
                  ");\n  if (!" + Names.back() + ") nck_fault(" +
                  cString("cannot allocate array " + Sym.Name + " (" +
                          Count + " elements)") +
                  ");\n";
        Frees += "free(" + Names.back() + "); ";
        UsesFault = true;
        continue;
      }
      // The symbol table keeps every declared variable, also one the
      // program never reads (linpackd's k), so locals may go unused.
      Locals += "  __attribute__((unused)) " + cType(Sym.Type) + " " +
                Names.back() + " = 0;\n";
    }
  }

  std::string signature() const {
    std::string Sig = (F.resultType() ? cType(*F.resultType()) : "void") +
                      " fn_" + F.name() + "(";
    for (SymbolID P : F.params())
      Sig += (P == F.params().front() ? "" : ", ") + cType(Types[P]) +
             (Layouts[P].empty() ? " " : " *") + Names[P];
    return Sig + (F.params().empty() ? "void)" : ")");
  }

  std::string body() const {
    std::string Out = Locals + "  goto bb" + std::to_string(F.entryBlock()) +
                      ";\n";
    for (BlockID B = 0; B != DF.BlockStart.size(); ++B) {
      Out += "bb" + std::to_string(B) + ": ;\n";
      if (Skel)
        Out += "  " + count("nck_blocks", Base.Blocks + B) + "\n";
      size_t End = B + 1 == DF.BlockStart.size() ? DF.Ops.size()
                                                 : DF.BlockStart[B + 1];
      for (size_t K = DF.BlockStart[B]; K != End; ++K)
        Out += statement(DF.Ops[K]);
    }
    return Out;
  }

  /// Which halting helpers the statements body() printed call.
  bool usesTrap() const { return UsesTrap; }
  bool usesFault() const { return UsesFault; }

private:
  /// The cell a decoded op reads as an integer (S[X.Slot].I).
  std::string intOf(Operand X) const {
    return X.Slot < Names.size() ? Names[X.Slot]
                                 : cInt(DF.InitialCells[X.Slot].I);
  }

  /// The cell a decoded op reads as a real (realOf).
  std::string realOf(Operand X) const {
    if (!X.Real)
      return "(double)" + intOf(X);
    return X.Slot < Names.size() ? Names[X.Slot]
                                 : cReal(DF.InitialCells[X.Slot].R);
  }

  /// The call of nck_holds that mirrors holds() on \p C.
  std::string holds(const DecodedCheck &C) const {
    std::string Coeffs, Cells;
    for (uint32_t K = C.Begin; K != C.End; ++K) {
      std::string Sep = K == C.Begin ? "" : ", ";
      Coeffs += Sep + cInt(DF.Terms[K].Coeff);
      Cells += Sep + Names[DF.Terms[K].Slot];
    }
    if (C.Begin == C.End)
      return "nck_holds(0, 0, 0, " + cInt(C.Bound) + ")";
    return "nck_holds(" + std::to_string(C.End - C.Begin) +
           ", (const long long[]){" + Coeffs + "}, (const long long[]){" +
           Cells + "}, " + cInt(C.Bound) + ")";
  }

  /// The condition under which the check op \p O traps: the interval test
  /// of a CheckIn, or the guards holding and the check not.
  std::string fails(const DecodedOp &O) const {
    if (O.Code == Op::CheckIn || O.Code == Op::CheckPair)
      return "(unsigned long long)" + intOf(O.A) + " - " +
             std::to_string(static_cast<uint64_t>(O.Lo)) + "ULL > " +
             std::to_string(O.Span) + "ULL";
    std::string Out;
    for (uint32_t K = O.Begin; K != O.End; ++K)
      Out += holds(DF.Guards[K]) + " && ";
    return Out + "!" + holds(O.Check);
  }

  /// The element a Load or Store addresses, column-major.
  std::string element(const DecodedOp &O) const {
    std::string Index;
    const DimLayout *Dim = Layouts[O.Array].data();
    for (uint32_t K = O.Begin; K != O.End; ++K, ++Dim) {
      Index += (K == O.Begin ? "(" : " + (") + intOf(DF.Subscripts[K]) +
               " - " + cInt(Dim->Lower) + ")";
      if (Dim->Stride != 1)
        Index += " * " + std::to_string(Dim->Stride) + "LL";
    }
    return Names[O.Array] + "[" + (Index.empty() ? "0" : Index) + "]";
  }

  /// The C statement that runs \p O, after its step count.
  std::string statement(const DecodedOp &O) const {
    std::string Out = "  ";
    if (isCheckOp(O.Code))
      Out += O.Code == Op::CondCheck ? "nck_checks++; nck_condchecks++; "
                                     : "nck_checks++; ";
    else if (O.Steps != 0)
      Out += O.Steps == 1 ? "nck_instrs++; "
                          : "nck_instrs += " + std::to_string(O.Steps) + "; ";
    return Out + effect(O) + "\n";
  }

  /// "nck_count(&Table[Slot]); " with a profile, nothing without one.
  std::string count(const char *Table, size_t Slot) const {
    return Skel ? "nck_count(&" + std::string(Table) + "[" +
                      std::to_string(Slot) + "]); "
                : "";
  }

  /// nck_trap(What); marks the helper used.
  std::string trap(const DecodedOp &O) const {
    UsesTrap = true;
    return "nck_trap(" + cString(haltMessage(DF, O)) + ");";
  }
  /// nck_fault(What); marks the helper used.
  std::string fault(const DecodedOp &O) const {
    UsesFault = true;
    return "nck_fault(" + cString(haltMessage(DF, O)) + ");";
  }

  std::string effect(const DecodedOp &O) const {
    size_t Site = 0, Array = 0;
    if (Skel && isCheckOp(O.Code))
      Site = Base.Sites + Skel->siteIndex(DF.ProfileIndex, O.Block, O.Index);
    if (Skel && (O.Code == Op::Load || O.Code == Op::Store))
      Array = Base.Arrays + Skel->arrayIndex(DF.ProfileIndex, O.Array);
    switch (O.Code) {
    case Op::DivI:
    case Op::ModI:
      return "if (" + intOf(O.B) + " == 0) " + fault(O) + " " + value(O);
    case Op::Load:
      return count("nck_arr_loads", Array) + Names[O.Dest] + " = " +
             element(O) + ";";
    case Op::Store:
      return count("nck_arr_stores", Array) + element(O) + " = " +
             (Types[O.Array] == ScalarType::Real ? realOf(O.A) : intOf(O.A)) +
             ";";
    case Op::Check:
    case Op::CondCheck:
    case Op::CheckIn:
    case Op::CheckPair:
      // A site's hit counter bumps on every execution, also when the
      // guards of a CondCheck are false; its trap counter before the trap.
      return count("nck_site_hits", Site) + "if (" + fails(O) + ") { " +
             count("nck_site_traps", Site) + trap(O) + " }";
    case Op::Trap:
      return trap(O);
    case Op::Br:
      return "if (" + intOf(O.A) + " != 0) goto bb" +
             std::to_string(O.TrueBlock) + "; else goto bb" +
             std::to_string(O.FalseBlock) + ";";
    case Op::Jump:
      return "goto bb" + std::to_string(O.TrueBlock) + ";";
    case Op::Ret:
      return Frees + (F.resultType() ? "return 0;" : "return;");
    case Op::RetI:
      return Frees + "return " + intOf(O.A) + ";";
    case Op::RetR:
      return Frees + "return " + realOf(O.A) + ";";
    case Op::Call:
    case Op::CallI:
    case Op::CallR: {
      if (!O.Callee)
        return fault(O);
      std::string Call = "fn_" + O.Callee->F->name() + "(";
      for (uint32_t K = O.Begin; K != O.End; ++K) {
        const Argument &Arg = DF.Args[K];
        Call += (K == O.Begin ? "" : ", ") +
                (Arg.K == Argument::Kind::Array  ? Names[Arg.From.Slot]
                 : Arg.K == Argument::Kind::Real ? realOf(Arg.From)
                                                 : intOf(Arg.From));
      }
      return (O.Code == Op::Call ? "" : Names[O.Dest] + " = ") + Call + ");";
    }
    case Op::PrintI:
      return "printf(\"%lld\\n\", " + intOf(O.A) + ");";
    case Op::PrintR:
      return "printf(\"%.6g\\n\", " + realOf(O.A) + ");";
    case Op::PrintBool:
      return "puts(" + intOf(O.A) + " ? \"T\" : \"F\");";
    case Op::FellOff:
      return fault(O);
    default:
      return value(O);
    }
  }

  /// Dest = the value op's C form.
  std::string value(const DecodedOp &O) const {
    const ValueForm &Form = ValueForms[static_cast<size_t>(O.Code)];
    std::string Out = Names[O.Dest] + " = ";
    for (const char *C = Form.Text; *C; ++C)
      Out += *C == '@'   ? (Form.Real ? realOf(O.A) : intOf(O.A))
             : *C == '#' ? (Form.Real ? realOf(O.B) : intOf(O.B))
                         : std::string(1, *C);
    return Out + ";";
  }

  const DecodedFunction &DF;
  const Function &F;
  const obs::ExecutionProfile *Skel;
  SlotBase Base;
  std::vector<std::string> Names;              ///< by SymbolID
  std::vector<ScalarType> Types;               ///< by SymbolID
  std::vector<std::vector<DimLayout>> Layouts; ///< by SymbolID, arrays only
  std::string Locals;                          ///< local declarations
  std::string Frees; ///< frees the local arrays before a return
  /// Set by the constructor (array allocation) and by body().
  mutable bool UsesTrap = false, UsesFault = false;
};

/// The static counter tables, the saturating bump helper, and the atexit
/// dump, one slot per site, block and array of the profile skeleton.
/// Every table has at least one slot so empty modules stay valid C.
std::string profileRuntime(const obs::ExecutionProfile &Skel) {
  std::string Sites, Blocks, Arrays;
  size_t NSites = 0, NBlocks = 0, NArrays = 0;
  for (const obs::FunctionProfile &FP : Skel.functions()) {
    std::string Fn = "  fprintf(stderr, \"[nascent-prof";
    for (const obs::CheckSiteProfile &S : FP.Sites) {
      std::string Slot = std::to_string(NSites++);
      Sites += Fn + "site] func=" + FP.Name +
               " block=" + std::to_string(S.Block) +
               " index=" + std::to_string(S.Index) +
               " tag=" + std::to_string(S.Tag) +
               " hits=%llu traps=%llu\\n\", nck_site_hits[" + Slot +
               "], nck_site_traps[" + Slot + "]);\n";
    }
    for (size_t B = 0; B != FP.BlockCounts.size(); ++B)
      Blocks += Fn + "block] func=" + FP.Name +
                " block=" + std::to_string(B) +
                " count=%llu\\n\", nck_blocks[" + std::to_string(NBlocks++) +
                "]);\n";
    for (const obs::ArrayProfile &A : FP.Arrays) {
      std::string Slot = std::to_string(NArrays++);
      Arrays += Fn + "array] func=" + FP.Name + " array=" + A.Name +
                " loads=%llu stores=%llu\\n\", nck_arr_loads[" + Slot +
                "], nck_arr_stores[" + Slot + "]);\n";
    }
  }
  auto Dim = [](size_t N) { return std::to_string(N ? N : 1); };
  return "/* Execution-profile counter tables: one slot per check site, "
         "block, and array. */\n"
         "static unsigned long long nck_site_hits[" +
         Dim(NSites) + "], nck_site_traps[" + Dim(NSites) +
         "];\nstatic unsigned long long nck_blocks[" + Dim(NBlocks) +
         "];\nstatic unsigned long long nck_arr_loads[" + Dim(NArrays) +
         "], nck_arr_stores[" + Dim(NArrays) +
         "];\n\n"
         "static void nck_count(unsigned long long *C) {\n"
         "  if (*C != 0xFFFFFFFFFFFFFFFFULL) ++*C; /* saturate, don't wrap "
         "*/\n}\n\n"
         "static void nck_profile_dump(void) {\n" +
         Sites + Blocks + Arrays + "}\n\n";
}

} // namespace

std::string nascent::emitModuleToC(const Module &M,
                                   const CEmitOptions &Opts) {
  obs::ExecutionProfile Skel;
  if (Opts.Profile)
    Skel.attach(M);
  const obs::ExecutionProfile *P = Opts.Profile ? &Skel : nullptr;
  DecodedModule DM = decodeModule(M, P);

  std::vector<FunctionPrinter> Printers;
  SlotBase Base;
  for (const DecodedFunction &DF : DM.Functions) {
    Printers.emplace_back(DF, P, Base);
    if (P) {
      const obs::FunctionProfile &FP = Skel.functions()[DF.ProfileIndex];
      Base.Sites += FP.Sites.size();
      Base.Blocks += FP.BlockCounts.size();
      Base.Arrays += FP.Arrays.size();
    }
  }
  // Bodies first: they decide which halting helpers the prelude carries.
  std::string Bodies;
  bool Trap = false, Fault = false;
  for (const FunctionPrinter &FP : Printers) {
    Bodies += "static " + FP.signature() + " {\n" + FP.body() + "}\n\n";
    Trap |= FP.usesTrap();
    Fault |= FP.usesFault();
  }

  std::string Out = PreludeCounters;
  if (Trap)
    Out += PreludeTrap;
  if (Fault)
    Out += PreludeFault;
  Out += PreludeArithmetic;
  if (P)
    Out += profileRuntime(Skel);
  // Prototypes first: callees may appear in any order.
  for (const FunctionPrinter &FP : Printers)
    Out += "static " + FP.signature() + ";\n";
  Out += "\n" + Bodies;

  Out += "int main(void) {\n";
  if (P)
    Out += "  atexit(nck_profile_dump); /* survives the trap exit */\n";
  Out += "  fn_" + M.entryName() + "();\n  nck_report();\n  return 0;\n}\n";
  return Out;
}
