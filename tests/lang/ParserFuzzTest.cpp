//===----------------------------------------------------------------------===//
///
/// \file
/// Robustness tests: the front end must terminate with diagnostics (never
/// crash, hang, or accept) on arbitrary garbage, truncated programs, and
/// token soup. The parser's recovery paths are the target, and so is its
/// nesting-depth limit: input nested beyond Parser::MaxNestingDepth must
/// get a diagnostic instead of overflowing the stack, and input exactly at
/// the limit must still compile and run.
///
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"
#include "lang/Parser.h"
#include "lang/Sema.h"

#include <gtest/gtest.h>

#include <random>

using namespace nascent;

namespace {

/// Runs the whole front end; the only requirement is termination without
/// a crash (errors expected and fine).
void frontEndSurvives(const std::string &Src) {
  DiagnosticEngine Diags;
  Parser P(Src, Diags);
  auto AST = P.parseProgram();
  ASSERT_NE(AST, nullptr);
  Sema S(*AST, Diags);
  (void)S.run(); // may be null; must not crash
}

TEST(ParserFuzz, EmptyAndWhitespace) {
  frontEndSurvives("");
  frontEndSurvives("   \n\t\n");
  frontEndSurvives("! just a comment\n");
}

TEST(ParserFuzz, TruncatedPrograms) {
  const char *Full = R"(
program p
  integer i, s
  do i = 1, 10
    if (i > 5) then
      s = s + i
    end if
  end do
  print s
end program
)";
  std::string F(Full);
  // Every prefix must be handled gracefully.
  for (size_t Len = 0; Len < F.size(); Len += 7)
    frontEndSurvives(F.substr(0, Len));
}

TEST(ParserFuzz, TokenSoup) {
  std::mt19937 Rng(7);
  const char *Tokens[] = {"program", "end",  "do",    "if",   "then",
                          "else",    "(",    ")",     ",",    "=",
                          "==",      "+",    "*",     "1",    "2.5",
                          "x",       "call", "while", "not",  ":",
                          "integer", "real", "a",     "<=",   "-"};
  for (int Round = 0; Round != 50; ++Round) {
    std::string Src;
    unsigned Len = 5 + Rng() % 60;
    for (unsigned K = 0; K != Len; ++K) {
      Src += Tokens[Rng() % std::size(Tokens)];
      Src += (Rng() % 5 == 0) ? "\n" : " ";
    }
    SCOPED_TRACE(Src);
    frontEndSurvives(Src);
  }
}

TEST(ParserFuzz, RandomBytes) {
  std::mt19937 Rng(11);
  for (int Round = 0; Round != 50; ++Round) {
    std::string Src;
    unsigned Len = Rng() % 200;
    for (unsigned K = 0; K != Len; ++K)
      Src += static_cast<char>(32 + Rng() % 95); // printable ASCII
    SCOPED_TRACE(Src);
    frontEndSurvives(Src);
  }
}

TEST(ParserFuzz, DeepNestingDoesNotOverflow) {
  // Deeply nested ifs exercise recursive descent; depth is kept moderate
  // to stay portable, but far beyond anything in real programs.
  std::string Src = "program p\n  integer x\n";
  const int Depth = 200;
  for (int K = 0; K != Depth; ++K)
    Src += "if (x < " + std::to_string(K) + ") then\n";
  Src += "x = 1\n";
  for (int K = 0; K != Depth; ++K)
    Src += "end if\n";
  Src += "end program\n";
  frontEndSurvives(Src);
}

TEST(ParserFuzz, DeepExpressionNesting) {
  std::string Src = "program p\n  integer x\n  x = ";
  const int Depth = 300;
  for (int K = 0; K != Depth; ++K)
    Src += "(1 + ";
  Src += "2";
  for (int K = 0; K != Depth; ++K)
    Src += ")";
  Src += "\nend program\n";
  frontEndSurvives(Src);
}

/// The front end rejects \p Src with the nesting-depth diagnostic (and
/// nothing else), without crashing.
void rejectedAsTooDeep(const std::string &Src) {
  DiagnosticEngine Diags;
  Parser P(Src, Diags);
  auto AST = P.parseProgram();
  ASSERT_NE(AST, nullptr);
  ASSERT_TRUE(Diags.hasErrors());
  ASSERT_EQ(Diags.diagnostics().size(), 1u) << Diags.render();
  EXPECT_NE(Diags.render().find("nested too deeply"), std::string::npos)
      << Diags.render();
  frontEndSurvives(Src);
}

/// "x = 1 + 1 + ... + 1" with \p Terms terms: a left-deep AST.
std::string flatSum(unsigned Terms) {
  std::string Src = "program p\n  integer x\n  x = 1";
  for (unsigned K = 1; K != Terms; ++K)
    Src += " + 1";
  Src += "\n  print x\nend program\n";
  return Src;
}

TEST(ParserFuzz, TwentyThousandNestedParenthesesAreRejected) {
  std::string Src = "program p\n  integer x\n  x = ";
  Src += std::string(20000, '(') + "1" + std::string(20000, ')');
  Src += "\nend program\n";
  rejectedAsTooDeep(Src);
}

TEST(ParserFuzz, TwentyThousandNestedIfsAreRejected) {
  std::string Src = "program p\n  integer x\n";
  for (int K = 0; K != 20000; ++K)
    Src += "if (x < 1) then\n";
  Src += "x = 1\n";
  for (int K = 0; K != 20000; ++K)
    Src += "end if\n";
  Src += "end program\n";
  rejectedAsTooDeep(Src);
}

TEST(ParserFuzz, FlatChainOfTwoHundredThousandTermsIsRejected) {
  rejectedAsTooDeep(flatSum(200000));
}

TEST(ParserFuzz, ProgramAtTheDepthLimitCompilesAndRuns) {
  // The statement and its expression take two levels; each of the
  // Terms - 1 additions stacks one more.
  const unsigned Terms = Parser::MaxNestingDepth - 1;
  CompileResult R = test::compileOrDie(flatSum(Terms));
  ASSERT_TRUE(R.Success);
  ExecResult E = interpret(*R.M);
  ASSERT_TRUE(E.ok()) << E.FaultMessage;
  ASSERT_EQ(E.Output.size(), 1u);
  EXPECT_EQ(E.Output[0], std::to_string(Terms));

  // One more term is one level too many.
  CompileResult Over = compileSource(flatSum(Terms + 1));
  EXPECT_FALSE(Over.Success);
  EXPECT_NE(Over.Diags.render().find("nested too deeply"), std::string::npos);
}

TEST(ParserFuzz, MismatchedEnds) {
  frontEndSurvives("program p\n do i = 1, 3\n end if\nend program");
  frontEndSurvives("program p\n if (1 < 2) then\n end do\nend program");
  frontEndSurvives("program p\n end do\n end while\n end if\nend program");
  frontEndSurvives("subroutine s()\nend function");
}

} // namespace
