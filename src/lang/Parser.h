//===----------------------------------------------------------------------===//
///
/// \file
/// Recursive-descent parser for mini-Fortran. Produces a ProgramAST whose
/// nodes, lists and names live in the program's own arena; errors go to
/// the DiagnosticEngine and the parser recovers by skipping to the next
/// plausible statement boundary. Input nested deeper than
/// MaxNestingDepth is rejected with one diagnostic, so neither the parser
/// nor the recursive passes over its AST can overflow the stack.
///
//===----------------------------------------------------------------------===//

#ifndef NASCENT_LANG_PARSER_H
#define NASCENT_LANG_PARSER_H

#include "lang/AST.h"
#include "lang/Lexer.h"
#include "support/Diagnostics.h"

#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace nascent {

/// Parses one source buffer.
class Parser {
public:
  /// \p Source must outlive the parser (not the AST, which copies every
  /// spelling it keeps).
  Parser(std::string_view Source, DiagnosticEngine &Diags);
  /// A temporary string would dangle: the parser reads its source in place.
  template <typename T>
    requires std::is_same_v<T, std::string>
  Parser(T &&, DiagnosticEngine &) = delete;

  /// The deepest nesting accepted. Every active statement, expression, and
  /// prefix-operator level counts one, and so does every binary node a
  /// left-associative loop (or a min/max fold) stacks onto its left
  /// operand, which makes this a bound on the depth of the AST.
  static constexpr unsigned MaxNestingDepth = 1000;

  /// Parses the whole file. On errors the returned AST may be partial;
  /// check Diags.hasErrors().
  std::unique_ptr<ProgramAST> parseProgram();

private:
  // Token stream management (one token of lookahead).
  const Token &cur() const { return CurTok; }
  const Token &ahead() const { return NextTok; }
  Token consume();
  /// Reports an integer literal too large for int64 as it becomes current.
  void noteCurrent();
  bool match(TokenKind K);
  bool expect(TokenKind K, const char *Context);
  void error(const std::string &Msg);
  void syncToStatement();

  /// One nesting scope: enter() counts one more level against
  /// MaxNestingDepth (false, after reporting, when over it); the destructor
  /// gives back every level the scope entered.
  class Nesting {
  public:
    explicit Nesting(Parser &P) : P(P) {}
    ~Nesting() { P.Depth -= Entered; }
    bool enter();

  private:
    Parser &P;
    unsigned Entered = 0;
  };

  // Units and declarations.
  ProcedureAST *parseUnit();
  void parseParams(ProcedureAST &P);
  bool parseDecl();
  bool parseDeclarator();
  bool parseDimBound(int64_t &Out);

  // Statements.
  StmtList parseStmtList();
  bool startsStatement(TokenKind K) const;
  StmtPtr parseStmt();
  StmtPtr parseIf();
  StmtPtr parseDo();
  StmtPtr parseWhile();
  StmtPtr parseCall();
  StmtPtr parseAssign();
  void expectEnd(TokenKind Kw, const char *What);

  // Expressions.
  ExprPtr parseExpr();
  ExprPtr parseOr();
  ExprPtr parseAnd();
  ExprPtr parseNot();
  ExprPtr parseComparison();
  ExprPtr parseAdditive();
  ExprPtr parseMultiplicative();
  ExprPtr parseUnary();
  ExprPtr parsePrimary();
  ExprList parseArgList();

  template <typename T, typename... ArgTs> T *make(ArgTs &&...Args) {
    return Prog->Mem.make<T>(std::forward<ArgTs>(Args)...);
  }

  std::unique_ptr<ProgramAST> Prog;
  Lexer Lex;
  DiagnosticEngine &Diags;
  Token CurTok;
  Token NextTok;
  unsigned Depth = 0;
  /// Set once the depth limit was hit: the rest of the input is skipped
  /// and no follow-on errors are reported.
  bool TooDeep = false;

  /// Elements of the lists being parsed, one stack per element type: a
  /// list pushes onto its stack and, once complete, moves its run into
  /// the arena. Nested lists of one type finish before their parent, so
  /// the runs never interleave.
  std::vector<ExprPtr> ExprStack;
  std::vector<StmtPtr> StmtStack;
  std::vector<NameID> NameStack;
  std::vector<Declarator> DeclaratorStack;
  std::vector<Declarator::Dim> DimStack;
  std::vector<Decl> DeclStack;
  std::vector<ProcedureAST *> UnitStack;
};

} // namespace nascent

#endif // NASCENT_LANG_PARSER_H
