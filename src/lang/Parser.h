//===----------------------------------------------------------------------===//
///
/// \file
/// Recursive-descent parser for mini-Fortran. Produces a ProgramAST;
/// errors go to the DiagnosticEngine and the parser recovers by skipping
/// to the next plausible statement boundary. Input nested deeper than
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

namespace nascent {

/// Parses one source buffer.
class Parser {
public:
  Parser(std::string Source, DiagnosticEngine &Diags);

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
  std::unique_ptr<ProcedureAST> parseUnit();
  void parseParams(ProcedureAST &P);
  bool parseDecl(ProcedureAST &P);
  bool parseDeclarator(Decl &D);
  bool parseDimBound(int64_t &Out);

  // Statements.
  std::vector<StmtPtr> parseStmtList();
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
  std::vector<ExprPtr> parseArgList();

  Lexer Lex;
  DiagnosticEngine &Diags;
  Token CurTok;
  Token NextTok;
  unsigned Depth = 0;
  /// Set once the depth limit was hit: the rest of the input is skipped
  /// and no follow-on errors are reported.
  bool TooDeep = false;
};

} // namespace nascent

#endif // NASCENT_LANG_PARSER_H
