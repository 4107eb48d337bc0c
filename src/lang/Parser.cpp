#include "lang/Parser.h"

using namespace nascent;

Parser::Parser(std::string Source, DiagnosticEngine &Diags)
    : Lex(std::move(Source)), Diags(Diags) {
  CurTok = Lex.next();
  NextTok = Lex.next();
}

Token Parser::consume() {
  Token T = CurTok;
  CurTok = NextTok;
  NextTok = Lex.next();
  return T;
}

bool Parser::match(TokenKind K) {
  if (!cur().is(K))
    return false;
  consume();
  return true;
}

bool Parser::expect(TokenKind K, const char *Context) {
  if (match(K))
    return true;
  error(std::string("expected ") + tokenKindName(K) + " " + Context +
        ", found " + tokenKindName(cur().Kind));
  return false;
}

void Parser::error(const std::string &Msg) {
  if (!TooDeep)
    Diags.error(cur().Loc, Msg);
}

bool Parser::Nesting::enter() {
  if (P.Depth < MaxNestingDepth) {
    ++P.Depth;
    ++Entered;
    return true;
  }
  P.error("program nested too deeply (more than " +
          std::to_string(MaxNestingDepth) + " levels)");
  P.TooDeep = true;
  // Skip the rest of the input so every caller unwinds at once.
  while (!P.cur().is(TokenKind::Eof))
    P.consume();
  return false;
}

bool Parser::startsStatement(TokenKind K) const {
  switch (K) {
  case TokenKind::Identifier:
  case TokenKind::KwIf:
  case TokenKind::KwDo:
  case TokenKind::KwWhile:
  case TokenKind::KwCall:
  case TokenKind::KwPrint:
  case TokenKind::KwReturn:
    return true;
  default:
    return false;
  }
}

void Parser::syncToStatement() {
  while (!cur().is(TokenKind::Eof) && !startsStatement(cur().Kind) &&
         !cur().is(TokenKind::KwEnd) && !cur().is(TokenKind::KwElse) &&
         !cur().is(TokenKind::KwElseif))
    consume();
}

std::unique_ptr<ProgramAST> Parser::parseProgram() {
  auto Prog = std::make_unique<ProgramAST>();
  while (!cur().is(TokenKind::Eof)) {
    auto Unit = parseUnit();
    if (!Unit) {
      // Could not even start a unit; skip a token to guarantee progress.
      consume();
      continue;
    }
    Prog->Units.push_back(std::move(Unit));
  }
  return Prog;
}

std::unique_ptr<ProcedureAST> Parser::parseUnit() {
  auto P = std::make_unique<ProcedureAST>();
  P->Loc = cur().Loc;
  TokenKind EndKw;
  if (match(TokenKind::KwProgram)) {
    P->Kind = UnitKind::Program;
    EndKw = TokenKind::KwProgram;
  } else if (match(TokenKind::KwSubroutine)) {
    P->Kind = UnitKind::Subroutine;
    EndKw = TokenKind::KwSubroutine;
  } else if (match(TokenKind::KwFunction)) {
    P->Kind = UnitKind::Function;
    EndKw = TokenKind::KwFunction;
  } else {
    error("expected 'program', 'subroutine', or 'function', found " +
          std::string(tokenKindName(cur().Kind)));
    return nullptr;
  }

  if (!cur().is(TokenKind::Identifier)) {
    error("expected unit name");
    return nullptr;
  }
  P->Name = consume().Text;

  if (P->Kind != UnitKind::Program && match(TokenKind::LParen)) {
    parseParams(*P);
    expect(TokenKind::RParen, "after parameter list");
  }
  if (P->Kind == UnitKind::Function) {
    expect(TokenKind::Colon, "before function result type");
    if (match(TokenKind::KwInteger))
      P->ResultTy = ScalarType::Int;
    else if (match(TokenKind::KwReal))
      P->ResultTy = ScalarType::Real;
    else if (match(TokenKind::KwLogical))
      P->ResultTy = ScalarType::Bool;
    else
      error("expected function result type");
  }

  while (cur().is(TokenKind::KwInteger) || cur().is(TokenKind::KwReal) ||
         cur().is(TokenKind::KwLogical)) {
    // "real(x)" in statement position cannot occur, so a type keyword here
    // always begins a declaration.
    if (!parseDecl(*P))
      syncToStatement();
  }

  P->Body = parseStmtList();
  expectEnd(EndKw, "unit");
  return P;
}

void Parser::parseParams(ProcedureAST &P) {
  if (cur().is(TokenKind::RParen))
    return;
  do {
    if (!cur().is(TokenKind::Identifier)) {
      error("expected parameter name");
      return;
    }
    P.Params.push_back(consume().Text);
  } while (match(TokenKind::Comma));
}

bool Parser::parseDimBound(int64_t &Out) {
  bool Negate = match(TokenKind::Minus);
  if (!cur().is(TokenKind::IntLiteral)) {
    error("array bounds must be integer constants");
    return false;
  }
  Out = consume().IntValue;
  if (Negate)
    Out = -Out;
  return true;
}

bool Parser::parseDeclarator(Decl &D) {
  if (!cur().is(TokenKind::Identifier)) {
    error("expected variable name in declaration");
    return false;
  }
  Declarator V;
  V.Loc = cur().Loc;
  V.Name = consume().Text;
  if (match(TokenKind::LParen)) {
    do {
      int64_t A = 0;
      if (!parseDimBound(A))
        return false;
      int64_t Lo = 1, Hi = A;
      if (match(TokenKind::Colon)) {
        Lo = A;
        if (!parseDimBound(Hi))
          return false;
      }
      V.Dims.push_back({Lo, Hi});
    } while (match(TokenKind::Comma));
    if (!expect(TokenKind::RParen, "after array dimensions"))
      return false;
  }
  D.Vars.push_back(std::move(V));
  return true;
}

bool Parser::parseDecl(ProcedureAST &P) {
  Decl D;
  D.Loc = cur().Loc;
  if (match(TokenKind::KwInteger))
    D.Ty = ScalarType::Int;
  else if (match(TokenKind::KwReal))
    D.Ty = ScalarType::Real;
  else if (match(TokenKind::KwLogical))
    D.Ty = ScalarType::Bool;
  else
    return false;
  do {
    if (!parseDeclarator(D))
      return false;
  } while (match(TokenKind::Comma));
  P.Decls.push_back(std::move(D));
  return true;
}

std::vector<StmtPtr> Parser::parseStmtList() {
  std::vector<StmtPtr> Stmts;
  while (startsStatement(cur().Kind)) {
    StmtPtr S = parseStmt();
    if (!S) {
      syncToStatement();
      continue;
    }
    Stmts.push_back(std::move(S));
  }
  return Stmts;
}

StmtPtr Parser::parseStmt() {
  Nesting Nest(*this);
  if (!Nest.enter())
    return nullptr;
  switch (cur().Kind) {
  case TokenKind::KwIf:
    return parseIf();
  case TokenKind::KwDo:
    return parseDo();
  case TokenKind::KwWhile:
    return parseWhile();
  case TokenKind::KwCall:
    return parseCall();
  case TokenKind::KwPrint: {
    SourceLocation Loc = consume().Loc;
    ExprPtr E = parseExpr();
    if (!E)
      return nullptr;
    return std::make_unique<PrintStmt>(Loc, std::move(E));
  }
  case TokenKind::KwReturn: {
    SourceLocation Loc = consume().Loc;
    ExprPtr E;
    // "return" may be followed by an expression (functions) or nothing.
    if (startsStatement(cur().Kind) || cur().is(TokenKind::IntLiteral) ||
        cur().is(TokenKind::RealLiteral) || cur().is(TokenKind::LParen) ||
        cur().is(TokenKind::Minus) || cur().is(TokenKind::KwNot) ||
        cur().is(TokenKind::KwTrue) || cur().is(TokenKind::KwFalse) ||
        cur().is(TokenKind::KwReal)) {
      // Ambiguity: "return" followed by an identifier could be a bare
      // return with the next statement starting, or a value return. Treat
      // a following identifier/expression as the return value; subroutines
      // place "return" last or before "end", which stays unambiguous.
      E = parseExpr();
      if (!E)
        return nullptr;
    }
    return std::make_unique<ReturnStmt>(Loc, std::move(E));
  }
  case TokenKind::Identifier:
    return parseAssign();
  default:
    error("expected statement");
    return nullptr;
  }
}

void Parser::expectEnd(TokenKind Kw, const char *What) {
  if (!expect(TokenKind::KwEnd, What))
    return;
  if (!match(Kw))
    error(std::string("expected matching keyword after 'end' for ") + What);
}

StmtPtr Parser::parseIf() {
  SourceLocation Loc = consume().Loc; // 'if'
  expect(TokenKind::LParen, "after 'if'");
  ExprPtr Cond = parseExpr();
  expect(TokenKind::RParen, "after if condition");
  expect(TokenKind::KwThen, "after if condition");
  if (!Cond)
    return nullptr;
  auto If = std::make_unique<IfStmt>(Loc, std::move(Cond));
  If->Then = parseStmtList();

  IfStmt *Tail = If.get();
  while (cur().is(TokenKind::KwElseif)) {
    SourceLocation ELoc = consume().Loc;
    expect(TokenKind::LParen, "after 'elseif'");
    ExprPtr ECond = parseExpr();
    expect(TokenKind::RParen, "after elseif condition");
    expect(TokenKind::KwThen, "after elseif condition");
    if (!ECond)
      return nullptr;
    auto Nested = std::make_unique<IfStmt>(ELoc, std::move(ECond));
    Nested->Then = parseStmtList();
    IfStmt *NewTail = Nested.get();
    Tail->Else.push_back(std::move(Nested));
    Tail = NewTail;
  }
  if (match(TokenKind::KwElse))
    Tail->Else = parseStmtList();
  expectEnd(TokenKind::KwIf, "if statement");
  return If;
}

StmtPtr Parser::parseDo() {
  SourceLocation Loc = consume().Loc; // 'do'
  if (!cur().is(TokenKind::Identifier)) {
    error("expected loop index variable after 'do'");
    return nullptr;
  }
  auto Do = std::make_unique<DoStmt>(Loc, consume().Text);
  expect(TokenKind::Assign, "after do index");
  Do->Lower = parseExpr();
  expect(TokenKind::Comma, "after do lower bound");
  Do->Upper = parseExpr();
  if (match(TokenKind::Comma)) {
    bool Negate = match(TokenKind::Minus);
    if (!cur().is(TokenKind::IntLiteral)) {
      error("do step must be an integer constant");
      return nullptr;
    }
    Do->Step = consume().IntValue;
    if (Negate)
      Do->Step = -Do->Step;
  }
  if (!Do->Lower || !Do->Upper)
    return nullptr;
  Do->Body = parseStmtList();
  expectEnd(TokenKind::KwDo, "do loop");
  return Do;
}

StmtPtr Parser::parseWhile() {
  SourceLocation Loc = consume().Loc; // 'while'
  expect(TokenKind::LParen, "after 'while'");
  ExprPtr Cond = parseExpr();
  expect(TokenKind::RParen, "after while condition");
  expect(TokenKind::KwDo, "after while condition");
  if (!Cond)
    return nullptr;
  auto W = std::make_unique<WhileStmt>(Loc, std::move(Cond));
  W->Body = parseStmtList();
  expectEnd(TokenKind::KwWhile, "while loop");
  return W;
}

StmtPtr Parser::parseCall() {
  SourceLocation Loc = consume().Loc; // 'call'
  if (!cur().is(TokenKind::Identifier)) {
    error("expected subroutine name after 'call'");
    return nullptr;
  }
  std::string Callee = consume().Text;
  std::vector<ExprPtr> Args;
  if (match(TokenKind::LParen)) {
    if (!cur().is(TokenKind::RParen))
      Args = parseArgList();
    expect(TokenKind::RParen, "after call arguments");
  }
  return std::make_unique<CallStmt>(Loc, std::move(Callee), std::move(Args));
}

StmtPtr Parser::parseAssign() {
  SourceLocation Loc = cur().Loc;
  std::string Name = consume().Text;
  if (match(TokenKind::LParen)) {
    std::vector<ExprPtr> Indices = parseArgList();
    expect(TokenKind::RParen, "after subscripts");
    expect(TokenKind::Assign, "in array assignment");
    ExprPtr V = parseExpr();
    if (!V)
      return nullptr;
    return std::make_unique<ArrayAssignStmt>(Loc, std::move(Name),
                                             std::move(Indices), std::move(V));
  }
  expect(TokenKind::Assign, "in assignment");
  ExprPtr V = parseExpr();
  if (!V)
    return nullptr;
  return std::make_unique<AssignStmt>(Loc, std::move(Name), std::move(V));
}

std::vector<ExprPtr> Parser::parseArgList() {
  std::vector<ExprPtr> Args;
  do {
    ExprPtr E = parseExpr();
    if (!E)
      break;
    Args.push_back(std::move(E));
  } while (match(TokenKind::Comma));
  return Args;
}

ExprPtr Parser::parseExpr() {
  Nesting Nest(*this);
  if (!Nest.enter())
    return nullptr;
  return parseOr();
}

ExprPtr Parser::parseOr() {
  Nesting Nest(*this);
  ExprPtr L = parseAnd();
  while (L && cur().is(TokenKind::KwOr)) {
    if (!Nest.enter())
      return nullptr;
    SourceLocation Loc = consume().Loc;
    ExprPtr R = parseAnd();
    if (!R)
      return nullptr;
    L = std::make_unique<BinaryExpr>(Loc, BinaryOp::Or, std::move(L),
                                     std::move(R));
  }
  return L;
}

ExprPtr Parser::parseAnd() {
  Nesting Nest(*this);
  ExprPtr L = parseNot();
  while (L && cur().is(TokenKind::KwAnd)) {
    if (!Nest.enter())
      return nullptr;
    SourceLocation Loc = consume().Loc;
    ExprPtr R = parseNot();
    if (!R)
      return nullptr;
    L = std::make_unique<BinaryExpr>(Loc, BinaryOp::And, std::move(L),
                                     std::move(R));
  }
  return L;
}

ExprPtr Parser::parseNot() {
  if (cur().is(TokenKind::KwNot)) {
    Nesting Nest(*this);
    if (!Nest.enter())
      return nullptr;
    SourceLocation Loc = consume().Loc;
    ExprPtr Sub = parseNot();
    if (!Sub)
      return nullptr;
    return std::make_unique<UnaryExpr>(Loc, UnaryOp::Not, std::move(Sub));
  }
  return parseComparison();
}

ExprPtr Parser::parseComparison() {
  ExprPtr L = parseAdditive();
  if (!L)
    return nullptr;
  BinaryOp Op;
  switch (cur().Kind) {
  case TokenKind::EqEq:
    Op = BinaryOp::Eq;
    break;
  case TokenKind::NotEq:
    Op = BinaryOp::Ne;
    break;
  case TokenKind::Less:
    Op = BinaryOp::Lt;
    break;
  case TokenKind::LessEq:
    Op = BinaryOp::Le;
    break;
  case TokenKind::Greater:
    Op = BinaryOp::Gt;
    break;
  case TokenKind::GreaterEq:
    Op = BinaryOp::Ge;
    break;
  default:
    return L;
  }
  SourceLocation Loc = consume().Loc;
  ExprPtr R = parseAdditive();
  if (!R)
    return nullptr;
  return std::make_unique<BinaryExpr>(Loc, Op, std::move(L), std::move(R));
}

ExprPtr Parser::parseAdditive() {
  Nesting Nest(*this);
  ExprPtr L = parseMultiplicative();
  while (L && (cur().is(TokenKind::Plus) || cur().is(TokenKind::Minus))) {
    if (!Nest.enter())
      return nullptr;
    BinaryOp Op = cur().is(TokenKind::Plus) ? BinaryOp::Add : BinaryOp::Sub;
    SourceLocation Loc = consume().Loc;
    ExprPtr R = parseMultiplicative();
    if (!R)
      return nullptr;
    L = std::make_unique<BinaryExpr>(Loc, Op, std::move(L), std::move(R));
  }
  return L;
}

ExprPtr Parser::parseMultiplicative() {
  Nesting Nest(*this);
  ExprPtr L = parseUnary();
  while (L && (cur().is(TokenKind::Star) || cur().is(TokenKind::Slash))) {
    if (!Nest.enter())
      return nullptr;
    BinaryOp Op = cur().is(TokenKind::Star) ? BinaryOp::Mul : BinaryOp::Div;
    SourceLocation Loc = consume().Loc;
    ExprPtr R = parseUnary();
    if (!R)
      return nullptr;
    L = std::make_unique<BinaryExpr>(Loc, Op, std::move(L), std::move(R));
  }
  return L;
}

ExprPtr Parser::parseUnary() {
  if (cur().is(TokenKind::Minus) || cur().is(TokenKind::Plus)) {
    Nesting Nest(*this);
    if (!Nest.enter())
      return nullptr;
    if (cur().is(TokenKind::Plus)) {
      consume();
      return parseUnary();
    }
    SourceLocation Loc = consume().Loc;
    ExprPtr Sub = parseUnary();
    if (!Sub)
      return nullptr;
    return std::make_unique<UnaryExpr>(Loc, UnaryOp::Neg, std::move(Sub));
  }
  return parsePrimary();
}

ExprPtr Parser::parsePrimary() {
  SourceLocation Loc = cur().Loc;
  switch (cur().Kind) {
  case TokenKind::IntLiteral:
    return std::make_unique<IntLitExpr>(Loc, consume().IntValue);
  case TokenKind::RealLiteral:
    return std::make_unique<RealLitExpr>(Loc, consume().RealValue);
  case TokenKind::KwTrue:
    consume();
    return std::make_unique<BoolLitExpr>(Loc, true);
  case TokenKind::KwFalse:
    consume();
    return std::make_unique<BoolLitExpr>(Loc, false);
  case TokenKind::LParen: {
    consume();
    ExprPtr E = parseExpr();
    expect(TokenKind::RParen, "after parenthesised expression");
    return E;
  }
  case TokenKind::KwReal: {
    // "real(expr)" cast intrinsic in expression position.
    consume();
    expect(TokenKind::LParen, "after 'real' cast");
    ExprPtr E = parseExpr();
    expect(TokenKind::RParen, "after 'real' cast argument");
    if (!E)
      return nullptr;
    return std::make_unique<UnaryExpr>(Loc, UnaryOp::RealCast, std::move(E));
  }
  case TokenKind::Identifier: {
    std::string Name = consume().Text;
    if (!match(TokenKind::LParen))
      return std::make_unique<VarRefExpr>(Loc, std::move(Name));
    std::vector<ExprPtr> Args = parseArgList();
    expect(TokenKind::RParen, "after argument list");
    if (TooDeep)
      return nullptr;

    // Intrinsics recognised by name; everything else is an array reference
    // or a user-function call, disambiguated by semantic analysis.
    auto Arity = [&](size_t N) {
      if (Args.size() != N) {
        Diags.error(Loc, "intrinsic '" + Name + "' expects " +
                             std::to_string(N) + " argument(s), got " +
                             std::to_string(Args.size()));
        return false;
      }
      return true;
    };
    if (Name == "abs") {
      if (!Arity(1))
        return nullptr;
      return std::make_unique<UnaryExpr>(Loc, UnaryOp::Abs,
                                         std::move(Args[0]));
    }
    if (Name == "int") {
      if (!Arity(1))
        return nullptr;
      return std::make_unique<UnaryExpr>(Loc, UnaryOp::IntCast,
                                         std::move(Args[0]));
    }
    if (Name == "mod") {
      if (!Arity(2))
        return nullptr;
      return std::make_unique<BinaryExpr>(Loc, BinaryOp::Mod,
                                          std::move(Args[0]),
                                          std::move(Args[1]));
    }
    if (Name == "min" || Name == "max") {
      if (Args.size() < 2) {
        Diags.error(Loc, "intrinsic '" + Name + "' expects at least 2 args");
        return nullptr;
      }
      BinaryOp Op = (Name == "min") ? BinaryOp::Min : BinaryOp::Max;
      Nesting Nest(*this);
      ExprPtr Acc = std::move(Args[0]);
      for (size_t K = 1; K != Args.size(); ++K) {
        if (!Nest.enter())
          return nullptr;
        Acc = std::make_unique<BinaryExpr>(Loc, Op, std::move(Acc),
                                           std::move(Args[K]));
      }
      return Acc;
    }
    // Array reference or user call; sema decides which.
    return std::make_unique<ArrayRefExpr>(Loc, std::move(Name),
                                          std::move(Args));
  }
  default:
    error("expected expression, found " +
          std::string(tokenKindName(cur().Kind)));
    return nullptr;
  }
}
