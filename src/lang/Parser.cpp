#include "lang/Parser.h"

using namespace nascent;

namespace {

/// One list under construction on a parser stack: elements pushed after
/// construction belong to it, and finish() moves them into the arena. An
/// abandoned list (an early return) is popped by the destructor.
template <typename T> class ListBuilder {
public:
  explicit ListBuilder(std::vector<T> &Stack)
      : Stack(Stack), Mark(Stack.size()) {}
  ~ListBuilder() { Stack.resize(Mark); }
  ListBuilder(const ListBuilder &) = delete;
  ListBuilder &operator=(const ListBuilder &) = delete;

  void push(const T &V) { Stack.push_back(V); }
  size_t size() const { return Stack.size() - Mark; }

  std::span<T> finish(Arena &Mem) {
    std::span<T> Out = Mem.copy(
        std::span<const T>(Stack.data() + Mark, Stack.size() - Mark));
    Stack.resize(Mark);
    return Out;
  }

private:
  std::vector<T> &Stack;
  size_t Mark;
};

} // namespace

Parser::Parser(std::string_view Source, DiagnosticEngine &Diags)
    : Prog(std::make_unique<ProgramAST>()), Lex(Source, Prog->Names),
      Diags(Diags) {
  CurTok = Lex.next();
  NextTok = Lex.next();
  noteCurrent();
}

Token Parser::consume() {
  Token T = std::move(CurTok);
  CurTok = std::move(NextTok);
  NextTok = Lex.next();
  noteCurrent();
  return T;
}

void Parser::noteCurrent() {
  if (CurTok.TooBig && !TooDeep)
    Diags.error(CurTok.Loc, CurTok.message());
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
  ListBuilder<ProcedureAST *> Units(UnitStack);
  while (!cur().is(TokenKind::Eof)) {
    ProcedureAST *Unit = parseUnit();
    if (!Unit) {
      // Could not even start a unit; skip a token to guarantee progress.
      consume();
      continue;
    }
    Units.push(Unit);
  }
  Prog->Units = Units.finish(Prog->Mem);
  return std::move(Prog);
}

ProcedureAST *Parser::parseUnit() {
  auto *P = make<ProcedureAST>();
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
  P->Name = consume().Name;

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

  ListBuilder<Decl> Decls(DeclStack);
  while (cur().is(TokenKind::KwInteger) || cur().is(TokenKind::KwReal) ||
         cur().is(TokenKind::KwLogical)) {
    // "real(x)" in statement position cannot occur, so a type keyword here
    // always begins a declaration.
    if (!parseDecl())
      syncToStatement();
  }
  P->Decls = Decls.finish(Prog->Mem);

  P->Body = parseStmtList();
  expectEnd(EndKw, "unit");
  return P;
}

void Parser::parseParams(ProcedureAST &P) {
  if (cur().is(TokenKind::RParen))
    return;
  ListBuilder<NameID> Params(NameStack);
  do {
    if (!cur().is(TokenKind::Identifier)) {
      error("expected parameter name");
      break;
    }
    Params.push(consume().Name);
  } while (match(TokenKind::Comma));
  P.Params = Params.finish(Prog->Mem);
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

bool Parser::parseDeclarator() {
  if (!cur().is(TokenKind::Identifier)) {
    error("expected variable name in declaration");
    return false;
  }
  Declarator V;
  V.Loc = cur().Loc;
  V.Name = consume().Name;
  if (match(TokenKind::LParen)) {
    ListBuilder<Declarator::Dim> Dims(DimStack);
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
      Dims.push({Lo, Hi});
    } while (match(TokenKind::Comma));
    if (!expect(TokenKind::RParen, "after array dimensions"))
      return false;
    V.Dims = Dims.finish(Prog->Mem);
  }
  DeclaratorStack.push_back(V);
  return true;
}

bool Parser::parseDecl() {
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
  ListBuilder<Declarator> Vars(DeclaratorStack);
  do {
    if (!parseDeclarator())
      return false;
  } while (match(TokenKind::Comma));
  D.Vars = Vars.finish(Prog->Mem);
  DeclStack.push_back(D);
  return true;
}

StmtList Parser::parseStmtList() {
  ListBuilder<StmtPtr> Stmts(StmtStack);
  while (startsStatement(cur().Kind)) {
    StmtPtr S = parseStmt();
    if (!S) {
      syncToStatement();
      continue;
    }
    Stmts.push(S);
  }
  return Stmts.finish(Prog->Mem);
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
    return make<PrintStmt>(Loc, E);
  }
  case TokenKind::KwReturn: {
    SourceLocation Loc = consume().Loc;
    ExprPtr E = nullptr;
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
    return make<ReturnStmt>(Loc, E);
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
  auto *If = make<IfStmt>(Loc, Cond);
  If->Then = parseStmtList();

  IfStmt *Tail = If;
  while (cur().is(TokenKind::KwElseif)) {
    SourceLocation ELoc = consume().Loc;
    expect(TokenKind::LParen, "after 'elseif'");
    ExprPtr ECond = parseExpr();
    expect(TokenKind::RParen, "after elseif condition");
    expect(TokenKind::KwThen, "after elseif condition");
    if (!ECond)
      return nullptr;
    auto *Nested = make<IfStmt>(ELoc, ECond);
    Nested->Then = parseStmtList();
    StmtPtr Only = Nested;
    Tail->Else = Prog->Mem.copy(std::span<const StmtPtr>(&Only, 1));
    Tail = Nested;
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
  auto *Do = make<DoStmt>(Loc, consume().Name);
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
  auto *W = make<WhileStmt>(Loc, Cond);
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
  NameID Callee = consume().Name;
  ExprList Args;
  if (match(TokenKind::LParen)) {
    if (!cur().is(TokenKind::RParen))
      Args = parseArgList();
    expect(TokenKind::RParen, "after call arguments");
  }
  return make<CallStmt>(Loc, Callee, Args);
}

StmtPtr Parser::parseAssign() {
  SourceLocation Loc = cur().Loc;
  NameID Name = consume().Name;
  if (match(TokenKind::LParen)) {
    ExprList Indices = parseArgList();
    expect(TokenKind::RParen, "after subscripts");
    expect(TokenKind::Assign, "in array assignment");
    ExprPtr V = parseExpr();
    if (!V)
      return nullptr;
    return make<ArrayAssignStmt>(Loc, Name, Indices, V);
  }
  expect(TokenKind::Assign, "in assignment");
  ExprPtr V = parseExpr();
  if (!V)
    return nullptr;
  return make<AssignStmt>(Loc, Name, V);
}

ExprList Parser::parseArgList() {
  ListBuilder<ExprPtr> Args(ExprStack);
  do {
    ExprPtr E = parseExpr();
    if (!E)
      break;
    Args.push(E);
  } while (match(TokenKind::Comma));
  return Args.finish(Prog->Mem);
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
    L = make<BinaryExpr>(Loc, BinaryOp::Or, L, R);
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
    L = make<BinaryExpr>(Loc, BinaryOp::And, L, R);
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
    return make<UnaryExpr>(Loc, UnaryOp::Not, Sub);
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
  return make<BinaryExpr>(Loc, Op, L, R);
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
    L = make<BinaryExpr>(Loc, Op, L, R);
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
    L = make<BinaryExpr>(Loc, Op, L, R);
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
    return make<UnaryExpr>(Loc, UnaryOp::Neg, Sub);
  }
  return parsePrimary();
}

ExprPtr Parser::parsePrimary() {
  SourceLocation Loc = cur().Loc;
  switch (cur().Kind) {
  case TokenKind::IntLiteral:
    return make<IntLitExpr>(Loc, consume().IntValue);
  case TokenKind::RealLiteral:
    return make<RealLitExpr>(Loc, consume().RealValue);
  case TokenKind::KwTrue:
    consume();
    return make<BoolLitExpr>(Loc, true);
  case TokenKind::KwFalse:
    consume();
    return make<BoolLitExpr>(Loc, false);
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
    return make<UnaryExpr>(Loc, UnaryOp::RealCast, E);
  }
  case TokenKind::Identifier: {
    NameID Id = consume().Name;
    if (!match(TokenKind::LParen))
      return make<VarRefExpr>(Loc, Id);
    ExprList Args = parseArgList();
    expect(TokenKind::RParen, "after argument list");
    if (TooDeep)
      return nullptr;

    // Intrinsics recognised by name; everything else is an array reference
    // or a user-function call, disambiguated by semantic analysis.
    std::string_view Name = Prog->spelling(Id);
    auto Arity = [&](size_t N) {
      if (Args.size() != N) {
        Diags.error(Loc, "intrinsic '" + std::string(Name) + "' expects " +
                             std::to_string(N) + " argument(s), got " +
                             std::to_string(Args.size()));
        return false;
      }
      return true;
    };
    if (Name == "abs") {
      if (!Arity(1))
        return nullptr;
      return make<UnaryExpr>(Loc, UnaryOp::Abs, Args[0]);
    }
    if (Name == "int") {
      if (!Arity(1))
        return nullptr;
      return make<UnaryExpr>(Loc, UnaryOp::IntCast, Args[0]);
    }
    if (Name == "mod") {
      if (!Arity(2))
        return nullptr;
      return make<BinaryExpr>(Loc, BinaryOp::Mod, Args[0], Args[1]);
    }
    if (Name == "min" || Name == "max") {
      if (Args.size() < 2) {
        Diags.error(Loc, "intrinsic '" + std::string(Name) +
                             "' expects at least 2 args");
        return nullptr;
      }
      BinaryOp Op = (Name == "min") ? BinaryOp::Min : BinaryOp::Max;
      Nesting Nest(*this);
      ExprPtr Acc = Args[0];
      for (size_t K = 1; K != Args.size(); ++K) {
        if (!Nest.enter())
          return nullptr;
        Acc = make<BinaryExpr>(Loc, Op, Acc, Args[K]);
      }
      return Acc;
    }
    // Array reference or user call; sema decides which.
    return make<ArrayRefExpr>(Loc, Id, Args);
  }
  default:
    error("expected expression, found " +
          std::string(tokenKindName(cur().Kind)));
    return nullptr;
  }
}
