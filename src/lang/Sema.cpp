#include "lang/Sema.h"

#include <algorithm>

using namespace nascent;

bool Sema::convertible(ScalarType From, ScalarType To) {
  if (From == To)
    return true;
  return (From == ScalarType::Int && To == ScalarType::Real) ||
         (From == ScalarType::Real && To == ScalarType::Int);
}

std::unique_ptr<Module> Sema::run() {
  M = std::make_unique<Module>();
  FuncOf.assign(Prog.Names.size(), nullptr);
  Units.reserve(Prog.Units.size());

  unsigned NumPrograms = 0;
  for (ProcedureAST *U : Prog.Units) {
    declareUnit(*U);
    if (U->Kind == UnitKind::Program) {
      ++NumPrograms;
      M->setEntry(std::string(Prog.spelling(U->Name)));
    }
  }
  SymOf.assign(Units.size() * Prog.Names.size(), InvalidSymbol);
  if (NumPrograms != 1)
    Diags.error(SourceLocation(),
                "a source file must contain exactly one 'program' unit");

  // Declarations (and thus parameter types) must exist for every unit
  // before any body is analyzed, so cross-unit calls can be checked.
  for (auto &U : Units)
    analyzeUnit(U);
  for (auto &U : Units) {
    ActiveDoIndices.clear();
    analyzeStmtList(U, U.AST->Body);
  }

  if (Diags.hasErrors())
    return nullptr;
  return std::move(M);
}

void Sema::declareUnit(ProcedureAST &P) {
  if (functionOf(P.Name) != nullptr) {
    Diags.error(P.Loc, "duplicate unit name " + quoted(P.Name));
    return;
  }
  Function *F = M->createFunction(std::string(Prog.spelling(P.Name)));
  if (P.ResultTy)
    F->setResultType(*P.ResultTy);
  FuncOf[P.Name] = F;
  Units.push_back({&P, F, Units.size()});
}

void Sema::analyzeUnit(UnitState &U) {
  ProcedureAST &P = *U.AST;
  Function &F = *U.F;
  SymbolTable &Syms = F.symbols();

  auto IsParamName = [&](NameID N) {
    return std::find(P.Params.begin(), P.Params.end(), N) != P.Params.end();
  };
  // Parameter lists are short: a quadratic duplicate scan is cheapest.
  for (size_t K = 1; K < P.Params.size(); ++K)
    if (std::find(P.Params.begin(), P.Params.begin() + K, P.Params[K]) !=
        P.Params.begin() + K) {
      Diags.error(P.Loc, "duplicate parameter name in " + quoted(P.Name));
      break;
    }

  // Create symbols for every declaration.
  for (Decl &D : P.Decls) {
    for (Declarator &V : D.Vars) {
      SymbolID &Slot = symOf(U, V.Name);
      if (Slot != InvalidSymbol) {
        Diags.error(V.Loc, "redeclaration of " + quoted(V.Name));
        continue;
      }
      bool IsParam = IsParamName(V.Name);
      std::string_view Name = Prog.spelling(V.Name);
      if (V.Dims.empty()) {
        Slot = Syms.createScalar(Name, D.Ty, IsParam);
        continue;
      }
      ArrayShape Shape;
      Shape.Element = D.Ty;
      bool BadDims = false;
      // Extents and the element count must fit in int64: every access
      // computes its offset from them.
      int64_t Count = 1;
      bool Overflows = false;
      Shape.Dims.reserve(V.Dims.size());
      for (auto [Lo, Hi] : V.Dims) {
        if (Hi < Lo) {
          Diags.error(V.Loc, "array " + quoted(V.Name) +
                                 " has empty dimension " +
                                 std::to_string(Lo) + ":" +
                                 std::to_string(Hi));
          BadDims = true;
        }
        int64_t Extent = 0;
        Overflows = Overflows || __builtin_sub_overflow(Hi, Lo, &Extent) ||
                    __builtin_add_overflow(Extent, 1, &Extent) ||
                    __builtin_mul_overflow(Count, Extent, &Count);
        Shape.Dims.push_back({Lo, Hi});
      }
      // The shape is still declared, so its uses add no diagnostics.
      if (Overflows && !BadDims)
        Diags.error(V.Loc, "array " + quoted(V.Name) +
                               " has more elements than a 64-bit "
                               "integer can count");
      if (!BadDims)
        Slot = Syms.createArray(Name, std::move(Shape), IsParam);
    }
  }

  // Bind parameters in declaration order; every parameter must be declared.
  for (NameID Name : P.Params) {
    SymbolID S = symOf(U, Name);
    if (S == InvalidSymbol) {
      Diags.error(P.Loc, "parameter " + quoted(Name) + " of " +
                             quoted(P.Name) + " is not declared");
      continue;
    }
    F.params().push_back(S);
  }

  if (P.Kind == UnitKind::Program && !P.Params.empty())
    Diags.error(P.Loc, "the program unit takes no parameters");
}

void Sema::analyzeStmtList(UnitState &U, StmtList Stmts) {
  for (StmtPtr S : Stmts)
    if (S)
      analyzeStmt(U, *S);
}

void Sema::analyzeStmt(UnitState &U, Stmt &S) {
  SymbolTable &Syms = U.F->symbols();
  switch (S.Kind) {
  case StmtKind::Assign: {
    auto &A = static_cast<AssignStmt &>(S);
    SymbolID Sym = symOf(U, A.Name);
    if (Sym == InvalidSymbol) {
      Diags.error(A.Loc, "use of undeclared variable " + quoted(A.Name));
      return;
    }
    const Symbol &Info = Syms.get(Sym);
    if (Info.isArray()) {
      Diags.error(A.Loc, "cannot assign to whole array " + quoted(A.Name));
      return;
    }
    if (std::find(ActiveDoIndices.begin(), ActiveDoIndices.end(), Sym) !=
        ActiveDoIndices.end()) {
      Diags.error(A.Loc, "assignment to active do-loop index " +
                             quoted(A.Name) + " is not allowed");
      return;
    }
    A.Sym = Sym;
    if (!analyzeExpr(U, A.Value))
      return;
    if (!convertible(A.Value->Ty, Info.Type))
      Diags.error(A.Loc, "cannot assign " +
                             std::string(scalarTypeName(A.Value->Ty)) +
                             " to " + scalarTypeName(Info.Type) +
                             " variable " + quoted(A.Name));
    return;
  }
  case StmtKind::ArrayAssign: {
    auto &A = static_cast<ArrayAssignStmt &>(S);
    SymbolID Sym = symOf(U, A.Name);
    if (Sym == InvalidSymbol) {
      Diags.error(A.Loc, "use of undeclared variable " + quoted(A.Name));
      return;
    }
    const Symbol &Info = Syms.get(Sym);
    if (!Info.isArray()) {
      Diags.error(A.Loc, quoted(A.Name) + " is not an array");
      return;
    }
    if (A.Indices.size() != Info.Shape.rank()) {
      Diags.error(A.Loc, "array " + quoted(A.Name) + " has rank " +
                             std::to_string(Info.Shape.rank()) + ", got " +
                             std::to_string(A.Indices.size()) +
                             " subscripts");
      return;
    }
    A.Sym = Sym;
    for (ExprPtr &I : A.Indices) {
      if (!analyzeExpr(U, I))
        return;
      if (I->Ty != ScalarType::Int)
        Diags.error(I->Loc, "array subscript must be integer");
    }
    if (!analyzeExpr(U, A.Value))
      return;
    if (!convertible(A.Value->Ty, Info.Type))
      Diags.error(A.Loc,
                  "element type mismatch in assignment to " + quoted(A.Name));
    return;
  }
  case StmtKind::If: {
    auto &I = static_cast<IfStmt &>(S);
    if (analyzeExpr(U, I.Cond) && I.Cond->Ty != ScalarType::Bool)
      Diags.error(I.Cond->Loc, "if condition must be logical");
    analyzeStmtList(U, I.Then);
    analyzeStmtList(U, I.Else);
    return;
  }
  case StmtKind::Do: {
    auto &D = static_cast<DoStmt &>(S);
    SymbolID Sym = symOf(U, D.IndexName);
    if (Sym == InvalidSymbol) {
      Diags.error(D.Loc, "use of undeclared do index " + quoted(D.IndexName));
      return;
    }
    const Symbol &Info = Syms.get(Sym);
    if (Info.isArray() || Info.Type != ScalarType::Int) {
      Diags.error(D.Loc, "do index " + quoted(D.IndexName) +
                             " must be an integer scalar");
      return;
    }
    if (std::find(ActiveDoIndices.begin(), ActiveDoIndices.end(), Sym) !=
        ActiveDoIndices.end()) {
      Diags.error(D.Loc, "do index " + quoted(D.IndexName) +
                             " is already in use by an enclosing loop");
      return;
    }
    if (D.Step == 0) {
      Diags.error(D.Loc, "do step must be nonzero");
      return;
    }
    D.IndexSym = Sym;
    if (analyzeExpr(U, D.Lower) && D.Lower->Ty != ScalarType::Int)
      Diags.error(D.Lower->Loc, "do bounds must be integer");
    if (analyzeExpr(U, D.Upper) && D.Upper->Ty != ScalarType::Int)
      Diags.error(D.Upper->Loc, "do bounds must be integer");
    // The optimizer evaluates the loop-entry guard in the preheader, after
    // the index is initialised: bounds may not mention the index itself.
    auto UsesIndex = [Sym](const Expr &E, auto &Self) -> bool {
      switch (E.Kind) {
      case ExprKind::VarRef:
        return static_cast<const VarRefExpr &>(E).Sym == Sym;
      case ExprKind::ArrayRef: {
        const auto &A = static_cast<const ArrayRefExpr &>(E);
        for (const Expr *I : A.Indices)
          if (I && Self(*I, Self))
            return true;
        return false;
      }
      case ExprKind::Unary: {
        const auto &Un = static_cast<const UnaryExpr &>(E);
        return Un.Sub && Self(*Un.Sub, Self);
      }
      case ExprKind::Binary: {
        const auto &Bi = static_cast<const BinaryExpr &>(E);
        return (Bi.LHS && Self(*Bi.LHS, Self)) ||
               (Bi.RHS && Self(*Bi.RHS, Self));
      }
      case ExprKind::Call: {
        const auto &C = static_cast<const CallExpr &>(E);
        for (const Expr *A : C.Args)
          if (A && Self(*A, Self))
            return true;
        return false;
      }
      default:
        return false;
      }
    };
    if ((D.Lower && UsesIndex(*D.Lower, UsesIndex)) ||
        (D.Upper && UsesIndex(*D.Upper, UsesIndex)))
      Diags.error(D.Loc, "do bounds may not reference the loop index " +
                             quoted(D.IndexName));
    ActiveDoIndices.push_back(Sym);
    analyzeStmtList(U, D.Body);
    ActiveDoIndices.pop_back();
    return;
  }
  case StmtKind::While: {
    auto &W = static_cast<WhileStmt &>(S);
    if (analyzeExpr(U, W.Cond) && W.Cond->Ty != ScalarType::Bool)
      Diags.error(W.Cond->Loc, "while condition must be logical");
    analyzeStmtList(U, W.Body);
    return;
  }
  case StmtKind::Call: {
    auto &C = static_cast<CallStmt &>(S);
    const Function *Callee = functionOf(C.Callee);
    if (!Callee) {
      Diags.error(C.Loc, "call to unknown subroutine " + quoted(C.Callee));
      return;
    }
    if (Callee->resultType()) {
      Diags.error(C.Loc, quoted(C.Callee) +
                             " is a function; call it in an expression");
      return;
    }
    checkCallArgs(U, C.Callee, C.Args, C.Loc);
    return;
  }
  case StmtKind::Print: {
    auto &P = static_cast<PrintStmt &>(S);
    analyzeExpr(U, P.Value);
    return;
  }
  case StmtKind::Return: {
    auto &R = static_cast<ReturnStmt &>(S);
    bool IsFunction = U.F->resultType().has_value();
    if (IsFunction) {
      if (!R.Value) {
        Diags.error(R.Loc,
                    "function '" + U.F->name() + "' must return a value");
        return;
      }
      if (analyzeExpr(U, R.Value) &&
          !convertible(R.Value->Ty, *U.F->resultType()))
        Diags.error(R.Loc, "return type mismatch in '" + U.F->name() + "'");
    } else if (R.Value) {
      Diags.error(R.Loc, "'" + U.F->name() + "' cannot return a value");
    }
    return;
  }
  }
}

bool Sema::resolvePostfix(UnitState &U, ExprPtr &Slot) {
  auto &A = static_cast<ArrayRefExpr &>(*Slot);
  SymbolTable &Syms = U.F->symbols();
  SymbolID Sym = symOf(U, A.Name);
  if (Sym != InvalidSymbol) {
    const Symbol &Info = Syms.get(Sym);
    if (!Info.isArray()) {
      Diags.error(A.Loc, quoted(A.Name) + " is not an array");
      return false;
    }
    if (A.Indices.size() != Info.Shape.rank()) {
      Diags.error(A.Loc, "array " + quoted(A.Name) + " has rank " +
                             std::to_string(Info.Shape.rank()) + ", got " +
                             std::to_string(A.Indices.size()) +
                             " subscripts");
      return false;
    }
    A.Sym = Sym;
    A.Ty = Info.Type;
    for (ExprPtr &I : A.Indices) {
      if (!analyzeExpr(U, I))
        return false;
      if (I->Ty != ScalarType::Int) {
        Diags.error(I->Loc, "array subscript must be integer");
        return false;
      }
    }
    return true;
  }

  // Not a local array: try a user function.
  const Function *Callee = functionOf(A.Name);
  if (!Callee) {
    Diags.error(A.Loc, "use of undeclared array or function " + quoted(A.Name));
    return false;
  }
  if (!Callee->resultType()) {
    Diags.error(A.Loc,
                "subroutine " + quoted(A.Name) +
                    " cannot be used in an expression");
    return false;
  }
  auto *Call = Prog.Mem.make<CallExpr>(A.Loc, A.Name, A.Indices);
  Call->Ty = *Callee->resultType();
  if (!checkCallArgs(U, Call->Callee, Call->Args, Call->Loc))
    return false;
  Slot = Call;
  return true;
}

bool Sema::checkCallArgs(UnitState &U, NameID CalleeName, ExprList Args,
                         SourceLocation Loc) {
  const Function *Callee = functionOf(CalleeName);
  assert(Callee && "callee existence checked by caller");
  if (Args.size() != Callee->params().size()) {
    Diags.error(Loc, quoted(CalleeName) + " expects " +
                         std::to_string(Callee->params().size()) +
                         " argument(s), got " + std::to_string(Args.size()));
    return false;
  }
  bool OK = true;
  for (size_t K = 0; K != Args.size(); ++K) {
    const Symbol &Param = Callee->symbols().get(Callee->params()[K]);
    if (!analyzeExpr(U, Args[K], /*AllowWholeArray=*/Param.isArray())) {
      OK = false;
      continue;
    }
    if (Param.isArray()) {
      // Whole-array argument: must be a bare variable reference naming an
      // array with identical shape (see DESIGN.md on array parameters).
      auto *V = Args[K]->Kind == ExprKind::VarRef
                    ? static_cast<VarRefExpr *>(Args[K])
                    : nullptr;
      const Symbol *ArgSym =
          V && V->Sym != InvalidSymbol ? &U.F->symbols().get(V->Sym) : nullptr;
      if (!ArgSym || !ArgSym->isArray()) {
        Diags.error(Args[K]->Loc, "argument " + std::to_string(K + 1) +
                                      " of " + quoted(CalleeName) +
                                      " must be a whole array");
        OK = false;
        continue;
      }
      if (ArgSym->Shape.rank() != Param.Shape.rank() ||
          ArgSym->Type != Param.Type) {
        Diags.error(Args[K]->Loc, "array argument " + std::to_string(K + 1) +
                                      " of " + quoted(CalleeName) +
                                      " has mismatched rank or element type");
        OK = false;
        continue;
      }
      for (size_t D = 0; D != ArgSym->Shape.rank(); ++D) {
        if (ArgSym->Shape.Dims[D].Lower != Param.Shape.Dims[D].Lower ||
            ArgSym->Shape.Dims[D].Upper != Param.Shape.Dims[D].Upper) {
          Diags.error(Args[K]->Loc,
                      "array argument " + std::to_string(K + 1) + " of " +
                          quoted(CalleeName) + " has mismatched bounds");
          OK = false;
          break;
        }
      }
    } else {
      if (!convertible(Args[K]->Ty, Param.Type)) {
        Diags.error(Args[K]->Loc, "argument " + std::to_string(K + 1) +
                                      " of " + quoted(CalleeName) +
                                      " has incompatible type");
        OK = false;
      }
    }
  }
  return OK;
}

bool Sema::analyzeExpr(UnitState &U, ExprPtr &Slot, bool AllowWholeArray) {
  assert(Slot && "null expression slot");
  Expr &E = *Slot;
  SymbolTable &Syms = U.F->symbols();
  switch (E.Kind) {
  case ExprKind::IntLit:
    E.Ty = ScalarType::Int;
    return true;
  case ExprKind::RealLit:
    E.Ty = ScalarType::Real;
    return true;
  case ExprKind::BoolLit:
    E.Ty = ScalarType::Bool;
    return true;
  case ExprKind::VarRef: {
    auto &V = static_cast<VarRefExpr &>(E);
    SymbolID Sym = symOf(U, V.Name);
    if (Sym == InvalidSymbol) {
      Diags.error(V.Loc, "use of undeclared variable " + quoted(V.Name));
      return false;
    }
    const Symbol &Info = Syms.get(Sym);
    if (Info.isArray() && !AllowWholeArray) {
      Diags.error(V.Loc, "whole array " + quoted(V.Name) +
                             " cannot be used in an expression");
      return false;
    }
    V.Sym = Sym;
    V.Ty = Info.Type;
    return true;
  }
  case ExprKind::ArrayRef:
    return resolvePostfix(U, Slot);
  case ExprKind::Unary: {
    auto &Un = static_cast<UnaryExpr &>(E);
    if (!analyzeExpr(U, Un.Sub))
      return false;
    switch (Un.Op) {
    case UnaryOp::Neg:
    case UnaryOp::Abs:
      if (Un.Sub->Ty == ScalarType::Bool) {
        Diags.error(Un.Loc, "numeric operator applied to logical value");
        return false;
      }
      Un.Ty = Un.Sub->Ty;
      return true;
    case UnaryOp::Not:
      if (Un.Sub->Ty != ScalarType::Bool) {
        Diags.error(Un.Loc, "'not' requires a logical operand");
        return false;
      }
      Un.Ty = ScalarType::Bool;
      return true;
    case UnaryOp::IntCast:
      if (Un.Sub->Ty == ScalarType::Bool) {
        Diags.error(Un.Loc, "int() requires a numeric operand");
        return false;
      }
      Un.Ty = ScalarType::Int;
      return true;
    case UnaryOp::RealCast:
      if (Un.Sub->Ty == ScalarType::Bool) {
        Diags.error(Un.Loc, "real() requires a numeric operand");
        return false;
      }
      Un.Ty = ScalarType::Real;
      return true;
    }
    return false;
  }
  case ExprKind::Binary: {
    auto &B = static_cast<BinaryExpr &>(E);
    if (!analyzeExpr(U, B.LHS) || !analyzeExpr(U, B.RHS))
      return false;
    ScalarType L = B.LHS->Ty, R = B.RHS->Ty;
    switch (B.Op) {
    case BinaryOp::Add:
    case BinaryOp::Sub:
    case BinaryOp::Mul:
    case BinaryOp::Div:
    case BinaryOp::Min:
    case BinaryOp::Max:
      if (L == ScalarType::Bool || R == ScalarType::Bool) {
        Diags.error(B.Loc, "numeric operator applied to logical value");
        return false;
      }
      B.Ty = (L == ScalarType::Real || R == ScalarType::Real)
                 ? ScalarType::Real
                 : ScalarType::Int;
      return true;
    case BinaryOp::Mod:
      if (L != ScalarType::Int || R != ScalarType::Int) {
        Diags.error(B.Loc, "mod() requires integer operands");
        return false;
      }
      B.Ty = ScalarType::Int;
      return true;
    case BinaryOp::Eq:
    case BinaryOp::Ne:
    case BinaryOp::Lt:
    case BinaryOp::Le:
    case BinaryOp::Gt:
    case BinaryOp::Ge:
      if ((L == ScalarType::Bool) != (R == ScalarType::Bool)) {
        Diags.error(B.Loc, "cannot compare logical with numeric value");
        return false;
      }
      if (L == ScalarType::Bool && B.Op != BinaryOp::Eq &&
          B.Op != BinaryOp::Ne) {
        Diags.error(B.Loc, "ordering comparison of logical values");
        return false;
      }
      B.Ty = ScalarType::Bool;
      return true;
    case BinaryOp::And:
    case BinaryOp::Or:
      if (L != ScalarType::Bool || R != ScalarType::Bool) {
        Diags.error(B.Loc, "logical operator requires logical operands");
        return false;
      }
      B.Ty = ScalarType::Bool;
      return true;
    }
    return false;
  }
  case ExprKind::Call: {
    auto &C = static_cast<CallExpr &>(E);
    const Function *Callee = functionOf(C.Callee);
    if (!Callee || !Callee->resultType()) {
      Diags.error(C.Loc, "unknown function " + quoted(C.Callee));
      return false;
    }
    C.Ty = *Callee->resultType();
    return checkCallArgs(U, C.Callee, C.Args, C.Loc);
  }
  }
  return false;
}
