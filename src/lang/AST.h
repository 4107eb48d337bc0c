//===----------------------------------------------------------------------===//
///
/// \file
/// Abstract syntax tree of mini-Fortran. Semantic analysis annotates the
/// tree in place (symbol ids, expression types); the front end then lowers
/// the annotated tree to the Nascent IR, inserting naive range checks.
///
/// Every node, child list and identifier spelling of a program lives in
/// its ProgramAST's arena, and every identifier is interned once into the
/// program's name table: nodes name things by NameID, so the tree holds
/// no owning pointer, vector or string, and releasing the arena frees it.
///
//===----------------------------------------------------------------------===//

#ifndef NASCENT_LANG_AST_H
#define NASCENT_LANG_AST_H

#include "ir/Symbol.h"
#include "support/Arena.h"
#include "support/SourceLocation.h"

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

namespace nascent {

/// Dense index of an interned identifier within one program.
using NameID = uint32_t;
constexpr NameID InvalidName = ~NameID(0);

/// The identifiers of one program, each spelled once (lower case, as the
/// lexer folds them) in the program's arena and named by a dense id in
/// first-occurrence order.
class NameTable {
public:
  explicit NameTable(Arena &Mem) : Mem(Mem) {}

  /// The id of \p Spelling, interning it if new.
  NameID intern(std::string_view Spelling);

  /// The id of \p Spelling, or InvalidName when it was never interned.
  NameID find(std::string_view Spelling) const;

  std::string_view spelling(NameID ID) const { return Spellings[ID]; }
  size_t size() const { return Spellings.size(); }

private:
  size_t slotFor(std::string_view Spelling, uint64_t Hash) const;

  Arena &Mem;
  std::vector<std::string_view> Spellings;
  /// Open addressing: id + 1 per slot, 0 free; a power of two, at most
  /// half full.
  std::vector<uint32_t> Slots;
};

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

enum class ExprKind {
  IntLit,
  RealLit,
  BoolLit,
  VarRef,
  ArrayRef,
  Unary,
  Binary,
  Call,
};

/// Base class of all expressions. \c Ty is filled by semantic analysis.
/// Nodes are arena-allocated and dispatched on \c Kind.
struct Expr {
  ExprKind Kind;
  SourceLocation Loc;
  ScalarType Ty = ScalarType::Int;

  Expr(ExprKind Kind, SourceLocation Loc) : Kind(Kind), Loc(Loc) {}
};

/// An expression slot. Sema may replace the node it points to.
using ExprPtr = Expr *;
/// A child list in the arena.
using ExprList = std::span<ExprPtr>;

struct IntLitExpr : Expr {
  int64_t Value;
  IntLitExpr(SourceLocation Loc, int64_t Value)
      : Expr(ExprKind::IntLit, Loc), Value(Value) {}
};

struct RealLitExpr : Expr {
  double Value;
  RealLitExpr(SourceLocation Loc, double Value)
      : Expr(ExprKind::RealLit, Loc), Value(Value) {}
};

struct BoolLitExpr : Expr {
  bool Value;
  BoolLitExpr(SourceLocation Loc, bool Value)
      : Expr(ExprKind::BoolLit, Loc), Value(Value) {}
};

/// A scalar variable reference. \c Sym is filled by semantic analysis.
struct VarRefExpr : Expr {
  NameID Name;
  SymbolID Sym = InvalidSymbol;
  VarRefExpr(SourceLocation Loc, NameID Name)
      : Expr(ExprKind::VarRef, Loc), Name(Name) {}
};

/// An array element reference A(i, j, ...).
struct ArrayRefExpr : Expr {
  NameID Name;
  SymbolID Sym = InvalidSymbol;
  ExprList Indices;
  ArrayRefExpr(SourceLocation Loc, NameID Name, ExprList Indices)
      : Expr(ExprKind::ArrayRef, Loc), Name(Name), Indices(Indices) {}
};

enum class UnaryOp {
  Neg,
  Not,
  Abs,      ///< abs(x) intrinsic
  IntCast,  ///< int(x) intrinsic (truncation)
  RealCast, ///< real(x) intrinsic
};

struct UnaryExpr : Expr {
  UnaryOp Op;
  ExprPtr Sub;
  UnaryExpr(SourceLocation Loc, UnaryOp Op, ExprPtr Sub)
      : Expr(ExprKind::Unary, Loc), Op(Op), Sub(Sub) {}
};

enum class BinaryOp {
  Add,
  Sub,
  Mul,
  Div,
  Mod, ///< mod(a, b) intrinsic
  Min, ///< min(a, b) intrinsic
  Max, ///< max(a, b) intrinsic
  Eq,
  Ne,
  Lt,
  Le,
  Gt,
  Ge,
  And,
  Or,
};

struct BinaryExpr : Expr {
  BinaryOp Op;
  ExprPtr LHS;
  ExprPtr RHS;
  BinaryExpr(SourceLocation Loc, BinaryOp Op, ExprPtr LHS, ExprPtr RHS)
      : Expr(ExprKind::Binary, Loc), Op(Op), LHS(LHS), RHS(RHS) {}
};

/// A user-function call in expression position.
struct CallExpr : Expr {
  NameID Callee;
  ExprList Args;
  CallExpr(SourceLocation Loc, NameID Callee, ExprList Args)
      : Expr(ExprKind::Call, Loc), Callee(Callee), Args(Args) {}
};

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

enum class StmtKind {
  Assign,
  ArrayAssign,
  If,
  Do,
  While,
  Call,
  Print,
  Return,
};

/// Base class of all statements; arena-allocated like expressions.
struct Stmt {
  StmtKind Kind;
  SourceLocation Loc;
  Stmt(StmtKind Kind, SourceLocation Loc) : Kind(Kind), Loc(Loc) {}
};

using StmtPtr = Stmt *;
using StmtList = std::span<StmtPtr>;

struct AssignStmt : Stmt {
  NameID Name;
  SymbolID Sym = InvalidSymbol;
  ExprPtr Value;
  AssignStmt(SourceLocation Loc, NameID Name, ExprPtr Value)
      : Stmt(StmtKind::Assign, Loc), Name(Name), Value(Value) {}
};

struct ArrayAssignStmt : Stmt {
  NameID Name;
  SymbolID Sym = InvalidSymbol;
  ExprList Indices;
  ExprPtr Value;
  ArrayAssignStmt(SourceLocation Loc, NameID Name, ExprList Indices,
                  ExprPtr Value)
      : Stmt(StmtKind::ArrayAssign, Loc), Name(Name), Indices(Indices),
        Value(Value) {}
};

/// if/elseif/else; elseif chains are desugared by the parser into a nested
/// IfStmt in the Else list.
struct IfStmt : Stmt {
  ExprPtr Cond;
  StmtList Then;
  StmtList Else;
  IfStmt(SourceLocation Loc, ExprPtr Cond)
      : Stmt(StmtKind::If, Loc), Cond(Cond) {}
};

/// Counted loop: do i = lo, hi [, step] ... end do. Step must be a nonzero
/// integer constant (checked by sema).
struct DoStmt : Stmt {
  NameID IndexName;
  SymbolID IndexSym = InvalidSymbol;
  ExprPtr Lower = nullptr;
  ExprPtr Upper = nullptr;
  int64_t Step = 1;
  StmtList Body;
  DoStmt(SourceLocation Loc, NameID IndexName)
      : Stmt(StmtKind::Do, Loc), IndexName(IndexName) {}
};

struct WhileStmt : Stmt {
  ExprPtr Cond;
  StmtList Body;
  WhileStmt(SourceLocation Loc, ExprPtr Cond)
      : Stmt(StmtKind::While, Loc), Cond(Cond) {}
};

struct CallStmt : Stmt {
  NameID Callee;
  ExprList Args;
  CallStmt(SourceLocation Loc, NameID Callee, ExprList Args)
      : Stmt(StmtKind::Call, Loc), Callee(Callee), Args(Args) {}
};

struct PrintStmt : Stmt {
  ExprPtr Value;
  PrintStmt(SourceLocation Loc, ExprPtr Value)
      : Stmt(StmtKind::Print, Loc), Value(Value) {}
};

struct ReturnStmt : Stmt {
  ExprPtr Value; ///< null for subroutine return
  ReturnStmt(SourceLocation Loc, ExprPtr Value)
      : Stmt(StmtKind::Return, Loc), Value(Value) {}
};

//===----------------------------------------------------------------------===//
// Declarations and procedures
//===----------------------------------------------------------------------===//

/// One declarator in a declaration: a name with optional array dimensions.
/// "a(10)" means bounds 1:10; "a(0:9, 1:n)" is rejected (bounds must be
/// integer constants).
struct Declarator {
  /// Lower and upper bound of one dimension.
  struct Dim {
    int64_t Lo = 1;
    int64_t Hi = 0;
  };
  SourceLocation Loc;
  NameID Name = InvalidName;
  std::span<Dim> Dims; ///< empty for scalars
};

/// One declaration line: a type applied to declarators.
struct Decl {
  SourceLocation Loc;
  ScalarType Ty = ScalarType::Int;
  std::span<Declarator> Vars;
};

enum class UnitKind {
  Program,
  Subroutine,
  Function,
};

/// One compilation unit: the program, a subroutine, or a function.
struct ProcedureAST {
  UnitKind Kind = UnitKind::Program;
  SourceLocation Loc;
  NameID Name = InvalidName;
  std::span<NameID> Params;
  std::optional<ScalarType> ResultTy; ///< engaged for functions
  std::span<Decl> Decls;
  StmtList Body;
};

/// A whole source file: its units, and the arena and name table every
/// node and identifier of the file lives in.
struct ProgramAST {
  ProgramAST() = default;
  ProgramAST(const ProgramAST &) = delete;
  ProgramAST &operator=(const ProgramAST &) = delete;

  Arena Mem;
  NameTable Names{Mem};
  std::span<ProcedureAST *> Units;

  /// The spelling of identifier \p ID.
  std::string_view spelling(NameID ID) const { return Names.spelling(ID); }

  /// Finds a unit by name; null when absent.
  ProcedureAST *find(std::string_view Name) const {
    for (ProcedureAST *U : Units)
      if (spelling(U->Name) == Name)
        return U;
    return nullptr;
  }
};

} // namespace nascent

#endif // NASCENT_LANG_AST_H
