//===----------------------------------------------------------------------===//
///
/// \file
/// Semantic analysis for mini-Fortran: symbol resolution, type checking,
/// and the Fortran-style structural rules the optimizer relies on (e.g. a
/// do-loop index may not be assigned inside its loop, which guarantees the
/// loop-limit-substitution scheme's precondition).
///
/// Sema creates the IR Function shells (name, parameters, symbol table)
/// and annotates the AST with SymbolIDs and types; lowering then fills the
/// same Function objects with code. Because "a(i, j)" is syntactically
/// ambiguous between an array element and a function call, expression
/// analysis works on ExprPtr slots so the node can be rewritten. Names
/// resolve through the program's interned NameIDs: one flat table maps
/// (unit, name) to a symbol and one maps a name to its unit's Function.
///
//===----------------------------------------------------------------------===//

#ifndef NASCENT_LANG_SEMA_H
#define NASCENT_LANG_SEMA_H

#include "ir/Function.h"
#include "lang/AST.h"
#include "support/Diagnostics.h"

#include <memory>
#include <string>
#include <vector>

namespace nascent {

/// Runs semantic analysis over a parsed program.
class Sema {
public:
  Sema(ProgramAST &Prog, DiagnosticEngine &Diags)
      : Prog(Prog), Diags(Diags) {}

  /// Analyses the program. Returns a Module with one Function shell per
  /// unit (entry = the program unit), or null when analysis failed.
  std::unique_ptr<Module> run();

private:
  struct UnitState {
    ProcedureAST *AST = nullptr;
    Function *F = nullptr;
    /// Row of this unit in SymOf.
    size_t Row = 0;
  };

  void declareUnit(ProcedureAST &P);
  void analyzeUnit(UnitState &U);
  void analyzeStmtList(UnitState &U, StmtList Stmts);
  void analyzeStmt(UnitState &U, Stmt &S);

  /// Type-checks the expression in \p Slot, possibly replacing the node
  /// (ArrayRef -> Call). Returns false on a hard error.
  bool analyzeExpr(UnitState &U, ExprPtr &Slot, bool AllowWholeArray = false);

  /// Resolves an ArrayRefExpr that might actually be a user-function call.
  bool resolvePostfix(UnitState &U, ExprPtr &Slot);

  bool checkCallArgs(UnitState &U, NameID Callee, ExprList Args,
                     SourceLocation Loc);

  /// The symbol \p Name denotes in unit \p U; InvalidSymbol when none.
  SymbolID &symOf(const UnitState &U, NameID Name) {
    return SymOf[U.Row * Prog.Names.size() + Name];
  }
  /// The unit named \p Name; null when none.
  Function *functionOf(NameID Name) const { return FuncOf[Name]; }
  std::string quoted(NameID Name) const {
    return "'" + std::string(Prog.spelling(Name)) + "'";
  }

  /// True when \p From implicitly converts to \p To (Int <-> Real).
  static bool convertible(ScalarType From, ScalarType To);

  ProgramAST &Prog;
  DiagnosticEngine &Diags;
  std::unique_ptr<Module> M;
  std::vector<UnitState> Units;
  std::vector<SymbolID> SymOf;  ///< per (unit row, name)
  std::vector<Function *> FuncOf; ///< per name
  /// Symbols of enclosing do-loop indices, to reject assignment to an
  /// active loop index and index reuse in nested loops.
  std::vector<SymbolID> ActiveDoIndices;
};

} // namespace nascent

#endif // NASCENT_LANG_SEMA_H
