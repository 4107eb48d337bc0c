//===----------------------------------------------------------------------===//
///
/// \file
/// Tokens of the mini-Fortran language. The language is a small
/// Fortran-flavoured imperative language: enough to express the paper's
/// benchmark programs (multi-dimensional constant-bound arrays, counted
/// do loops, while loops, procedures) without the full F77 grammar.
///
//===----------------------------------------------------------------------===//

#ifndef NASCENT_LANG_TOKEN_H
#define NASCENT_LANG_TOKEN_H

#include "support/SourceLocation.h"

#include <cstdint>
#include <string>
#include <string_view>

namespace nascent {

enum class TokenKind {
  Eof,
  Identifier,
  IntLiteral,
  RealLiteral,
  // Keywords
  KwProgram,
  KwSubroutine,
  KwFunction,
  KwEnd,
  KwInteger,
  KwReal,
  KwLogical,
  KwIf,
  KwThen,
  KwElseif,
  KwElse,
  KwDo,
  KwWhile,
  KwCall,
  KwPrint,
  KwReturn,
  KwAnd,
  KwOr,
  KwNot,
  KwTrue,
  KwFalse,
  // Punctuation and operators
  Assign,    // =
  EqEq,      // ==
  NotEq,     // /=
  Less,      // <
  LessEq,    // <=
  Greater,   // >
  GreaterEq, // >=
  Plus,
  Minus,
  Star,
  Slash,
  LParen,
  RParen,
  Comma,
  Colon,
  Error, ///< lexical error; Text holds the message
};

/// Returns a printable name for \p K (used in parse diagnostics).
const char *tokenKindName(TokenKind K);

/// Dense index of an interned identifier (see NameTable in lang/AST.h).
using NameID = uint32_t;

/// One lexed token. Tokens refer to the source buffer, which must outlive
/// them; identifiers carry their interned, lower-cased name.
struct Token {
  TokenKind Kind = TokenKind::Eof;
  SourceLocation Loc;
  NameID Name = ~NameID(0); ///< for Identifier
  /// The token's characters in the source buffer (for an Error token, the
  /// offending character).
  std::string_view Text;
  int64_t IntValue = 0; ///< for IntLiteral
  double RealValue = 0; ///< for RealLiteral
  /// An IntLiteral whose digits exceed INT64_MAX; IntValue is INT64_MAX.
  bool TooBig = false;

  bool is(TokenKind K) const { return Kind == K; }

  /// The diagnostic text of an Error token or an oversized IntLiteral.
  std::string message() const;
};

} // namespace nascent

#endif // NASCENT_LANG_TOKEN_H
