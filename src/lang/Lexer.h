//===----------------------------------------------------------------------===//
///
/// \file
/// Hand-written lexer for mini-Fortran. Whitespace and newlines are
/// insignificant; comments run from '!' to end of line. Identifiers and
/// keywords are case-insensitive (folded to lower case), as in Fortran.
///
/// The lexer reads the caller's buffer in place, classifies characters by
/// ASCII (as the "C" locale does), converts literals from their source
/// span and interns each identifier into the program's name table.
///
//===----------------------------------------------------------------------===//

#ifndef NASCENT_LANG_LEXER_H
#define NASCENT_LANG_LEXER_H

#include "lang/AST.h"
#include "lang/Token.h"

#include <string>
#include <string_view>

namespace nascent {

/// Lexes one source buffer into tokens on demand.
class Lexer {
public:
  /// Lexes \p Source, which must outlive the lexer and its tokens,
  /// interning identifiers into \p Names.
  Lexer(std::string_view Source, NameTable &Names)
      : Src(Source), Names(Names) {}

  /// Lexes and returns the next token (Eof at end of input; an Error token
  /// spans the bad character, Token::message() names it, and the lexer
  /// recovers by skipping it).
  Token next();

private:
  char peek() const { return Pos < Src.size() ? Src[Pos] : '\0'; }
  char peekAhead() const { return Pos + 1 < Src.size() ? Src[Pos + 1] : '\0'; }
  char advance();
  void skipTrivia();
  SourceLocation here() const { return SourceLocation(Line, Column); }

  Token lexNumber();
  Token lexIdentifier();

  std::string_view Src;
  NameTable &Names;
  /// Lower-cased spelling of an identifier written with capitals.
  std::string Folded;
  size_t Pos = 0;
  unsigned Line = 1;
  unsigned Column = 1;
};

} // namespace nascent

#endif // NASCENT_LANG_LEXER_H
