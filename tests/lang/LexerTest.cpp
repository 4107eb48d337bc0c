#include "lang/Lexer.h"

#include <gtest/gtest.h>

#include <cstdlib>

using namespace nascent;

namespace {

/// Every token of a source buffer, with the name table its identifiers
/// were interned into.
struct Lexed {
  explicit Lexed(std::string_view Src) {
    Lexer L(Src, Names);
    while (true) {
      Token T = L.next();
      Toks.push_back(T);
      if (T.is(TokenKind::Eof))
        break;
    }
  }
  const Token &operator[](size_t K) const { return Toks[K]; }
  size_t size() const { return Toks.size(); }
  /// The interned spelling of identifier token \p K.
  std::string_view name(size_t K) const { return Names.spelling(Toks[K].Name); }

  Arena Mem;
  NameTable Names{Mem};
  std::vector<Token> Toks;
};

/// \p Src must outlive the result: tokens point into it.
Lexed lexAll(std::string_view Src) { return Lexed(Src); }

TEST(Lexer, KeywordsAndIdentifiers) {
  auto Toks = lexAll("program foo end do while");
  ASSERT_EQ(Toks.size(), 6u);
  EXPECT_EQ(Toks[0].Kind, TokenKind::KwProgram);
  EXPECT_EQ(Toks[1].Kind, TokenKind::Identifier);
  EXPECT_EQ(Toks[1].Text, "foo");
  EXPECT_EQ(Toks[2].Kind, TokenKind::KwEnd);
  EXPECT_EQ(Toks[3].Kind, TokenKind::KwDo);
  EXPECT_EQ(Toks[4].Kind, TokenKind::KwWhile);
}

TEST(Lexer, CaseInsensitive) {
  auto Toks = lexAll("PROGRAM Foo INTEGER");
  EXPECT_EQ(Toks[0].Kind, TokenKind::KwProgram);
  EXPECT_EQ(Toks.name(1), "foo"); // identifiers fold to lower case
  EXPECT_EQ(Toks[2].Kind, TokenKind::KwInteger);
}

TEST(Lexer, IntegerAndRealLiterals) {
  auto Toks = lexAll("42 3.5 1e3 2.5e-2 7");
  EXPECT_EQ(Toks[0].Kind, TokenKind::IntLiteral);
  EXPECT_EQ(Toks[0].IntValue, 42);
  EXPECT_EQ(Toks[1].Kind, TokenKind::RealLiteral);
  EXPECT_DOUBLE_EQ(Toks[1].RealValue, 3.5);
  EXPECT_EQ(Toks[2].Kind, TokenKind::RealLiteral);
  EXPECT_DOUBLE_EQ(Toks[2].RealValue, 1000.0);
  EXPECT_EQ(Toks[3].Kind, TokenKind::RealLiteral);
  EXPECT_DOUBLE_EQ(Toks[3].RealValue, 0.025);
  EXPECT_EQ(Toks[4].Kind, TokenKind::IntLiteral);
}

TEST(Lexer, NumberFollowedByIdentifierIsNotExponent) {
  // "3e" with no digits after: 'e' starts the next identifier token.
  auto Toks = lexAll("3 elseif");
  EXPECT_EQ(Toks[0].Kind, TokenKind::IntLiteral);
  EXPECT_EQ(Toks[1].Kind, TokenKind::KwElseif);
}

TEST(Lexer, OperatorsAndPunctuation) {
  auto Toks = lexAll("= == /= < <= > >= + - * / ( ) , :");
  TokenKind Expected[] = {
      TokenKind::Assign,  TokenKind::EqEq,      TokenKind::NotEq,
      TokenKind::Less,    TokenKind::LessEq,    TokenKind::Greater,
      TokenKind::GreaterEq, TokenKind::Plus,    TokenKind::Minus,
      TokenKind::Star,    TokenKind::Slash,     TokenKind::LParen,
      TokenKind::RParen,  TokenKind::Comma,     TokenKind::Colon,
      TokenKind::Eof};
  ASSERT_EQ(Toks.size(), std::size(Expected));
  for (size_t K = 0; K != Toks.size(); ++K)
    EXPECT_EQ(Toks[K].Kind, Expected[K]) << "token " << K;
}

TEST(Lexer, CommentsAndLocations) {
  auto Toks = lexAll("a ! whole line ignored\n  b");
  EXPECT_EQ(Toks[0].Text, "a");
  EXPECT_EQ(Toks[1].Text, "b");
  EXPECT_EQ(Toks[0].Loc.Line, 1u);
  EXPECT_EQ(Toks[1].Loc.Line, 2u);
  EXPECT_EQ(Toks[1].Loc.Column, 3u);
}

// The cases below pin what the lexer gave before it read the source in
// place; the expected values were recorded from that implementation.

TEST(Lexer, IdentifiersAroundTheInlineStringLimit) {
  // 15 and 16 characters straddle std::string's inline capacity; the
  // 40-character one mixes cases, digits and an underscore.
  auto Toks = lexAll("abcdefghijklmno abcdefghijklmnop "
                     "ABCDEFGHIJabcdefghij0123456789_klmnopqrs");
  ASSERT_EQ(Toks.size(), 4u);
  EXPECT_EQ(Toks.name(0), "abcdefghijklmno");
  EXPECT_EQ(Toks.name(1), "abcdefghijklmnop");
  EXPECT_EQ(Toks.name(2), "abcdefghijabcdefghij0123456789_klmnopqrs");
  EXPECT_EQ(Toks[2].Loc.Column, 34u);
  EXPECT_EQ(Toks[3].Kind, TokenKind::Eof);
  EXPECT_EQ(Toks[3].Loc.Column, 74u);
}

TEST(Lexer, UppercaseKeywords) {
  auto Toks = lexAll("END DO WHILE ElseIf SUBROUTINE Program");
  TokenKind Expected[] = {TokenKind::KwEnd,        TokenKind::KwDo,
                          TokenKind::KwWhile,      TokenKind::KwElseif,
                          TokenKind::KwSubroutine, TokenKind::KwProgram,
                          TokenKind::Eof};
  ASSERT_EQ(Toks.size(), std::size(Expected));
  for (size_t K = 0; K != Toks.size(); ++K)
    EXPECT_EQ(Toks[K].Kind, Expected[K]) << "token " << K;
  EXPECT_EQ(Toks[5].Loc.Column, 32u);
}

TEST(Lexer, TabAndCarriageReturnAreWhitespace) {
  // A CR advances the column like any blank; only LF starts a line.
  auto Toks = lexAll("a\tb\r\nc\r d");
  ASSERT_EQ(Toks.size(), 5u);
  EXPECT_EQ(Toks.name(1), "b");
  EXPECT_EQ(Toks[1].Loc.Line, 1u);
  EXPECT_EQ(Toks[1].Loc.Column, 3u);
  EXPECT_EQ(Toks.name(2), "c");
  EXPECT_EQ(Toks[2].Loc.Line, 2u);
  EXPECT_EQ(Toks[2].Loc.Column, 1u);
  EXPECT_EQ(Toks.name(3), "d");
  EXPECT_EQ(Toks[3].Loc.Column, 4u);
  EXPECT_EQ(Toks[4].Loc.Column, 5u);
}

TEST(Lexer, IncompleteRealsLexAsSeparateTokens) {
  // "1." is an integer and a stray '.'; an exponent without digits is
  // not one, so "3e+" is 3, the identifier e, and '+'.
  auto Toks = lexAll("1. 3e+ 4E-");
  TokenKind Expected[] = {
      TokenKind::IntLiteral, TokenKind::Error,      TokenKind::IntLiteral,
      TokenKind::Identifier, TokenKind::Plus,       TokenKind::IntLiteral,
      TokenKind::Identifier, TokenKind::Minus,      TokenKind::Eof};
  ASSERT_EQ(Toks.size(), std::size(Expected));
  for (size_t K = 0; K != Toks.size(); ++K)
    EXPECT_EQ(Toks[K].Kind, Expected[K]) << "token " << K;
  EXPECT_EQ(Toks[0].IntValue, 1);
  EXPECT_EQ(Toks[1].message(), "unexpected character '.'");
  EXPECT_EQ(Toks[2].IntValue, 3);
  EXPECT_EQ(Toks.name(3), "e");
  EXPECT_EQ(Toks[3].Loc.Column, 5u);
  EXPECT_EQ(Toks.name(6), "e");
  EXPECT_EQ(Toks[8].Loc.Column, 11u);
}

TEST(Lexer, CommentAtEndOfInputWithoutNewline) {
  auto Toks = lexAll("x ! trailing comment");
  ASSERT_EQ(Toks.size(), 2u);
  EXPECT_EQ(Toks.name(0), "x");
  EXPECT_EQ(Toks[1].Kind, TokenKind::Eof);
  EXPECT_EQ(Toks[1].Loc.Column, 21u);
}

TEST(Lexer, NonAsciiBytesAreErrorsOneByteEach) {
  auto Toks = lexAll("a \xc3\xa9 b");
  ASSERT_EQ(Toks.size(), 5u);
  EXPECT_EQ(Toks[1].Kind, TokenKind::Error);
  EXPECT_EQ(Toks[1].message(), "unexpected character '\xc3'");
  EXPECT_EQ(Toks[2].Kind, TokenKind::Error);
  EXPECT_EQ(Toks[2].message(), "unexpected character '\xa9'");
  EXPECT_EQ(Toks[2].Loc.Column, 4u);
  EXPECT_EQ(Toks.name(3), "b");
  EXPECT_EQ(Toks[3].Loc.Column, 6u);
}

TEST(Lexer, RealLiteralsMatchStrtod) {
  auto Toks = lexAll("1e400 2.5e-400 0.1 1.5E+3 6.02e23");
  ASSERT_EQ(Toks.size(), 6u);
  EXPECT_EQ(Toks[0].RealValue, std::strtod("1e400", nullptr)); // inf
  EXPECT_EQ(Toks[1].RealValue, std::strtod("2.5e-400", nullptr));
  EXPECT_EQ(Toks[2].RealValue, 0.1);
  EXPECT_EQ(Toks[3].RealValue, 1500.0);
  EXPECT_EQ(Toks[4].RealValue, 6.02e23);
  EXPECT_EQ(Toks[4].Loc.Column, 27u);
}

TEST(Lexer, IntegerLiteralsPastInt64MaxAreFlagged) {
  auto Toks = lexAll("9223372036854775807 9223372036854775808 "
                     "99999999999999999999 007");
  ASSERT_EQ(Toks.size(), 5u);
  EXPECT_EQ(Toks[0].IntValue, INT64_MAX);
  EXPECT_FALSE(Toks[0].TooBig);
  for (size_t K : {1, 2}) {
    EXPECT_EQ(Toks[K].Kind, TokenKind::IntLiteral);
    EXPECT_TRUE(Toks[K].TooBig);
  }
  EXPECT_EQ(Toks[1].message(),
            "integer literal 9223372036854775808 does not fit in 64 bits");
  EXPECT_EQ(Toks[2].Loc.Column, 41u);
  EXPECT_EQ(Toks[3].IntValue, 7);
  EXPECT_FALSE(Toks[3].TooBig);
}

TEST(Lexer, ErrorToken) {
  auto Toks = lexAll("a # b");
  EXPECT_EQ(Toks[0].Kind, TokenKind::Identifier);
  EXPECT_EQ(Toks[1].Kind, TokenKind::Error);
  // Recovers and continues.
  EXPECT_EQ(Toks[2].Kind, TokenKind::Identifier);
}

} // namespace
