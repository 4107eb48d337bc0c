#include "lang/Lexer.h"

#include <charconv>
#include <cstdlib>
#include <cstring>

using namespace nascent;

const char *nascent::tokenKindName(TokenKind K) {
  switch (K) {
  case TokenKind::Eof:
    return "end of input";
  case TokenKind::Identifier:
    return "identifier";
  case TokenKind::IntLiteral:
    return "integer literal";
  case TokenKind::RealLiteral:
    return "real literal";
  case TokenKind::KwProgram:
    return "'program'";
  case TokenKind::KwSubroutine:
    return "'subroutine'";
  case TokenKind::KwFunction:
    return "'function'";
  case TokenKind::KwEnd:
    return "'end'";
  case TokenKind::KwInteger:
    return "'integer'";
  case TokenKind::KwReal:
    return "'real'";
  case TokenKind::KwLogical:
    return "'logical'";
  case TokenKind::KwIf:
    return "'if'";
  case TokenKind::KwThen:
    return "'then'";
  case TokenKind::KwElseif:
    return "'elseif'";
  case TokenKind::KwElse:
    return "'else'";
  case TokenKind::KwDo:
    return "'do'";
  case TokenKind::KwWhile:
    return "'while'";
  case TokenKind::KwCall:
    return "'call'";
  case TokenKind::KwPrint:
    return "'print'";
  case TokenKind::KwReturn:
    return "'return'";
  case TokenKind::KwAnd:
    return "'and'";
  case TokenKind::KwOr:
    return "'or'";
  case TokenKind::KwNot:
    return "'not'";
  case TokenKind::KwTrue:
    return "'true'";
  case TokenKind::KwFalse:
    return "'false'";
  case TokenKind::Assign:
    return "'='";
  case TokenKind::EqEq:
    return "'=='";
  case TokenKind::NotEq:
    return "'/='";
  case TokenKind::Less:
    return "'<'";
  case TokenKind::LessEq:
    return "'<='";
  case TokenKind::Greater:
    return "'>'";
  case TokenKind::GreaterEq:
    return "'>='";
  case TokenKind::Plus:
    return "'+'";
  case TokenKind::Minus:
    return "'-'";
  case TokenKind::Star:
    return "'*'";
  case TokenKind::Slash:
    return "'/'";
  case TokenKind::LParen:
    return "'('";
  case TokenKind::RParen:
    return "')'";
  case TokenKind::Comma:
    return "','";
  case TokenKind::Colon:
    return "':'";
  case TokenKind::Error:
    return "invalid token";
  }
  return "?";
}

std::string Token::message() const {
  if (Kind == TokenKind::IntLiteral && TooBig)
    return "integer literal " + std::string(Text) + " does not fit in 64 bits";
  return "unexpected character '" + std::string(Text) + "'";
}

namespace {

// ASCII classes, as <cctype> classifies them in the "C" locale.
bool isDigit(char C) { return C >= '0' && C <= '9'; }
bool isAlpha(char C) {
  int L = C | 0x20;
  return L >= 'a' && L <= 'z';
}
bool isIdentChar(char C) { return isAlpha(C) || isDigit(C) || C == '_'; }
bool isSpace(char C) { return C == ' ' || (C >= '\t' && C <= '\r'); }

/// The keyword spelled \p S (lower case), or Identifier.
TokenKind keywordKind(std::string_view S) {
  auto Is = [&](const char *K) {
    return std::memcmp(S.data(), K, S.size()) == 0;
  };
  switch (S.size()) {
  case 2:
    if (Is("if"))
      return TokenKind::KwIf;
    if (Is("do"))
      return TokenKind::KwDo;
    if (Is("or"))
      return TokenKind::KwOr;
    break;
  case 3:
    if (Is("end"))
      return TokenKind::KwEnd;
    if (Is("and"))
      return TokenKind::KwAnd;
    if (Is("not"))
      return TokenKind::KwNot;
    break;
  case 4:
    if (Is("real"))
      return TokenKind::KwReal;
    if (Is("then"))
      return TokenKind::KwThen;
    if (Is("else"))
      return TokenKind::KwElse;
    if (Is("call"))
      return TokenKind::KwCall;
    if (Is("true"))
      return TokenKind::KwTrue;
    break;
  case 5:
    if (Is("while"))
      return TokenKind::KwWhile;
    if (Is("print"))
      return TokenKind::KwPrint;
    if (Is("false"))
      return TokenKind::KwFalse;
    break;
  case 6:
    if (Is("elseif"))
      return TokenKind::KwElseif;
    if (Is("return"))
      return TokenKind::KwReturn;
    break;
  case 7:
    if (Is("program"))
      return TokenKind::KwProgram;
    if (Is("integer"))
      return TokenKind::KwInteger;
    if (Is("logical"))
      return TokenKind::KwLogical;
    break;
  case 8:
    if (Is("function"))
      return TokenKind::KwFunction;
    break;
  case 10:
    if (Is("subroutine"))
      return TokenKind::KwSubroutine;
    break;
  }
  return TokenKind::Identifier;
}

} // namespace

char Lexer::advance() {
  char C = Src[Pos++];
  if (C == '\n') {
    ++Line;
    Column = 1;
  } else {
    ++Column;
  }
  return C;
}

void Lexer::skipTrivia() {
  while (Pos < Src.size()) {
    char C = Src[Pos];
    if (C == '!') {
      const void *NL = std::memchr(Src.data() + Pos, '\n', Src.size() - Pos);
      size_t End = NL ? static_cast<size_t>(static_cast<const char *>(NL) -
                                            Src.data())
                      : Src.size();
      Column += static_cast<unsigned>(End - Pos);
      Pos = End;
    } else if (isSpace(C)) {
      advance();
    } else {
      break;
    }
  }
}

Token Lexer::lexNumber() {
  Token T;
  T.Loc = here();
  size_t Start = Pos;
  bool IsReal = false;
  while (isDigit(peek()))
    ++Pos;
  if (peek() == '.' && isDigit(peekAhead())) {
    IsReal = true;
    ++Pos;
    while (isDigit(peek()))
      ++Pos;
  }
  if (peek() == 'e' || peek() == 'E') {
    // An exponent only when digits follow; otherwise the 'e' starts the
    // next token (e.g. an identifier).
    size_t Save = Pos;
    ++Pos;
    if (peek() == '+' || peek() == '-')
      ++Pos;
    if (isDigit(peek())) {
      IsReal = true;
      while (isDigit(peek()))
        ++Pos;
    } else {
      Pos = Save;
    }
  }
  // Numbers never span lines.
  Column += static_cast<unsigned>(Pos - Start);
  T.Text = Src.substr(Start, Pos - Start);
  if (IsReal) {
    T.Kind = TokenKind::RealLiteral;
    auto [End, Err] =
        std::from_chars(T.Text.data(), T.Text.data() + T.Text.size(),
                        T.RealValue);
    (void)End;
    // from_chars leaves the value alone when it over- or underflows;
    // strtod's infinity or denormal is the defined result there.
    if (Err != std::errc())
      T.RealValue = std::strtod(std::string(T.Text).c_str(), nullptr);
    return T;
  }
  T.Kind = TokenKind::IntLiteral;
  int64_t V = 0;
  for (char C : T.Text) {
    if (__builtin_mul_overflow(V, 10, &V) ||
        __builtin_add_overflow(V, C - '0', &V)) {
      T.TooBig = true;
      V = INT64_MAX;
      break;
    }
  }
  T.IntValue = V;
  return T;
}

Token Lexer::lexIdentifier() {
  Token T;
  T.Loc = here();
  size_t Start = Pos;
  bool Upper = false;
  while (Pos < Src.size() && isIdentChar(Src[Pos])) {
    Upper |= Src[Pos] >= 'A' && Src[Pos] <= 'Z';
    ++Pos;
  }
  Column += static_cast<unsigned>(Pos - Start);
  T.Text = Src.substr(Start, Pos - Start);
  std::string_view Lower = T.Text;
  if (Upper) {
    Folded.assign(T.Text);
    for (char &C : Folded)
      if (C >= 'A' && C <= 'Z')
        C = static_cast<char>(C | 0x20);
    Lower = Folded;
  }
  T.Kind = keywordKind(Lower);
  if (T.Kind == TokenKind::Identifier)
    T.Name = Names.intern(Lower);
  return T;
}

Token Lexer::next() {
  skipTrivia();
  Token T;
  T.Loc = here();
  if (Pos >= Src.size()) {
    T.Kind = TokenKind::Eof;
    return T;
  }
  char C = Src[Pos];
  if (isDigit(C))
    return lexNumber();
  if (isAlpha(C) || C == '_')
    return lexIdentifier();

  size_t Start = Pos;
  advance();
  auto Two = [&](TokenKind IfEq, TokenKind Otherwise) {
    if (peek() == '=') {
      advance();
      return IfEq;
    }
    return Otherwise;
  };
  switch (C) {
  case '=':
    T.Kind = Two(TokenKind::EqEq, TokenKind::Assign);
    break;
  case '/':
    T.Kind = Two(TokenKind::NotEq, TokenKind::Slash);
    break;
  case '<':
    T.Kind = Two(TokenKind::LessEq, TokenKind::Less);
    break;
  case '>':
    T.Kind = Two(TokenKind::GreaterEq, TokenKind::Greater);
    break;
  case '+':
    T.Kind = TokenKind::Plus;
    break;
  case '-':
    T.Kind = TokenKind::Minus;
    break;
  case '*':
    T.Kind = TokenKind::Star;
    break;
  case '(':
    T.Kind = TokenKind::LParen;
    break;
  case ')':
    T.Kind = TokenKind::RParen;
    break;
  case ',':
    T.Kind = TokenKind::Comma;
    break;
  case ':':
    T.Kind = TokenKind::Colon;
    break;
  default:
    T.Kind = TokenKind::Error;
    break;
  }
  T.Text = Src.substr(Start, Pos - Start);
  return T;
}
