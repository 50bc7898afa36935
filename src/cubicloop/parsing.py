"""Literal grammar for ring elements and projective points.

Elements: integer literals, `T` (theta), `p` (the uniformizer 1-theta),
operators + - * ^ and parentheses, usual precedence.  Points are four
element expressions joined by `:`.
"""

from __future__ import annotations

import re

from .eisenstein import PI, THETA, DigitVector, RingElt


class ParseError(Exception):
    pass


_TOKEN = re.compile(r"\s*(?:(\d+)|([Tp()+\-*^]))")


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            raise ParseError(f"unexpected character at {text[pos:]!r}")
        tokens.append(m.group(1) or m.group(2))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of expression")
        self.pos += 1
        return tok

    def expr(self) -> RingElt:
        value = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> RingElt:
        value = self.factor()
        while self.peek() == "*":
            self.take()
            value = value * self.factor()
        return value

    def factor(self) -> RingElt:
        if self.peek() == "-":
            self.take()
            return -self.factor()
        return self.power()

    def power(self) -> RingElt:
        base = self.atom()
        if self.peek() == "^":
            self.take()
            tok = self.take()
            if not tok.isdigit():
                raise ParseError(f"exponent must be a non-negative integer, got {tok!r}")
            return base ** int(tok)
        return base

    def atom(self) -> RingElt:
        tok = self.take()
        if tok.isdigit():
            return RingElt(int(tok))
        if tok == "T":
            return THETA
        if tok == "p":
            return PI
        if tok == "(":
            value = self.expr()
            if self.take() != ")":
                raise ParseError("expected ')'")
            return value
        raise ParseError(f"unexpected token {tok!r}")


def parse_element(text: str) -> RingElt:
    parser = _Parser(_tokenize(text))
    value = parser.expr()
    if parser.peek() is not None:
        raise ParseError(f"trailing input: {parser.tokens[parser.pos:]}")
    return value


def parse_point(text: str) -> tuple[RingElt, RingElt, RingElt, RingElt]:
    parts = text.split(":")
    if len(parts) != 4:
        raise ParseError(f"a point needs 4 coordinates, got {len(parts)}")
    return tuple(parse_element(part) for part in parts)  # type: ignore[return-value]


def format_digits(d: DigitVector) -> str:
    """Render sum d_i * pi^i as a literal, e.g. [1,-1,0] -> '1-p'."""
    parts = []
    for i, digit in enumerate(d.digits):
        if digit == 0:
            continue
        sign = "-" if digit < 0 else ("+" if parts else "")
        if i == 0:
            parts.append(f"{sign}1")
        elif i == 1:
            parts.append(f"{sign}p")
        else:
            parts.append(f"{sign}p^{i}")
    return "".join(parts) or "0"
