"""Canonical ASCII expression syntax.

Grammar (round-trips with all reports and the CLI):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | factor
    factor := base ('^' integer)?
    base   := integer | symbol | '(' expr ')'

Symbols are table names (``a0``, ``a1``, ... for the parameters); powers use
``^``; multiplication is always explicit.  Rationals are written with ``/``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Union

from .symkernel import (Polynomial, RationalExpr, SymbolError, VarTable, _grlex)

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([()+\-*/^]))")


class ParseError(ValueError):
    """Input does not conform to the canonical expression syntax."""


def _tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ParseError(f"unexpected character {text[pos:].strip()[0]!r}")
            break
        tokens.append(m.group(m.lastindex))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[str], table: VarTable):
        self.tokens = tokens
        self.table = table
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of expression")
        self.pos += 1
        return tok

    def parse_expr(self) -> RationalExpr:
        value = self.parse_term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.parse_term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def parse_term(self) -> RationalExpr:
        value = self.parse_unary()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.parse_unary()
            if op == "/" and rhs.is_zero():
                raise ParseError("division by zero")
            value = value * rhs if op == "*" else value / rhs
        return value

    def parse_unary(self) -> RationalExpr:
        if self.peek() == "-":
            self.take()
            return -self.parse_unary()
        return self.parse_factor()

    def parse_factor(self) -> RationalExpr:
        base = self.parse_base()
        if self.peek() == "^":
            self.take()
            sign = 1
            if self.peek() == "-":
                self.take()
                sign = -1
            tok = self.take()
            if not tok.isdigit():
                raise ParseError(f"exponent must be an integer, got {tok!r}")
            if sign < 0 and base.is_zero():
                raise ParseError("division by zero")
            return base ** (sign * int(tok))
        return base

    def parse_base(self) -> RationalExpr:
        tok = self.take()
        if tok == "(":
            inner = self.parse_expr()
            if self.take() != ")":
                raise ParseError("missing closing parenthesis")
            return inner
        if tok.isdigit():
            return RationalExpr.const(self.table, int(tok))
        if tok in self.table:
            return RationalExpr.variable(self.table, tok)
        if re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", tok):
            raise SymbolError(f"symbol {tok!r} not registered in table")
        raise ParseError(f"unexpected token {tok!r}")


def parse(text: str, table: VarTable) -> RationalExpr:
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty expression")
    parser = _Parser(tokens, table)
    value = parser.parse_expr()
    if parser.pos != len(tokens):
        raise ParseError(f"trailing input near {tokens[parser.pos]!r}")
    return value


def parse_polynomial(text: str, table: VarTable) -> Polynomial:
    value = parse(text, table)
    if not value.is_polynomial():
        raise ParseError(f"expression {text!r} is not a polynomial")
    return value.as_polynomial()


def _monomial_text(table: VarTable, exponents: tuple[int, ...]) -> str:
    parts = []
    for name, p in zip(table.names, exponents):
        if p == 1:
            parts.append(name)
        elif p > 1:
            parts.append(f"{name}^{p}")
    return "*".join(parts)


def _coeff_text(c: Fraction) -> str:
    return str(c) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def poly_text(p: Polynomial) -> str:
    if not p.terms:
        return "0"
    pieces: list[str] = []
    for e in sorted(p.terms, key=_grlex, reverse=True):
        c = p.terms[e]
        mono = _monomial_text(p.table, e)
        mag = abs(c)
        if mono:
            body = mono if mag == 1 else f"{_coeff_text(mag)}*{mono}"
        else:
            body = _coeff_text(mag)
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(pieces)


def expr_text(f: Union[RationalExpr, Polynomial]) -> str:
    if isinstance(f, Polynomial):
        return poly_text(f)
    if f.den.is_constant() and f.den.constant_value() == 1:
        return poly_text(f.num)
    return f"({poly_text(f.num)}) / ({poly_text(f.den)})"
