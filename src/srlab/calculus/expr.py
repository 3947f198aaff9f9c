"""Recursive-descent parser for the small real-valued expression language.

Grammar (whitespace insensitive):

    expr    := term (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := '-' unary | power
    power   := atom ('^' unary)?          # right associative, binds tightest
    atom    := NUMBER | IDENT | IDENT '(' expr (',' expr)* ')' | '(' expr ')'

'^' is exponentiation. Unary minus binds below '^', so -x^2 == -(x^2).
Identifiers are either context variables, the constants pi and e, or one of
the fixed functions sin cos tan sinh cosh tanh exp log sqrt atan2. Unknown
identifiers and wrong arities are parse errors with a source position.

The parser and the evaluator recurse, so an expression with more than
MAX_OPERATORS operators, or nesting parentheses, calls, minus signs and
powers more than MAX_NESTING levels deep, is a parse error: either would
take them near Python's recursion limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import ParseError

__all__ = ["Num", "Var", "Neg", "BinOp", "Call", "FUNCTIONS", "CONSTANTS", "parse"]

FUNCTIONS = {
    "sin": 1,
    "cos": 1,
    "tan": 1,
    "sinh": 1,
    "cosh": 1,
    "tanh": 1,
    "exp": 1,
    "log": 1,
    "sqrt": 1,
    "atan2": 2,
}

CONSTANTS = {"pi": math.pi, "e": math.e}

MAX_OPERATORS = 500
MAX_NESTING = 160


@dataclass(frozen=True)
class Num:
    value: float
    pos: int = 0


@dataclass(frozen=True)
class Var:
    name: str
    pos: int = 0


@dataclass(frozen=True)
class Neg:
    arg: object
    pos: int = 0


@dataclass(frozen=True)
class BinOp:
    op: str
    left: object
    right: object
    pos: int = 0


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple
    pos: int = 0


@dataclass(frozen=True)
class _Token:
    kind: str  # num, ident, op, lparen, rparen, comma, end
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            lit = text[i:j]
            try:
                number = float(lit)
            except ValueError:
                raise ParseError(f"malformed number {lit!r}", i)
            if not math.isfinite(number):
                raise ParseError(f"number {lit!r} is out of range", i)
            tokens.append(_Token("num", lit, i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("ident", text[i:j], i))
            i = j
            continue
        if ch in "+-*/^":
            tokens.append(_Token("op", ch, i))
            i += 1
            continue
        if ch == "(":
            tokens.append(_Token("lparen", ch, i))
            i += 1
            continue
        if ch == ")":
            tokens.append(_Token("rparen", ch, i))
            i += 1
            continue
        if ch == ",":
            tokens.append(_Token("comma", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], variables: tuple[str, ...]):
        self.tokens = tokens
        self.k = 0
        self.variables = variables
        self.nesting = 0

    def peek(self) -> _Token:
        return self.tokens[self.k]

    def advance(self) -> _Token:
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {what}", tok.pos)
        return self.advance()

    def expr(self):
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            tok = self.advance()
            rhs = self.term()
            node = BinOp(tok.text, node, rhs, tok.pos)
        return node

    def term(self):
        node = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            tok = self.advance()
            rhs = self.unary()
            node = BinOp(tok.text, node, rhs, tok.pos)
        return node

    def unary(self):
        # every recursion of the parser passes through here
        tok = self.peek()
        self.nesting += 1
        if self.nesting > MAX_NESTING:
            raise ParseError(f"expression nests deeper than {MAX_NESTING} levels", tok.pos)
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            node = Neg(self.unary(), tok.pos)
        else:
            node = self.power()
        self.nesting -= 1
        return node

    def power(self):
        node = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            # right associative; allow unary minus in the exponent (2^-x)
            rhs = self.unary()
            node = BinOp("^", node, rhs, tok.pos)
        return node

    def atom(self):
        tok = self.advance()
        if tok.kind == "num":
            return Num(float(tok.text), tok.pos)
        if tok.kind == "ident":
            name = tok.text
            if self.peek().kind == "lparen":
                if name not in FUNCTIONS:
                    raise ParseError(f"unknown function {name!r}", tok.pos)
                self.advance()
                args = [self.expr()]
                while self.peek().kind == "comma":
                    self.advance()
                    args.append(self.expr())
                self.expect("rparen", "')'")
                arity = FUNCTIONS[name]
                if len(args) != arity:
                    raise ParseError(
                        f"{name} takes {arity} argument{'s' if arity != 1 else ''}, got {len(args)}",
                        tok.pos,
                    )
                return Call(name, tuple(args), tok.pos)
            if name in self.variables:
                return Var(name, tok.pos)
            if name in CONSTANTS:
                return Num(CONSTANTS[name], tok.pos)
            raise ParseError(f"unknown identifier {name!r}", tok.pos)
        if tok.kind == "lparen":
            node = self.expr()
            self.expect("rparen", "')'")
            return node
        raise ParseError("expected a number, identifier, or '('", tok.pos)


def parse(text: str, variables: tuple[str, ...] = ("x", "y", "z")):
    """Parse expression text into an AST over the given context variables."""
    if not isinstance(text, str):
        raise ParseError("expression must be a string", 0)
    tokens = _tokenize(text)
    ops = [tok for tok in tokens if tok.kind == "op"]
    if len(ops) > MAX_OPERATORS:
        raise ParseError(f"more than {MAX_OPERATORS} operators", ops[MAX_OPERATORS].pos)
    parser = _Parser(tokens, tuple(variables))
    node = parser.expr()
    tok = parser.peek()
    if tok.kind != "end":
        raise ParseError(f"unexpected trailing input {tok.text!r}", tok.pos)
    return node
