"""Reading and writing rewrite systems in TPDB plain format.

Identifiers listed in the ``(VAR ...)`` section are variables everywhere;
every other identifier is a function symbol whose arity is fixed by first
use. ``(COMMENT ...)`` and other unrecognized sections are skipped.
"""

from __future__ import annotations

import re

from .rewriting import TRS, trs
from .terms import Fun, Term, Var, variables

_TOKEN = re.compile(r"->|[(),]|[^\s(),]+")


class ParseError(Exception):
    def __init__(self, message: str, position: int = -1):
        super().__init__(f"{message}" + (f" (at token {position})" if position >= 0 else ""))
        self.position = position


class _Parser:
    def __init__(self, text: str):
        self.tokens = _TOKEN.findall(text)
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.pos)
        self.pos += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.next()
        if got != tok:
            raise ParseError(f"expected {tok!r}, got {got!r}", self.pos - 1)

    def skip_section(self) -> None:
        depth = 1
        while depth:
            tok = self.next()
            if tok == "(":
                depth += 1
            elif tok == ")":
                depth -= 1

    def term(self, variables_: set[str]) -> Term:
        name = self.next()
        if name in ("(", ")", ",", "->"):
            raise ParseError(f"expected a term, got {name!r}", self.pos - 1)
        if self.peek() == "(":
            self.next()
            args: list[Term] = []
            if self.peek() != ")":
                args.append(self.term(variables_))
                while self.peek() == ",":
                    self.next()
                    args.append(self.term(variables_))
            self.expect(")")
            if name in variables_:
                raise ParseError(f"variable {name} used with arguments", self.pos - 1)
            return Fun(name, tuple(args))
        if name in variables_:
            return Var(name)
        return Fun(name)


def parse_trs(text: str) -> TRS:
    try:
        return _parse(text)
    except RecursionError as e:
        # the parser recurses once per nesting level
        raise ParseError("term nested too deeply") from e


def _parse(text: str) -> TRS:
    parser = _Parser(text)
    declared: set[str] = set()
    pairs: list[tuple[Term, Term]] = []
    saw_rules = False
    while parser.peek() is not None:
        parser.expect("(")
        section = parser.next()
        if section == "VAR":
            while parser.peek() != ")":
                declared.add(parser.next())
            parser.expect(")")
        elif section == "RULES":
            saw_rules = True
            while parser.peek() != ")":
                lhs = parser.term(declared)
                parser.expect("->")
                rhs = parser.term(declared)
                pairs.append((lhs, rhs))
            parser.expect(")")
        else:
            parser.skip_section()
    if not saw_rules:
        raise ParseError("no (RULES ...) section")
    try:
        return trs(pairs)
    except ValueError as e:
        raise ParseError(str(e)) from e


def format_trs(R: TRS) -> str:
    vars_: set[str] = set()
    for r in R.rules:
        vars_ |= variables(r.lhs)
    lines = []
    if vars_:
        lines.append(f"(VAR {' '.join(sorted(vars_))})")
    lines.append("(RULES")
    for r in R.rules:
        lines.append(f"  {r}")
    lines.append(")")
    return "\n".join(lines) + "\n"
