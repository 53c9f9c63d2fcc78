# The mapping DSL module as it stood before its tokenizer became one regular
# expression, kept verbatim apart from its imports as the oracle that the
# differential test in test_dsl.py compares dbmorph.dsl against.  Its string
# escapes follow the language as it grew since: the reader also takes \r and
# \xHH, and the printer writes \r and every other control character
# (category Cc) but newline and tab as \xHH.
"""Text syntax for dependencies: a parser and a pretty-printer.

The mapping language::

    mapping   := "taut" | [ "exists" fnList "." ] conjunct { "&&" conjunct }
    fnList    := IDENT { "," IDENT }
    conjunct  := "forall" varList "." lhs "->" head
    varList   := IDENT { "," IDENT }
    lhs       := literal { "&" literal }
    literal   := [ "not" ] atom | term cmp term
    head      := headAtom { "&" headAtom }
    headAtom  := atom | term "=" term
    atom      := IDENT "(" termList ")"
    termList  := term { "," term }
    term      := IDENT "(" termList ")" | IDENT | NUMBER | STRING | "null"
    cmp       := "=" | "!=" | "<=" | ">=" | "<" | ">"

With an ``exists`` prefix the mapping is a single SOtgd whose prefix names
are skolem function symbols; every variable must then be bound by its
conjunct's ``forall``.  Without the prefix each conjunct is a tgd (or, when
the head is an equality, an egd); head-only variables are implicit rhs
existentials and lhs-only variables are implicit inner existentials.

``hash`` is the reserved built-in function, ``notnull`` the reserved
built-in predicate, ``null`` the missing-value constant, and ``taut`` the
trivial dependency.  String constants are double-quoted; bare identifiers
are variables.  ``parse_mapping`` after ``pretty_mapping`` is the identity
on ASTs.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass
from typing import Sequence, Union

from dbmorph.errors import ParseError
from dbmorph.logic import (
    App,
    Comparison,
    Const,
    Dependency,
    Egd,
    FuncKind,
    FuncSymbol,
    HASH_NAME,
    Literal,
    NotNull,
    NormalizedImplication,
    RelAtom,
    SOtgd,
    SOtgdConjunct,
    TAUT_SOTGD,
    Term,
    Tgd,
    Var,
    hash_symbol,
    literal_variables,
    term_variables,
)
from dbmorph.model import NULL

__all__ = [
    "parse_mapping",
    "pretty_mapping",
    "pretty_term",
    "pretty_literal",
    "pretty_atom",
    "RESERVED",
]

RESERVED = {"exists", "forall", "not", "null", "taut", "notnull"}

_PUNCT = ("&&", "->", "!=", "<=", ">=", "&", ".", ",", "(", ")", "=", "<", ">")


@dataclass(frozen=True)
class _Token:
    kind: str  # ident | number | string | punct | eof
    value: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i, line, col = i + 1, line + 1, 1
            continue
        if ch in " \t\r":
            i, col = i + 1, col + 1
            continue
        if ch == '"':
            start_line, start_col = line, col
            i += 1
            col += 1
            buf = []
            while True:
                if i >= n:
                    raise ParseError("unterminated string", start_line, start_col)
                c = text[i]
                if c == "\n":
                    raise ParseError("unterminated string", start_line, start_col)
                if c == "\\":
                    if i + 1 >= n:
                        raise ParseError("unterminated escape", line, col)
                    esc = text[i + 1]
                    if esc == "n":
                        buf.append("\n")
                    elif esc == "t":
                        buf.append("\t")
                    elif esc in ('"', "\\"):
                        buf.append(esc)
                    elif esc == "r":
                        buf.append("\r")
                    elif esc == "x" and len(text[i + 2 : i + 4]) == 2 and all(
                        h in "0123456789abcdefABCDEF" for h in text[i + 2 : i + 4]
                    ):
                        buf.append(chr(int(text[i + 2 : i + 4], 16)))
                        i += 2
                        col += 2
                    else:
                        raise ParseError(f"unknown escape \\{esc}", line, col)
                    i += 2
                    col += 2
                    continue
                if c == '"':
                    i += 1
                    col += 1
                    break
                buf.append(c)
                i += 1
                col += 1
            tokens.append(_Token("string", "".join(buf), start_line, start_col))
            continue
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(_Token("number", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_'"):
                j += 1
            tokens.append(_Token("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        for p in _PUNCT:
            if text.startswith(p, i):
                tokens.append(_Token("punct", p, line, col))
                i += len(p)
                col += len(p)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("eof", "", line, col))
    return tokens


# raw (unresolved) syntax trees

@dataclass(frozen=True)
class _RawTerm:
    kind: str  # var | const | app
    value: object
    args: tuple = ()
    line: int = 0
    col: int = 0


@dataclass(frozen=True)
class _RawLiteral:
    kind: str  # atom | cmp | eq-head
    negated: bool
    name: str | None
    terms: tuple
    op: str | None
    line: int
    col: int


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, value: str | None = None) -> _Token:
        tok = self.peek()
        if tok.kind != kind or (value is not None and tok.value != value):
            want = value if value is not None else kind
            got = tok.value if tok.kind != "eof" else "end of input"
            raise ParseError(f"expected {want!r}, found {got!r}", tok.line, tok.col)
        return self.next()

    def at_punct(self, value: str) -> bool:
        tok = self.peek()
        return tok.kind == "punct" and tok.value == value

    def at_keyword(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == "ident" and tok.value == word

    # --- names -----------------------------------------------------------

    def ident(self, what: str) -> _Token:
        tok = self.expect("ident")
        if tok.value in RESERVED or tok.value == HASH_NAME:
            raise ParseError(f"{tok.value!r} is reserved and cannot name a {what}", tok.line, tok.col)
        return tok

    def name_list(self, what: str) -> list[_Token]:
        names = [self.ident(what)]
        while self.at_punct(","):
            self.next()
            names.append(self.ident(what))
        return names

    # --- terms and literals ------------------------------------------------

    def term(self) -> _RawTerm:
        tok = self.peek()
        if tok.kind == "number":
            self.next()
            return _RawTerm("const", int(tok.value), line=tok.line, col=tok.col)
        if tok.kind == "string":
            self.next()
            return _RawTerm("const", tok.value, line=tok.line, col=tok.col)
        if tok.kind == "ident":
            if tok.value == "null":
                self.next()
                return _RawTerm("const", NULL, line=tok.line, col=tok.col)
            self.next()
            if self.at_punct("("):
                args = self.term_list()
                return _RawTerm("app", tok.value, tuple(args), tok.line, tok.col)
            if tok.value in RESERVED:
                raise ParseError(f"{tok.value!r} is reserved", tok.line, tok.col)
            return _RawTerm("var", tok.value, line=tok.line, col=tok.col)
        raise ParseError(f"expected a term, found {tok.value or tok.kind!r}", tok.line, tok.col)

    def term_list(self) -> list[_RawTerm]:
        self.expect("punct", "(")
        if self.at_punct(")"):
            tok = self.peek()
            raise ParseError("empty argument list", tok.line, tok.col)
        terms = [self.term()]
        while self.at_punct(","):
            self.next()
            terms.append(self.term())
        self.expect("punct", ")")
        return terms

    def _cmp_op(self) -> str | None:
        tok = self.peek()
        if tok.kind == "punct" and tok.value in ("=", "!=", "<=", ">=", "<", ">"):
            return tok.value
        return None

    def literal(self, head: bool) -> _RawLiteral:
        tok = self.peek()
        negated = False
        if not head and tok.kind == "ident" and tok.value == "not":
            self.next()
            negated = True
            tok = self.peek()
        left = self.term()
        op = self._cmp_op()
        if op is not None and not negated:
            if head and op != "=":
                optok = self.peek()
                raise ParseError("only '=' may head an egd", optok.line, optok.col)
            self.next()
            right = self.term()
            return _RawLiteral("eq-head" if head else "cmp", False, None, (left, right), op, tok.line, tok.col)
        if left.kind != "app":
            raise ParseError(
                "expected an atom or a comparison", left.line, left.col
            )
        return _RawLiteral("atom", negated, str(left.value), left.args, None, left.line, left.col)

    # --- conjuncts ----------------------------------------------------------

    def conjunct(self) -> tuple:
        self.expect("ident", "forall")
        universals = self.name_list("variable")
        self.expect("punct", ".")
        lhs = [self.literal(head=False)]
        while self.at_punct("&"):
            self.next()
            lhs.append(self.literal(head=False))
        self.expect("punct", "->")
        head = [self.literal(head=True)]
        while self.at_punct("&"):
            self.next()
            head.append(self.literal(head=True))
        return universals, lhs, head


class _Resolver:
    """Turns raw trees into typed ASTs, enforcing binding and arity rules."""

    def __init__(self, functions: dict):
        self.functions = functions  # name -> FuncSymbol
        self.rel_arity: dict = {}
        self.fn_arity: dict = {}

    def check_rel(self, name: str, arity: int, line: int, col: int) -> None:
        seen = self.rel_arity.get(name)
        if seen is None:
            self.rel_arity[name] = arity
        elif seen != arity:
            raise ParseError(
                f"relation {name} used with arity {arity}, earlier with {seen}", line, col
            )

    def term(self, raw: _RawTerm, bound: set, implicit: list | None) -> Term:
        if raw.kind == "const":
            return Const(raw.value)
        if raw.kind == "var":
            name = str(raw.value)
            if name not in bound:
                if implicit is None:
                    raise ParseError(
                        f"variable {name} is not bound by any quantifier", raw.line, raw.col
                    )
                if name not in implicit:
                    implicit.append(name)
            return Var(name)
        name = str(raw.value)
        args = tuple(self.term(a, bound, implicit) for a in raw.args)
        if name == HASH_NAME:
            return App(hash_symbol(), args)
        sym = self.functions.get(name)
        if sym is None:
            raise ParseError(
                f"unknown function symbol {name} (not bound by exists, not a built-in)",
                raw.line,
                raw.col,
            )
        seen = self.fn_arity.get(name)
        if seen is None:
            self.fn_arity[name] = len(args)
        elif seen != len(args):
            raise ParseError(
                f"function {name} used with arity {len(args)}, earlier with {seen}",
                raw.line,
                raw.col,
            )
        return App(sym, args)

    def literal(self, raw: _RawLiteral, bound: set, implicit: list | None) -> Literal:
        if raw.kind == "cmp":
            left = self.term(raw.terms[0], bound, implicit)
            right = self.term(raw.terms[1], bound, implicit)
            return Comparison(left, raw.op, right)
        assert raw.kind == "atom"
        if raw.name == "notnull":
            if len(raw.terms) != 1:
                raise ParseError("notnull takes exactly one argument", raw.line, raw.col)
            return NotNull(self.term(raw.terms[0], bound, implicit), raw.negated)
        if raw.name in RESERVED or raw.name == HASH_NAME:
            raise ParseError(f"{raw.name!r} cannot be used as a relation", raw.line, raw.col)
        self.check_rel(raw.name, len(raw.terms), raw.line, raw.col)
        terms = tuple(self.term(t, bound, implicit) for t in raw.terms)
        return RelAtom(raw.name, terms, raw.negated)

    def head_atom(self, raw: _RawLiteral, bound: set, implicit: list | None) -> RelAtom:
        atom = self.literal(raw, bound, implicit)
        if not isinstance(atom, RelAtom):
            raise ParseError("a dependency head is a relational atom", raw.line, raw.col)
        return atom


def parse_mapping(text: str) -> "SOtgd | list[Dependency]":
    """Parse mapping text.  With an ``exists`` prefix the result is a single
    SOtgd; otherwise a list of tgds and egds, one per conjunct."""
    parser = _Parser(text)
    if parser.at_keyword("taut"):
        parser.next()
        parser.expect("eof")
        return TAUT_SOTGD

    functions: dict = {}
    fn_order: list[FuncSymbol] = []
    is_sotgd = False
    if parser.at_keyword("exists"):
        is_sotgd = True
        parser.next()
        for tok in parser.name_list("function"):
            if tok.value in functions:
                raise ParseError(f"duplicate function symbol {tok.value}", tok.line, tok.col)
            sym = FuncSymbol(tok.value, FuncKind.SKOLEM)
            functions[tok.value] = sym
            fn_order.append(sym)
        parser.expect("punct", ".")

    raw_conjuncts = [parser.conjunct()]
    while parser.at_punct("&&"):
        parser.next()
        raw_conjuncts.append(parser.conjunct())
    parser.expect("eof")

    resolver = _Resolver(functions)
    if is_sotgd:
        conjuncts = []
        for universal_toks, raw_lhs, raw_head in raw_conjuncts:
            _check_distinct(universal_toks)
            bound = {t.value for t in universal_toks}
            lhs = tuple(resolver.literal(r, bound, None) for r in raw_lhs)
            for r in raw_head:
                if r.kind == "eq-head":
                    raise ParseError(
                        "equality heads are not allowed in an SOtgd mapping", r.line, r.col
                    )
            head = tuple(resolver.head_atom(r, bound, None) for r in raw_head)
            conjuncts.append(SOtgdConjunct(tuple(t.value for t in universal_toks), lhs, head))
        return SOtgd(tuple(fn_order), tuple(conjuncts))

    deps: list[Dependency] = []
    for universal_toks, raw_lhs, raw_head in raw_conjuncts:
        _check_distinct(universal_toks)
        universals = tuple(t.value for t in universal_toks)
        bound = set(universals)
        is_egd = any(r.kind == "eq-head" for r in raw_head)
        if is_egd:
            if not all(r.kind == "eq-head" for r in raw_head):
                r = raw_head[0]
                raise ParseError(
                    "a head mixes relational atoms and equalities", r.line, r.col
                )
            lhs = tuple(resolver.literal(r, bound, None) for r in raw_lhs)
            equalities = []
            for r in raw_head:
                pair = []
                for raw_side in r.terms:
                    side = resolver.term(raw_side, bound, None)
                    if not isinstance(side, Var):
                        raise ParseError("egds equate variables", r.line, r.col)
                    pair.append(side.name)
                equalities.append(tuple(pair))
            deps.append(Egd(universals, lhs, tuple(equalities)))
            continue
        lhs_implicit: list[str] = []
        lhs = tuple(resolver.literal(r, bound, lhs_implicit) for r in raw_lhs)
        head_implicit: list[str] = []
        head = []
        for r in raw_head:
            atom = resolver.head_atom(r, bound | set(), head_implicit)
            head.append(atom)
        for v in head_implicit:
            if v in lhs_implicit:
                line, col = raw_head[0].line, raw_head[0].col
                raise ParseError(
                    f"variable {v} occurs on both sides but is not declared forall", line, col
                )
        deps.append(Tgd(universals, lhs, tuple(head), tuple(lhs_implicit), tuple(head_implicit)))
    return deps


def _check_distinct(toks: Sequence[_Token]) -> None:
    seen: set = set()
    for t in toks:
        if t.value in seen:
            raise ParseError(f"duplicate variable {t.value}", t.line, t.col)
        seen.add(t.value)


# ---------------------------------------------------------------------------
# pretty-printing


def _quote(s: str) -> str:
    out = []
    for c in s:
        if c in '"\\':
            out.append("\\" + c)
        elif c in "\n\t\r":
            out.append({"\n": "\\n", "\t": "\\t", "\r": "\\r"}[c])
        elif unicodedata.category(c) == "Cc":
            out.append(f"\\x{ord(c):02x}")
        else:
            out.append(c)
    return '"' + "".join(out) + '"'


def pretty_term(term: Term) -> str:
    if isinstance(term, Var):
        return term.name
    if isinstance(term, Const):
        v = term.value
        if v is NULL:
            return "null"
        if isinstance(v, int):
            return str(v)
        return _quote(v)
    args = ", ".join(pretty_term(a) for a in term.args)
    return f"{term.func.name}({args})"


def pretty_atom(atom: RelAtom) -> str:
    inner = ", ".join(pretty_term(t) for t in atom.terms)
    body = f"{atom.relation}({inner})"
    return f"not {body}" if atom.negated else body


def pretty_literal(lit: Literal) -> str:
    if isinstance(lit, RelAtom):
        return pretty_atom(lit)
    if isinstance(lit, NotNull):
        body = f"notnull({pretty_term(lit.term)})"
        return f"not {body}" if lit.negated else body
    if lit.negated:
        raise ValueError("a negated comparison has no surface syntax")
    return f"{pretty_term(lit.left)} {lit.op} {pretty_term(lit.right)}"


def _pretty_conjunct(universals: Sequence[str], lhs: Sequence[Literal], head: str) -> str:
    if not universals:
        raise ValueError("cannot render a conjunct without universal variables")
    vars_s = ", ".join(universals)
    lhs_s = " & ".join(pretty_literal(l) for l in lhs)
    return f"forall {vars_s} . {lhs_s} -> {head}"


def pretty_mapping(obj: "SOtgd | NormalizedImplication | Sequence") -> str:
    """Render an SOtgd, a list of tgds/egds, or a normalized implication."""
    if isinstance(obj, SOtgd):
        if obj == TAUT_SOTGD:
            return "taut"
        parts = []
        for conj in obj.conjuncts:
            head = " & ".join(pretty_atom(a) for a in conj.rhs)
            parts.append(_pretty_conjunct(conj.universals, conj.lhs, head))
        prefix = ""
        if obj.functions:
            prefix = "exists " + ", ".join(f.name for f in obj.functions) + " . "
        return prefix + " && ".join(parts)
    if isinstance(obj, NormalizedImplication):
        return _pretty_conjunct(obj.universals, obj.lhs, pretty_atom(obj.head))
    parts = []
    for dep in obj:
        if isinstance(dep, Tgd):
            head = " & ".join(pretty_atom(a) for a in dep.rhs)
            parts.append(_pretty_conjunct(dep.universals, dep.lhs, head))
        else:
            head = " & ".join(f"{y} = {z}" for y, z in dep.equalities)
            parts.append(_pretty_conjunct(dep.universals, dep.lhs, head))
    return " && ".join(parts)
