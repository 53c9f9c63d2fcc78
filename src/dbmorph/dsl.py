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

An IDENT starts with a letter or ``_`` and continues with letters, digits,
``_`` or ``'``; a NUMBER is a run of decimal digits of any script; a STRING
is double-quoted, holds no raw newline, and has the escapes ``\\n``,
``\\t``, ``\\r``, ``\\"``, ``\\\\`` and ``\\xHH`` (two hex digits, the
character of that code point); the printer writes every other control
character (Unicode category Cc) as ``\\xHH``.  Space, tab, carriage return
and line feed separate tokens; any other character is an error.  A literal
holds at most ``_MAX_NESTING`` argument lists open at once, an atom's own
included.

With an ``exists`` prefix the mapping is a single SOtgd whose prefix names
are skolem function symbols; every variable must then be bound by its
conjunct's ``forall``.  Without the prefix each conjunct is a tgd (or, when
the head is an equality, an egd); head-only variables are implicit rhs
existentials and lhs-only variables are implicit inner existentials.

``hash`` is the reserved built-in function, ``notnull`` the reserved
built-in predicate, ``null`` the missing-value constant, and ``taut`` the
trivial dependency.  Bare identifiers are variables.  ``parse_mapping``
after ``pretty_mapping`` is the identity on ASTs.
"""

from __future__ import annotations

import re
from typing import NamedTuple, Sequence

from .errors import ParseError
from .logic import (
    App,
    COMPARISON_OPS,
    Comparison,
    Const,
    Dependency,
    Egd,
    FuncKind,
    FuncSymbol,
    HASH_NAME,
    Literal,
    NotNull,
    RelAtom,
    SOtgd,
    SOtgdConjunct,
    TAUT_SOTGD,
    Term,
    Tgd,
    Var,
    hash_symbol,
)
from .model import NULL

__all__ = [
    "parse_mapping",
    "pretty_mapping",
    "pretty_term",
    "pretty_literal",
    "pretty_atom",
    "RESERVED",
]

RESERVED = {"exists", "forall", "not", "null", "taut", "notnull"}

# The most argument lists a literal may hold open at once, an atom's own
# included.  The parser, the resolver and the printer recurse once per level,
# and printing met the default recursion limit at 330 levels.
_MAX_NESTING = 100

# One alternative per token kind, tried in order at each position; every
# character matches one of them.  ``\d`` is exactly ``str.isdecimal`` and
# ``[\w']`` exactly ``str.isalnum`` or ``_'``; ``ident`` may start with a
# numeric non-decimal such as ``²``, which ``_tokenize`` rejects.
_OPEN_STRING = re.compile(r'"(?:[^"\\\n]|\\[ntr"\\]|\\x[0-9a-fA-F]{2})*')
_TOKEN = re.compile(
    rf"""(?P<newline>\n)
      | (?P<blank>[ \t\r]+)
      | (?P<string>{_OPEN_STRING.pattern}")
      | (?P<number>\d+)
      | (?P<ident>[^\W\d][\w']*)
      | (?P<punct>&&|->|[!<>]=|[&.,()=<>])
      | (?P<bad>.)""",
    re.VERBOSE,
)
_ESCAPE = re.compile(r"\\(x..|.)")
_UNESCAPE = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "\\": "\\"}


class _Token(NamedTuple):
    kind: str  # ident | number | string | punct | eof
    value: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "newline":
            line, line_start = line + 1, m.end()
            continue
        if kind == "blank":
            continue
        value = m.group()
        col = m.start() - line_start + 1
        if kind == "string":
            value = _ESCAPE.sub(_unescape, value[1:-1])
        elif kind == "bad" or (kind == "ident" and not (value[0].isalpha() or value[0] == "_")):
            if value == '"':
                _string_error(text, m.start(), line, col)
            raise ParseError(f"unexpected character {value[0]!r}", line, col)
        tokens.append(_Token(kind, value, line, col))
    tokens.append(_Token("eof", "", line, len(text) - line_start + 1))
    return tokens


def _unescape(escape: re.Match) -> str:
    code = escape[1]
    return chr(int(code[1:], 16)) if code[0] == "x" else _UNESCAPE[code]


def _string_error(text: str, start: int, line: int, col: int) -> None:
    """Raise the error of the string that opens at ``text[start]`` and does
    not close: at its longest well-formed prefix, the text ends or a line
    does (an unterminated string, located at the quote) or a backslash
    starts a bad escape (located at the backslash)."""
    end = _OPEN_STRING.match(text, start).end()
    if end == len(text) or text[end] == "\n":
        raise ParseError("unterminated string", line, col)
    col += end - start
    if end + 1 == len(text):
        raise ParseError("unterminated escape", line, col)
    raise ParseError(f"unknown escape \\{text[end + 1]}", line, col)


# raw (unresolved) syntax trees

class _RawTerm(NamedTuple):
    kind: str  # var | const | app
    value: object
    args: tuple = ()
    line: int = 0
    col: int = 0


class _RawLiteral(NamedTuple):
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

    def separated(self, sep: str, item, *args) -> list:
        """One or more ``item(*args)`` results, ``sep``-separated."""
        items = [item(*args)]
        while self.at_punct(sep):
            self.next()
            items.append(item(*args))
        return items

    def name_list(self, what: str) -> list[_Token]:
        return self.separated(",", self.ident, what)

    # --- terms and literals ------------------------------------------------

    def term(self, depth: int = 0) -> _RawTerm:
        """One term inside ``depth`` open argument lists."""
        tok = self.next()
        if tok.kind == "number":
            try:
                value = int(tok.value)
            except ValueError:  # past the interpreter's limit on integer digits
                raise ParseError("number has too many digits", tok.line, tok.col) from None
            return _RawTerm("const", value, line=tok.line, col=tok.col)
        if tok.kind == "string":
            return _RawTerm("const", tok.value, line=tok.line, col=tok.col)
        if tok.kind == "ident":
            if tok.value == "null":
                return _RawTerm("const", NULL, line=tok.line, col=tok.col)
            if self.at_punct("("):
                if depth == _MAX_NESTING:
                    raise ParseError(
                        f"argument lists nest deeper than {_MAX_NESTING}", tok.line, tok.col
                    )
                self.next()
                if self.at_punct(")"):
                    close = self.peek()
                    raise ParseError("empty argument list", close.line, close.col)
                args = self.separated(",", self.term, depth + 1)
                self.expect("punct", ")")
                return _RawTerm("app", tok.value, tuple(args), tok.line, tok.col)
            if tok.value in RESERVED:
                raise ParseError(f"{tok.value!r} is reserved", tok.line, tok.col)
            return _RawTerm("var", tok.value, line=tok.line, col=tok.col)
        raise ParseError(f"expected a term, found {tok.value or tok.kind!r}", tok.line, tok.col)

    def _cmp_op(self) -> str | None:
        tok = self.peek()
        if tok.kind == "punct" and tok.value in COMPARISON_OPS:
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
        lhs = self.separated("&", self.literal, False)
        self.expect("punct", "->")
        return universals, lhs, self.separated("&", self.literal, True)


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

    def equality(self, raw: _RawLiteral, bound: set) -> tuple:
        pair = []
        for raw_side in raw.terms:
            side = self.term(raw_side, bound, None)
            if not isinstance(side, Var):
                raise ParseError("egds equate variables", raw.line, raw.col)
            pair.append(side.name)
        return tuple(pair)


def parse_mapping(text: str) -> "SOtgd | list[Dependency]":
    """Parse mapping text.  With an ``exists`` prefix the result is a single
    SOtgd; otherwise a list of tgds and egds, one per conjunct."""
    parser = _Parser(text)
    if parser.at_keyword("taut"):
        parser.next()
        parser.expect("eof")
        return TAUT_SOTGD

    functions: dict = {}  # name -> FuncSymbol, in prefix order
    is_sotgd = False
    if parser.at_keyword("exists"):
        is_sotgd = True
        parser.next()
        for tok in parser.name_list("function"):
            if tok.value in functions:
                raise ParseError(f"duplicate function symbol {tok.value}", tok.line, tok.col)
            functions[tok.value] = FuncSymbol(tok.value, FuncKind.SKOLEM)
        parser.expect("punct", ".")

    raw_conjuncts = parser.separated("&&", parser.conjunct)
    parser.expect("eof")

    resolver = _Resolver(functions)
    conjuncts: list = []
    for universal_toks, raw_lhs, raw_head in raw_conjuncts:
        _check_distinct(universal_toks)
        universals = tuple(t.value for t in universal_toks)
        bound = set(universals)
        equalities = [r for r in raw_head if r.kind == "eq-head"]
        if equalities and not is_sotgd and len(equalities) < len(raw_head):
            r = raw_head[0]
            raise ParseError("a head mixes relational atoms and equalities", r.line, r.col)
        # only a tgd binds variables implicitly
        lhs_implicit = None if is_sotgd or equalities else []
        lhs = tuple(resolver.literal(r, bound, lhs_implicit) for r in raw_lhs)
        if is_sotgd and equalities:
            r = equalities[0]
            raise ParseError("equality heads are not allowed in an SOtgd mapping", r.line, r.col)
        if equalities:
            conjuncts.append(Egd(universals, lhs, [resolver.equality(r, bound) for r in raw_head]))
            continue
        head_implicit = None if is_sotgd else []
        head = tuple(resolver.head_atom(r, bound, head_implicit) for r in raw_head)
        if is_sotgd:
            conjuncts.append(SOtgdConjunct(universals, lhs, head))
            continue
        for v in head_implicit:
            if v in lhs_implicit:
                r = raw_head[0]
                raise ParseError(
                    f"variable {v} occurs on both sides but is not declared forall", r.line, r.col
                )
        conjuncts.append(Tgd(universals, lhs, head, lhs_implicit, head_implicit))
    return SOtgd(functions.values(), conjuncts) if is_sotgd else conjuncts


def _check_distinct(toks: Sequence[_Token]) -> None:
    seen: set = set()
    for t in toks:
        if t.value in seen:
            raise ParseError(f"duplicate variable {t.value}", t.line, t.col)
        seen.add(t.value)


# ---------------------------------------------------------------------------
# pretty-printing


# what ``_quote`` escapes: the quote, the backslash and every control
# character (Unicode category Cc, U+0000-U+001F and U+007F-U+009F)
_NEEDS_ESCAPE = re.compile(r'["\\\x00-\x1f\x7f-\x9f]')
_ESCAPES = {"\n": "\\n", "\t": "\\t", "\r": "\\r", '"': '\\"', "\\": "\\\\"}


def _quote(s: str) -> str:
    out = _NEEDS_ESCAPE.sub(lambda c: _ESCAPES.get(c[0]) or f"\\x{ord(c[0]):02x}", s)
    return f'"{out}"'


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


def _pretty_conjunct(dep: "Dependency | SOtgdConjunct") -> str:
    if isinstance(dep, Egd):
        head = " & ".join(f"{y} = {z}" for y, z in dep.equalities)
    else:
        head = " & ".join(pretty_atom(a) for a in dep.rhs)
    if not dep.universals:
        raise ValueError("cannot render a conjunct without universal variables")
    lhs = " & ".join(pretty_literal(l) for l in dep.lhs)
    return f"forall {', '.join(dep.universals)} . {lhs} -> {head}"


def pretty_mapping(obj: "SOtgd | Sequence") -> str:
    """Render an SOtgd or a list of tgds/egds."""
    if obj == TAUT_SOTGD:
        return "taut"
    prefix = ""
    if isinstance(obj, SOtgd):
        if obj.functions:
            prefix = "exists " + ", ".join(f.name for f in obj.functions) + " . "
        obj = obj.conjuncts
    return prefix + " && ".join(map(_pretty_conjunct, obj))
