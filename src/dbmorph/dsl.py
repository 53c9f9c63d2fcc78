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

Parsing costs its tokens: one regular-expression match per token, and each
token and raw tree node is a plain tuple that carries its offset in the
text.  Only a fault turns an offset into the line and column that its
``ParseError`` reports.  The whole text is tokenized and parsed before
anything is resolved, on purpose: a syntax error anywhere wins over a
binding or arity error anywhere, whatever their order in the text.
"""

from __future__ import annotations

import re
from typing import Sequence

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

# One match per token: the blanks and newlines in front of it, then one
# alternative per token kind, tried in order; after the blanks every
# character starts one of them, and the end of the text matches ``eof``.
# ``\d`` is exactly ``str.isdecimal`` and ``[\w']`` exactly ``str.isalnum``
# or ``_'``; an identifier that starts past ASCII is ``wide``, since it may
# start with a numeric non-decimal such as ``²``, which ``_tokenize`` rejects.
_OPEN_STRING = re.compile(r'"(?:[^"\\\n]|\\[ntr"\\]|\\x[0-9a-fA-F]{2})*')
_TOKEN = re.compile(
    rf"""[ \t\r\n]*(?:
        (?P<ident>[A-Za-z_][\w']*)
      | (?P<punct>&&|->|[!<>]=|[&.,()=<>])
      | (?P<number>\d+)
      | (?P<string>{_OPEN_STRING.pattern}")
      | (?P<wide>[^\W\d][\w']*)
      | (?P<eof>\Z)
      | (?P<bad>.))""",
    re.VERBOSE,
)
_PLAIN = frozenset({"ident", "punct", "number"})
_ESCAPE = re.compile(r"\\(x..|.)")
_UNESCAPE = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "\\": "\\"}


def _tokenize(text: str) -> list:
    """The tokens of ``text``, each a (kind, value, offset) tuple, the last
    one ``eof``.  The kinds are ident, number, string, punct and eof; a
    string's value is its unescaped content."""
    tokens: list = []
    append = tokens.append
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind in _PLAIN:
            append((kind, m[kind], m.start(kind)))
            continue
        start, value = m.start(kind), m[kind]
        if kind == "string":
            append((kind, _ESCAPE.sub(_unescape, value[1:-1]), start))
        elif kind == "wide" and value[0].isalpha():
            append(("ident", value, start))
        elif kind == "eof":
            # a match that ends at the end of the text is followed by an
            # empty ``eof`` match there; the first one ends the tokens
            append((kind, "", start))
            break
        elif value == '"':
            _string_error(text, start)
        else:
            raise ParseError(f"unexpected character {value[0]!r}", *_location(text, start))
    return tokens


def _location(text: str, offset: int) -> tuple:
    """The line and column of ``text[offset]``, both counted from 1; only a
    fault asks for them."""
    line_start = text.rfind("\n", 0, offset) + 1
    return text.count("\n", 0, line_start) + 1, offset - line_start + 1


def _unescape(escape: re.Match) -> str:
    code = escape[1]
    return chr(int(code[1:], 16)) if code[0] == "x" else _UNESCAPE[code]


def _string_error(text: str, start: int) -> None:
    """Raise the error of the string that opens at ``text[start]`` and does
    not close: at its longest well-formed prefix, the text ends or a line
    does (an unterminated string, located at the quote) or a backslash
    starts a bad escape (located at the backslash)."""
    end = _OPEN_STRING.match(text, start).end()
    if end == len(text) or text[end] == "\n":
        raise ParseError("unterminated string", *_location(text, start))
    if end + 1 == len(text):
        raise ParseError("unterminated escape", *_location(text, end))
    raise ParseError(f"unknown escape \\{text[end + 1]}", *_location(text, end))


# Raw (unresolved) syntax trees are plain tuples: a term is (kind, value,
# args, offset) with kind var, const or app, and a literal is (kind,
# negated, name, terms, op, offset) with kind atom, cmp or eq-head.


class _Parser:
    """Recursive descent over the token list.  Each rule takes the index of
    its first token and returns its tree and the index after it."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)

    def fault(self, message: str, offset: int) -> ParseError:
        return ParseError(message, *_location(self.text, offset))

    def expect(self, i: int, kind: str, value: str | None = None) -> int:
        tok_kind, tok_value, offset = self.tokens[i]
        if tok_kind != kind or (value is not None and tok_value != value):
            want = value if value is not None else kind
            got = tok_value if tok_kind != "eof" else "end of input"
            raise self.fault(f"expected {want!r}, found {got!r}", offset)
        return i + 1

    def at(self, i: int, kind: str, value: str) -> bool:
        tok = self.tokens[i]
        return tok[1] == value and tok[0] == kind

    def separated(self, i: int, sep: str, item, *args) -> tuple:
        """One or more ``item(i, *args)`` results, ``sep``-separated, and
        the index after the last."""
        tokens = self.tokens
        items = []
        while True:
            result, i = item(i, *args)
            items.append(result)
            kind, value, _ = tokens[i]
            if value != sep or kind != "punct":
                return items, i
            i += 1

    # --- names -----------------------------------------------------------

    def ident(self, i: int, what: str) -> tuple:
        i = self.expect(i, "ident")
        tok = self.tokens[i - 1]
        if tok[1] in RESERVED or tok[1] == HASH_NAME:
            raise self.fault(f"{tok[1]!r} is reserved and cannot name a {what}", tok[2])
        return tok, i

    # --- terms and literals ------------------------------------------------

    def term(self, i: int, depth: int = 0) -> tuple:
        """One term inside ``depth`` open argument lists."""
        tokens = self.tokens
        kind, value, offset = tokens[i]
        i += 1
        if kind == "ident":
            if value == "null":
                return ("const", NULL, (), offset), i
            if tokens[i][1] == "(" and tokens[i][0] == "punct":
                if depth == _MAX_NESTING:
                    raise self.fault(f"argument lists nest deeper than {_MAX_NESTING}", offset)
                if tokens[i + 1][1] == ")" and tokens[i + 1][0] == "punct":
                    raise self.fault("empty argument list", tokens[i + 1][2])
                args, i = self.separated(i + 1, ",", self.term, depth + 1)
                return ("app", value, tuple(args), offset), self.expect(i, "punct", ")")
            if value in RESERVED:
                raise self.fault(f"{value!r} is reserved", offset)
            return ("var", value, (), offset), i
        if kind == "number":
            try:
                return ("const", int(value), (), offset), i
            except ValueError:  # past the interpreter's limit on integer digits
                raise self.fault("number has too many digits", offset) from None
        if kind == "string":
            return ("const", value, (), offset), i
        raise self.fault(f"expected a term, found {value or kind!r}", offset)

    def literal(self, i: int, head: bool) -> tuple:
        negated = not head and self.at(i, "ident", "not")
        left, i = self.term(i + 1 if negated else i)
        kind, op, offset = self.tokens[i]
        if kind == "punct" and op in COMPARISON_OPS and not negated:
            if head and op != "=":
                raise self.fault("only '=' may head an egd", offset)
            right, i = self.term(i + 1)
            return ("eq-head" if head else "cmp", False, None, (left, right), op, left[3]), i
        if left[0] != "app":
            raise self.fault("expected an atom or a comparison", left[3])
        return ("atom", negated, left[1], left[2], None, left[3]), i

    # --- conjuncts ----------------------------------------------------------

    def conjunct(self, i: int) -> tuple:
        i = self.expect(i, "ident", "forall")
        universals, i = self.separated(i, ",", self.ident, "variable")
        lhs, i = self.separated(self.expect(i, "punct", "."), "&", self.literal, False)
        head, i = self.separated(self.expect(i, "punct", "->"), "&", self.literal, True)
        return (universals, lhs, head), i


class _Resolver:
    """Turns raw trees into typed ASTs, enforcing binding and arity rules."""

    def __init__(self, fault, functions: dict):
        self.fault = fault  # the parser's: (message, offset) -> ParseError
        self.functions = functions  # name -> FuncSymbol
        self.rel_arity: dict = {}
        self.fn_arity: dict = {}
        self.vars: dict = {}  # name -> its one Var

    def term(self, raw: tuple, bound: set, implicit: list | None) -> Term:
        kind, name, args, offset = raw
        if kind == "var":
            if name not in bound:
                if implicit is None:
                    raise self.fault(f"variable {name} is not bound by any quantifier", offset)
                if name not in implicit:
                    implicit.append(name)
            var = self.vars.get(name)
            if var is None:
                var = self.vars[name] = Var(name)
            return var
        if kind == "const":
            return Const(name)
        args = tuple([self.term(a, bound, implicit) for a in args])
        if name == HASH_NAME:
            return App(hash_symbol(), args)
        sym = self.functions.get(name)
        if sym is None:
            raise self.fault(
                f"unknown function symbol {name} (not bound by exists, not a built-in)", offset
            )
        seen = self.fn_arity.setdefault(name, len(args))
        if seen != len(args):
            raise self.fault(
                f"function {name} used with arity {len(args)}, earlier with {seen}", offset
            )
        return App(sym, args)

    def literal(self, raw: tuple, bound: set, implicit: list | None) -> Literal:
        kind, negated, name, terms, op, offset = raw
        if kind == "cmp":
            left = self.term(terms[0], bound, implicit)
            return Comparison(left, op, self.term(terms[1], bound, implicit))
        if name == "notnull":
            if len(terms) != 1:
                raise self.fault("notnull takes exactly one argument", offset)
            return NotNull(self.term(terms[0], bound, implicit), negated)
        if name in RESERVED or name == HASH_NAME:
            raise self.fault(f"{name!r} cannot be used as a relation", offset)
        seen = self.rel_arity.setdefault(name, len(terms))
        if seen != len(terms):
            raise self.fault(
                f"relation {name} used with arity {len(terms)}, earlier with {seen}", offset
            )
        return RelAtom(name, tuple([self.term(t, bound, implicit) for t in terms]), negated)

    def head_atom(self, raw: tuple, bound: set, implicit: list | None) -> RelAtom:
        atom = self.literal(raw, bound, implicit)
        if not isinstance(atom, RelAtom):
            raise self.fault("a dependency head is a relational atom", raw[5])
        return atom

    def equality(self, raw: tuple, bound: set) -> tuple:
        pair = []
        for raw_side in raw[3]:
            side = self.term(raw_side, bound, None)
            if not isinstance(side, Var):
                raise self.fault("egds equate variables", raw[5])
            pair.append(side.name)
        return tuple(pair)


def parse_mapping(text: str) -> "SOtgd | list[Dependency]":
    """Parse mapping text.  With an ``exists`` prefix the result is a single
    SOtgd; otherwise a list of tgds and egds, one per conjunct."""
    parser = _Parser(text)
    if parser.at(0, "ident", "taut"):
        parser.expect(1, "eof")
        return TAUT_SOTGD

    functions: dict = {}  # name -> FuncSymbol, in prefix order
    i = 0
    is_sotgd = parser.at(0, "ident", "exists")
    if is_sotgd:
        names, i = parser.separated(1, ",", parser.ident, "function")
        for _, name, offset in names:
            if name in functions:
                raise parser.fault(f"duplicate function symbol {name}", offset)
            functions[name] = FuncSymbol(name, FuncKind.SKOLEM)
        i = parser.expect(i, "punct", ".")

    raw_conjuncts, i = parser.separated(i, "&&", parser.conjunct)
    parser.expect(i, "eof")

    resolver = _Resolver(parser.fault, functions)
    conjuncts: list = []
    for universal_toks, raw_lhs, raw_head in raw_conjuncts:
        bound: set = set()
        for _, name, offset in universal_toks:
            if name in bound:
                raise parser.fault(f"duplicate variable {name}", offset)
            bound.add(name)
        universals = tuple([tok[1] for tok in universal_toks])
        equalities = [r for r in raw_head if r[0] == "eq-head"]
        if equalities and not is_sotgd and len(equalities) < len(raw_head):
            raise parser.fault("a head mixes relational atoms and equalities", raw_head[0][5])
        # only a tgd binds variables implicitly
        lhs_implicit = None if is_sotgd or equalities else []
        lhs = tuple([resolver.literal(r, bound, lhs_implicit) for r in raw_lhs])
        if is_sotgd and equalities:
            message = "equality heads are not allowed in an SOtgd mapping"
            raise parser.fault(message, equalities[0][5])
        if equalities:
            conjuncts.append(Egd(universals, lhs, [resolver.equality(r, bound) for r in raw_head]))
            continue
        head_implicit = None if is_sotgd else []
        head = tuple([resolver.head_atom(r, bound, head_implicit) for r in raw_head])
        if is_sotgd:
            conjuncts.append(SOtgdConjunct(universals, lhs, head))
            continue
        for v in head_implicit:
            if v in lhs_implicit:
                raise parser.fault(
                    f"variable {v} occurs on both sides but is not declared forall", raw_head[0][5]
                )
        conjuncts.append(Tgd(universals, lhs, head, lhs_implicit, head_implicit))
    return SOtgd(functions.values(), conjuncts) if is_sotgd else conjuncts


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
