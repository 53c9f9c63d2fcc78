"""Compile normalized implications into algebraic operad operations.

Each implication ∀x (φ ⇒ r_B(t)) becomes one operation whose expression
replaces every relational-membership condition of φ — source-schema atoms
and characteristic-function atoms alike — by a positional place symbol
``(_)_n``, keeping the built-in literals verbatim.  A place whose relation
lies outside the source schema is flagged ``char`` and renders logically as
a characteristic-function literal ``f_r(t…) = 1``.

The operation records everything evaluation needs: the left-to-right
variable order, the equal-variable set S (one member set per variable with
all of its free occurrence pairs ``(positionInAtom, atomIndex)``), the
head-term tuple, and the simple-variable head positions Z.

Every arrow additionally contains the identity operation on the
distinguished nullary symbol.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .dsl import parse_mapping, pretty_literal, pretty_term
from .errors import SafetyError, SchemaError
from .logic import (
    Egd,
    NormalizedImplication,
    RelAtom,
    SOtgd,
    Var,
    literal_variables,
    normalize,
    skolemize,
    term_variables,
)
from .model import EMPTY_NAME, Schema

__all__ = [
    "Place",
    "OperadOperation",
    "OperadArrow",
    "IDENTITY_NAME",
    "IDENTITY_OP",
    "make_operads",
    "compile_source",
    "build_equal_var_set",
    "simple_var_positions",
    "build_variable_order",
    "render_expression",
    "render_implication",
]

IDENTITY_NAME = f"1_{EMPTY_NAME}"


@dataclass(frozen=True)
class Place:
    """A place symbol standing for one relational atom of the lhs."""

    symbol: str
    variables: tuple
    negated: bool = False
    char: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "variables", tuple(self.variables))

    @property
    def arity(self) -> int:
        return len(self.variables)


@dataclass(frozen=True)
class OperadOperation:
    """One compiled implication: places + guards ⇒ target tuple of terms."""

    name: str
    body: tuple  # Place and built-in Literal items, in source order
    target: str
    target_columns: tuple
    target_terms: tuple
    variable_order: tuple
    rq_name: str

    def __post_init__(self) -> None:
        for f in ("body", "target_columns", "target_terms", "variable_order"):
            object.__setattr__(self, f, tuple(getattr(self, f)))

    @cached_property
    def places(self) -> tuple:
        return tuple(item for item in self.body if isinstance(item, Place))

    @cached_property
    def guards(self) -> tuple:
        return tuple(item for item in self.body if not isinstance(item, Place))

    @cached_property
    def occurrences(self) -> tuple:
        """(variable, atom index, position in atom) of every place variable,
        0-based, left to right."""
        return tuple(
            (v, j, i)
            for j, place in enumerate(self.places)
            for i, v in enumerate(place.variables)
        )


IDENTITY_OP = OperadOperation(
    name=IDENTITY_NAME,
    body=(),
    target=EMPTY_NAME,
    target_columns=(),
    target_terms=(),
    variable_order=(),
    rq_name=EMPTY_NAME,
)


@dataclass(frozen=True)
class OperadArrow:
    """A compiled mapping: ordinary operations plus the identity."""

    name: str
    source_schema: Schema
    target_schema: Schema
    operations: tuple
    identity: OperadOperation = IDENTITY_OP

    def __post_init__(self) -> None:
        object.__setattr__(self, "operations", tuple(self.operations))


def build_variable_order(places: Sequence[Place]) -> tuple:
    """Left-to-right first occurrence of each variable across the atoms."""
    order: list[str] = []
    seen: set = set()
    for p in places:
        for v in p.variables:
            if v not in seen:
                seen.add(v)
                order.append(v)
    return tuple(order)


def build_equal_var_set(op: OperadOperation) -> frozenset:
    """One member set per shared variable, holding all of its occurrence
    pairs (positionInAtom, atomIndex), both 1-based."""
    occurrences: dict = {}
    for v, j, i in op.occurrences:
        occurrences.setdefault(v, []).append((i + 1, j + 1))
    return frozenset(
        frozenset(pairs) for pairs in occurrences.values() if len(pairs) >= 2
    )


def simple_var_positions(op: OperadOperation) -> frozenset:
    """Head positions (1-based) whose term is a simple variable."""
    return frozenset(
        j for j, t in enumerate(op.target_terms, 1) if isinstance(t, Var)
    )


def _compile_implication(
    impl: NormalizedImplication,
    source_schema: Schema,
    target_schema: Schema,
    index: int,
) -> OperadOperation:
    target_sym = target_schema.symbol(impl.head.relation)
    if len(impl.head.terms) != target_sym.arity:
        raise SchemaError(
            f"head atom {impl.head.relation} has {len(impl.head.terms)} terms; "
            f"arity is {target_sym.arity}"
        )
    body: list = []
    for lit in impl.lhs:
        if isinstance(lit, RelAtom):
            if lit.relation == EMPTY_NAME:
                raise SafetyError(f"{EMPTY_NAME} cannot occur in an ordinary lhs")
            variables = []
            for t in lit.terms:
                if not isinstance(t, Var):
                    raise SafetyError(
                        f"atom {lit.relation}: lhs atoms carry only variables "
                        "after constant hoisting"
                    )
                variables.append(t.name)
            char = lit.relation not in source_schema
            declared = None
            if not char:
                declared = source_schema.symbol(lit.relation).arity
            elif lit.relation in target_schema:
                declared = target_schema.symbol(lit.relation).arity
            if declared is not None and declared != len(variables):
                raise SchemaError(
                    f"atom {lit.relation} has {len(variables)} terms; arity is {declared}"
                )
            body.append(Place(lit.relation, tuple(variables), lit.negated, char))
        else:
            body.append(lit)
    places = [item for item in body if isinstance(item, Place)]
    if not places:
        raise SafetyError("an implication needs at least one relational lhs atom")
    order = build_variable_order(places)
    known = set(order)
    for item in body:
        if not isinstance(item, Place):
            for v in literal_variables(item):
                if v not in known:
                    raise SafetyError(f"guard variable {v} occurs in no lhs atom")
    for t in impl.head.terms:
        for v in term_variables(t):
            if v not in known:
                raise SafetyError(f"head variable {v} occurs in no lhs atom")
    return OperadOperation(
        name=f"q_{index}",
        body=tuple(body),
        target=target_sym.name,
        target_columns=target_sym.columns,
        target_terms=impl.head.terms,
        variable_order=order,
        rq_name=f"r_q{index}",
    )


def make_operads(
    impls: Sequence[NormalizedImplication],
    source_schema: Schema,
    target_schema: Schema,
    name: str = "M",
) -> OperadArrow:
    """One operation per non-trivial implication, numbered q_1, q_2, …; the
    identity operation is always part of the arrow."""
    operations = []
    index = 0
    for impl in impls:
        if impl.is_tautology:
            continue
        index += 1
        operations.append(_compile_implication(impl, source_schema, target_schema, index))
    return OperadArrow(name, source_schema, target_schema, tuple(operations))


def compile_source(
    text: str,
    source_schema: Schema,
    target_schema: Schema,
    name: str = "M",
) -> OperadArrow:
    """Full frontend: parse, skolemize tgds (SOtgds pass through), normalize,
    compile."""
    parsed = parse_mapping(text)
    if isinstance(parsed, SOtgd):
        sotgd = parsed
    else:
        if any(isinstance(d, Egd) for d in parsed):
            raise SchemaError("egds are intra-schema constraints, not mappings")
        sotgd = skolemize(parsed)
    return make_operads(normalize(sotgd), source_schema, target_schema, name)


# ---------------------------------------------------------------------------
# renderings


def _render(op: OperadOperation, logical: bool) -> str:
    parts = []
    places = 0
    for item in op.body:
        if not isinstance(item, Place):
            parts.append(pretty_literal(item))
            continue
        places += 1
        inner = ", ".join(item.variables)
        if logical and item.char:
            parts.append(f"f_{item.symbol}({inner}) = {0 if item.negated else 1}")
            continue
        symbol = item.symbol if logical else f"(_){places}"
        s = f"{symbol}({inner})"
        parts.append(f"not {s}" if item.negated else s)
    lhs = " & ".join(parts) if parts or logical else "(_)()"
    head = ", ".join(pretty_term(t) for t in op.target_terms)
    return f"{lhs} -> {op.target if logical else '(_)'}({head})"


def render_expression(op: OperadOperation) -> str:
    """The operation's expression with numbered place symbols."""
    return _render(op, logical=False)


def render_implication(op: OperadOperation) -> str:
    """The logical form: source atoms stay atoms, characteristic places
    render as f_r(t…) = 1 literals (= 0 when negated)."""
    return _render(op, logical=True)
