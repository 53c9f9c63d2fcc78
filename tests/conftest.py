from collections import Counter
from pathlib import Path
from typing import Iterable, Mapping

import pytest

from dbmorph.model import Instance, Relation, Row, Schema
from dbmorph.project import (
    compile_project_mapping,
    load_interpretation_file,
    load_project,
)

FIXTURES = Path(__file__).parent / "fixtures"


def build_instance(schema: Schema, rows: Mapping[str, Iterable[Row]]) -> Instance:
    """An instance of ``schema`` from the rows of some of its relations, as
    the tests build one in code; omitted relations are empty."""
    return Instance(schema, {name: Relation(schema.symbol(name), rws) for name, rws in rows.items()})


def count_index_builds(monkeypatch) -> Counter:
    """(relation name, positions) -> how many times ``Relation.index``
    builds that index from here on, counted as the calls that find it
    not yet built."""
    builds: Counter = Counter()
    index = Relation.index

    def counting_index(rel, positions=()):
        if positions not in rel._indexes:
            builds[rel.symbol.name, positions] += 1
        return index(rel, positions)

    monkeypatch.setattr(Relation, "index", counting_index)
    return builds


def load_example(name):
    return load_project(FIXTURES / name / "project.json")


def arrow_and_interp(project, example, mapping, interp_file):
    arrow = compile_project_mapping(project, mapping)
    it = load_interpretation_file(FIXTURES / example / interp_file, project)
    return arrow, it


@pytest.fixture(scope="session")
def example1():
    return load_example("example1")


@pytest.fixture(scope="session")
def example3():
    return load_example("example3")


@pytest.fixture(scope="session")
def example4():
    return load_example("example4")


@pytest.fixture(scope="session")
def example5():
    return load_example("example5")
