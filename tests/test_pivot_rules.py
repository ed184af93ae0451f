"""Echelon answers against a second pivot rule, and its stored rows.

``GaussJordanEchelon`` pivots on the smallest key over ``Fraction`` and
keeps its rows fully reduced, where ``Echelon`` pivots on the largest key
over ints: kernel relations normalized to ``k[tag] == 1`` and ``solve``
answers must still agree, on the seeded columns of ``test_linalg`` and on
real differential columns.
"""

import random
from math import gcd

import pytest

from primflat import cohomology
from primflat.cohomology import _space
from primflat.connection import generate_flat
from primflat.linalg import Echelon

from oracle import GaussJordanEchelon, diag, rand_unipotent
from test_linalg import SEEDS, combination, fed_pair, random_entry


def assert_same_answers(columns, hit, misses):
    """The same relations, and the same answers for a combination ``hit`` of
    the columns and for the ``misses``, which may lie outside their span
    (both echelons drop the zero entries a miss may have)."""
    fast, other = Echelon(track=True), GaussJordanEchelon()
    for tag, column in enumerate(columns):
        assert fast.add(column, tag) == other.add(column, tag), tag
    assert fast.rank == other.rank
    assert fast.solve(hit) is not None
    for target in [hit] + misses:
        assert fast.solve(target) == other.solve(target)


@pytest.mark.parametrize("seed", SEEDS)
def test_smallest_key_pivots_match_on_seeded_columns(seed):
    rng, columns, _, _, _ = fed_pair(seed)
    hit = combination({tag: random_entry(rng) for tag in range(len(columns))}, columns)
    rows = sorted({key for column in columns for key in column} | {(0, "e")})
    misses = [{**hit, key: hit.get(key, 0) + 1} for key in rows]
    assert_same_answers(columns, hit, [{}] + misses)


CONNECTIONS = [
    ("n1-frame", lambda: generate_flat(1, 2, diag(1, 0))),
    ("n1-gauged", lambda: generate_flat(1, 2, diag(1, 0),
                                        gauge=rand_unipotent(random.Random(7), 1, 2))),
    ("n2-frame", lambda: generate_flat(2, 2, diag(1, 0))),
    ("n2-gauged", lambda: generate_flat(2, 2, diag(1, 2),
                                        gauge=rand_unipotent(random.Random(12), 2, 2))),
]


@pytest.mark.parametrize("kind", ["prim", "cone"])
@pytest.mark.parametrize("label,make", CONNECTIONS, ids=[case[0] for case in CONNECTIONS])
def test_smallest_key_pivots_match_on_differential_columns(label, make, kind):
    # every grading with a differential, every key of degree <= 2
    conn = make()
    rng = random.Random(f"{label}-{kind}")
    base = cohomology._base(conn, kind, 2)
    for grading in range(2 * conn.n + 1):
        column, _ = cohomology._differential_columns(conn, kind, grading, base)
        columns = [column(key) for key in _space(conn, kind, grading, base).basis_keys(2)]
        hit = combination({tag: rng.randint(-3, 3) for tag in range(len(columns))}, columns)
        rows = sorted({key for column in columns for key in column})
        misses = [{**hit, key: hit.get(key, 0) + 1} for key in rng.sample(rows, min(5, len(rows)))]
        assert_same_answers(columns, hit, misses)


@pytest.mark.parametrize("seed", SEEDS)
def test_stored_rows_equal_their_recorded_combinations(seed):
    # Fraction entries with denominators past 2^64: the scale of a fed vector
    # is not 1, and each combination is still over the vectors as fed
    _, columns, fast, _, _ = fed_pair(seed)
    for key, (row, combo) in fast._pivots.items():
        assert key == max(row) and row[key] > 0
        assert combination(combo, columns) == row
        assert gcd(*row.values(), *combo.values()) == 1
