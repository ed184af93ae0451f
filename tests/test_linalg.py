"""Integer echelon against the Fraction oracle on seeded sparse matrices."""

import random
from fractions import Fraction
from math import lcm

import pytest

from primflat.linalg import Echelon, kernel_basis

from oracle import FractionEchelon, contains

BIG = 2 ** 64 + 13  # numerators and denominators past one machine word
SEEDS = range(24)


def random_entry(rng):
    """A nonzero rational, sometimes with a numerator or denominator past 2^64."""
    numerator = rng.choice([1, -1, rng.randint(2, 9), rng.randint(1, 3) * BIG])
    return rng.choice([1, -1]) * Fraction(numerator, rng.choice([1, 1, 2, 3, 7, BIG + 2]))


def random_columns(rng, rows, cols):
    """Sparse columns with zero, duplicate, negated and combined columns,
    mixed denominators and numerators above 2^64."""
    columns = []
    for _ in range(cols):
        pick = rng.random()
        if columns and pick < 0.15:
            column = dict(rng.choice(columns))
        elif columns and pick < 0.3:
            column = {key: -value for key, value in rng.choice(columns).items()}
        elif len(columns) > 1 and pick < 0.45:
            column = {}
            for source in rng.sample(columns, 2):
                coeff = random_entry(rng)
                for key, value in source.items():
                    column[key] = column.get(key, 0) + coeff * value
            column = {key: value for key, value in column.items() if value}
        elif pick < 0.5:
            column = {}
        else:
            column = {(row, "e"): random_entry(rng) for row in range(rows)
                      if rng.random() < 0.4}
        columns.append(column)
    return columns


def combination(coeffs, columns):
    out = {}
    for tag, coeff in coeffs.items():
        for key, value in columns[tag].items():
            out[key] = out.get(key, 0) + coeff * value
    return {key: value for key, value in out.items() if value}


def fed_pair(seed):
    rng = random.Random(seed)
    columns = random_columns(rng, rng.randint(1, 7), rng.randint(1, 12))
    fast, slow = Echelon(track=True), FractionEchelon(track=True)
    results = [(fast.add(column, tag), slow.add(column, tag))
               for tag, column in enumerate(columns)]
    return rng, columns, fast, slow, results


@pytest.mark.parametrize("seed", SEEDS)
def test_independence_rank_and_relations_match_oracle(seed):
    _, columns, fast, slow, results = fed_pair(seed)
    for tag, (relation, expected) in enumerate(results):
        assert relation == expected, tag
        if relation is not None:
            # the relation's own tag comes first, with coefficient 1
            assert next(iter(relation)) == tag and relation[tag] == 1
            assert all(type(value) is Fraction for value in relation.values())
            assert combination(relation, columns) == {}
    assert fast.rank == slow.rank
    kernel, _ = kernel_basis(enumerate(columns))
    assert kernel == [expected for _, expected in results if expected is not None]


@pytest.mark.parametrize("seed", SEEDS)
def test_solve_and_contains_match_oracle(seed):
    rng, columns, fast, slow, _ = fed_pair(seed)
    hit = combination({tag: random_entry(rng) for tag in range(len(columns))}, columns)
    rows = {key for column in columns for key in column} | {(0, "e")}
    misses = [{**hit, key: hit.get(key, 0) + 1} for key in sorted(rows)]
    misses = [{key: value for key, value in miss.items() if value} for miss in misses]
    outside = {**hit, (99, "e"): Fraction(1)}
    for target in [hit, {}, outside] + misses:
        answer = fast.solve(target)
        assert answer == slow.solve(target)
        assert contains(fast, target) == slow.contains(target) == (answer is not None)
        if answer is not None:
            assert combination(answer, columns) == target
    assert fast.solve(hit) is not None
    assert fast.solve(outside) is None


@pytest.mark.parametrize("seed", SEEDS)
def test_untracked_and_clone_leave_the_original_alone(seed):
    rng, columns, fast, slow, _ = fed_pair(seed)
    rank = fast.rank
    outside = {(99, "e"): random_entry(rng), (0, "e"): random_entry(rng)}
    # an untracked echelon fed the stored rows spans what the columns span
    untracked, untracked_slow = Echelon(), FractionEchelon()
    for row, other in zip(fast.rows(), slow.rows()):
        assert untracked.add(row) is None and untracked_slow.add(other) is None
    for copy, oracle in [(fast.clone(), slow.clone()), (untracked, untracked_slow)]:
        assert copy.rank == rank
        assert copy.add(outside, "outside") is None
        assert oracle.add(outside, "outside") is None
        assert copy.rank == rank + 1
        for column in columns:
            assert contains(copy, column)
        probe = combination({tag: random_entry(rng) for tag in range(len(columns))},
                            columns)
        probe[(98, "e")] = Fraction(1)
        assert contains(copy, probe) == oracle.contains(probe) is False
    assert fast.rank == slow.rank == rank
    assert not contains(fast, outside)
    with pytest.raises(ValueError):
        untracked.solve({})


@pytest.mark.parametrize("seed", SEEDS)
def test_last_pivot_reads_the_lead_of_the_row_stored_last(seed):
    # independent vectors store a row whose pivot is its largest key, the
    # same key as over Fraction; a dependent one stores none
    _, columns, _, _, _ = fed_pair(seed)
    fast, slow = Echelon(), FractionEchelon()
    for column in columns:
        before = fast.rows()
        if fast.add(column) is None:
            assert slow.add(column) is None
            assert fast.last_pivot == slow.last_pivot == max(fast.rows()[-1])
            assert fast.rows()[:-1] == before
        else:
            assert slow.add(column) == {}
            assert fast.rows() == before
    assert [max(row) for row in fast.rows()] == [max(row) for row in slow.rows()]


@pytest.mark.parametrize("seed", SEEDS)
def test_uniformly_scaled_int_columns_keep_every_relation(seed):
    # int columns, all scale times the Fraction ones: the same independence
    # pattern and kernel relations, and solve answers divided by the scale
    rng, columns, fast, _, results = fed_pair(seed)
    scale = 3 * lcm(*(value.denominator for column in columns for value in column.values()))
    ech = Echelon(track=True)
    for tag, column in enumerate(columns):
        relation = ech.add({key: int(scale * value) for key, value in column.items()}, tag)
        assert relation == results[tag][0], tag
    hit = combination({tag: random_entry(rng) for tag in range(len(columns))}, columns)
    assert ech.solve(hit) == {tag: c / scale for tag, c in fast.solve(hit).items()}


@pytest.mark.parametrize("make", [Echelon, FractionEchelon])
def test_explicit_zero_entries_are_dropped(make):
    # a zero stored at a pivot key would never cancel, and reduction would not end
    ech = make(track=True)
    assert ech.add({(1,): Fraction(2), (0,): Fraction(1)}, "a") is None
    for zero in (0, Fraction(0)):
        assert contains(ech, {(1,): zero})
        assert ech.solve({(1,): Fraction(4), (0,): 2, (5,): zero}) == {"a": 2}
    assert ech.add({(1,): 0, (0,): 3}, "b") is None
    assert ech.rank == 2


def test_untracked_add_reports_dependence_without_relations():
    ech = Echelon()
    assert ech.add({(1,): Fraction(BIG, 3), (0,): Fraction(-1, BIG)}) is None
    assert ech.add({(1,): Fraction(-2 * BIG, 9), (0,): Fraction(2, 3 * BIG)}) == {}
    assert ech.rank == 1


def test_relation_with_big_coefficients_is_exact():
    # col2 = (BIG/3) col0 - (1/BIG) col1, so k = {2: 1, 0: -BIG/3, 1: 1/BIG}
    col0 = {(0,): Fraction(1), (1,): Fraction(2, 7)}
    col1 = {(1,): Fraction(BIG, 5)}
    col2 = {key: Fraction(BIG, 3) * col0.get(key, 0) - Fraction(col1.get(key, 0), BIG)
            for key in [(0,), (1,)]}
    kernel, ech = kernel_basis([(0, col0), (1, col1), (2, col2)])
    assert kernel == [{2: Fraction(1), 0: Fraction(-BIG, 3), 1: Fraction(1, BIG)}]
    assert ech.solve(col2) == {0: Fraction(BIG, 3), 1: Fraction(-1, BIG)}
