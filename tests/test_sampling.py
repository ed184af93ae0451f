"""The shared trial loop of the randomized identity checks."""

import hashlib
import random

import pytest

from primflat.cohomology import closedlem_check
from primflat.cone import check_chain_identities
from primflat.connection import generate_flat
from primflat.dsl import print_form
from primflat.forms import Form
from primflat.sampling import TrialReport, rand_form, rand_prim_element, run_trials
from primflat.scalars import Poly
from primflat.twist import check_square_zero

from oracle import rand_flat_connection, rand_unipotent


def test_run_trials_counts_failures_and_keeps_the_first():
    # draws 0 and 1 pass (residual None and zero); every larger draw fails
    rng = random.Random(4)
    events = []

    def sample():
        x = rng.randint(0, 5)
        events.append(("sample", x))
        return x

    def residual(x):
        events.append(("residual", x))
        return Form.zero(1, 0) if x == 0 else Poly.const(1, x - 1)

    report = run_trials("shifted", 60, sample, residual)
    replay = random.Random(4)
    drawn = [replay.randint(0, 5) for _ in range(60)]
    # one draw, then its residual, trial after trial, failing or not
    assert events == [event for x in drawn for event in (("sample", x), ("residual", x))]
    assert {0, 1} <= set(drawn)
    bad = [x for x in drawn if x > 1]
    # later failures are only counted: the example stays the first failing draw
    assert len(set(bad)) > 1
    assert report == TrialReport("shifted", 60, len(bad), bad[0], Poly.const(1, bad[0] - 1))


def test_run_trials_with_no_failure_reports_none():
    for residual in (lambda x: Form.zero(1, 0), lambda x: Poly.zero(1)):
        assert run_trials("pass", 5, lambda: 0, residual) == TrialReport("pass", 5, 0, None, None)
    # trials=0 draws nothing
    assert run_trials("none", 0, lambda: 1 / 0, lambda x: x) == TrialReport("none", 0)


@pytest.mark.parametrize("check", [check_square_zero, check_chain_identities])
def test_negative_trials_are_refused(check):
    # a report of trials=-3 counted no draw at all
    conn = generate_flat(1, 1, [[1]])
    with pytest.raises(ValueError, match="^trials must be >= 0, got -3$"):
        check(conn, trials=-3)


@pytest.mark.parametrize("trials", [True, 1.5])
@pytest.mark.parametrize("check", [check_square_zero, check_chain_identities, closedlem_check])
def test_trials_that_are_not_ints_are_refused(check, trials):
    # True ran one trial and reported trials=True; 1.5 failed inside range()
    conn = generate_flat(1, 1, [[1]])
    with pytest.raises(ValueError, match=f"^trials must be an int, got {trials}$"):
        check(conn, trials=trials)


def _printed(a):
    return print_form(a) if isinstance(a, Form) else repr(a.nested(print_form))


def test_seeded_draws_print_the_same_text():
    # one seed fixes every rng call of the samplers, and so every printed draw
    rng = random.Random(25)
    lines = []
    for n in (1, 2, 3):
        lines += [_printed(rand_form(rng, n, degree)) for degree in range(2 * n + 1)]
        for fiber in ("scalar", "vector", "matrix"):
            elem = rand_prim_element(rng, n, fiber, rank=2)
            lines.append(f"{elem.side} {elem.s} {_printed(elem.payload)}")
        lines += [_printed(rand_unipotent(rng, n, rank)) for rank in (1, 2, 3)]
        lines += [_printed(rand_flat_connection(rng, n, rank).A) for rank in (1, 2, 2)]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "5f3a67b162268f4dbb032286988df15507094a0105dfbb30ef45714ce2a9b599"
