"""Seeded random generators for forms and for primitive and cone elements,
and `run_trials`, the trial loop of every randomized identity check, whose
`TrialReport` is the one result type of all of them.

Every generator takes an explicit `random.Random`; one seed drives a whole
randomized check, which keeps counterexamples reproducible and CLI reports
byte-identical across runs.  Coefficients are small rationals and
polynomials are sparse: the identities under test are exact, so dense
inputs buy nothing but runtime.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Optional

from .forms import Form, MatrixForm, VectorForm, all_indices
from .lefschetz import pi_p
from .scalars import Monomial, _check_count
from .ainfinity import MINUS, PLUS, PrimElement, grading_position


@dataclass
class TrialReport:
    """Outcome of ``trials`` draws checked against one identity ``name``.

    ``failures`` counts the failing draws; ``example`` is the first of them
    and ``residual`` its residual, both None when every draw passed.
    """

    name: str
    trials: int
    failures: int = 0
    example: Any = None
    residual: Any = None


def run_trials(name: str, trials: int, sample: Callable[[], Any],
               residual: Callable[[Any], Any]) -> TrialReport:
    """The `TrialReport` of ``trials`` draws of ``sample()``.

    A draw fails when ``residual(draw)`` is not zero (``.is_zero``).
    Draws are taken one at a time, each followed by its residual, so a
    seeded sampler draws in the same order whatever the residuals are.  A
    ``trials`` that is not an int >= 0 (a bool is not) raises ValueError.
    """
    _check_count("trials", trials, "trials")
    report = TrialReport(name, trials)
    for _ in range(trials):
        drawn = sample()
        value = residual(drawn)
        if not value.is_zero:
            if not report.failures:
                report.example, report.residual = drawn, value
            report.failures += 1
    return report


def rand_fraction(rng: random.Random, zero_ok: bool = True) -> Fraction:
    num = rng.randint(-3, 3)
    if not zero_ok:
        while num == 0:
            num = rng.randint(-3, 3)
    return Fraction(num, rng.choice([1, 1, 2, 3]))


def rand_terms(rng: random.Random, n: int, max_degree: int, max_terms: int = 2,
               zero_ok: bool = True) -> dict[Monomial, Fraction]:
    """The ``{monomial: nonzero Fraction}`` terms of a random polynomial."""
    terms = {}
    for _ in range(rng.randint(0 if zero_ok else 1, max_terms)):
        degree = rng.randint(0, max_degree)
        mono = [0] * (2 * n)
        for _ in range(degree):
            mono[rng.randrange(2 * n)] += 1
        terms[tuple(mono)] = rand_fraction(rng, zero_ok=False)
    return terms


def rand_form(rng: random.Random, n: int, degree: int, max_degree: int = 3,
              max_terms: int = 2) -> Form:
    idxs = all_indices(n, degree)
    if not idxs:
        return Form.zero(n, degree)
    chosen = rng.sample(idxs, k=min(len(idxs), rng.randint(1, 2)))
    return Form._from_rationals(n, degree, {
        idx: rand_terms(rng, n, max_degree, max_terms, zero_ok=False) for idx in chosen})


def rand_primitive_form(rng: random.Random, n: int, s: int, max_degree: int = 3,
                        nonzero: bool = True) -> Form:
    """Primitive projection of a random s-form (resampled until nonzero)."""
    for _ in range(50):
        beta = pi_p(0, rand_form(rng, n, s, max_degree))
        if not nonzero or not beta.is_zero:
            return beta
    raise RuntimeError(f"could not sample a nonzero primitive {s}-form")


def rand_primitive_vector(rng: random.Random, n: int, s: int, rank: int,
                          max_degree: int = 3) -> VectorForm:
    """Primitive projection of a random vector of s-forms; when it vanishes,
    one entry, picked at random, is resampled until nonzero."""
    vec = pi_p(0, VectorForm([rand_form(rng, n, s, max_degree) for _ in range(rank)], s))
    if vec.is_zero:
        entries = [Form.zero(n, s)] * rank
        which = rng.randrange(rank)  # drawn before the entry it picks
        entries[which] = rand_primitive_form(rng, n, s, max_degree)
        vec = VectorForm(entries, s)
    return vec


def rand_primitive_matrix(rng: random.Random, n: int, s: int, rank: int,
                          max_degree: int = 3) -> MatrixForm:
    """The matrix analogue of `rand_primitive_vector`; a resampled entry's
    form is drawn before its row and column."""
    mat = pi_p(0, MatrixForm([[rand_form(rng, n, s, max_degree) for _ in range(rank)]
                              for _ in range(rank)], s))
    if mat.is_zero:
        beta = rand_primitive_form(rng, n, s, max_degree)
        rows = [[Form.zero(n, s)] * rank for _ in range(rank)]
        rows[rng.randrange(rank)][rng.randrange(rank)] = beta
        mat = MatrixForm(rows, s)
    return mat


def rand_prim_element(rng: random.Random, n: int, fiber: str = "scalar",
                      rank: int = 1, side: Optional[str] = None,
                      s: Optional[int] = None, max_degree: int = 3) -> PrimElement:
    if side is None:
        side = rng.choice([PLUS, MINUS])
    if s is None:
        s = rng.randint(0, n)
    if fiber == "scalar":
        payload = rand_primitive_form(rng, n, s, max_degree)
    elif fiber == "vector":
        payload = rand_primitive_vector(rng, n, s, rank, max_degree)
    elif fiber == "matrix":
        payload = rand_primitive_matrix(rng, n, s, rank, max_degree)
    else:
        raise ValueError(f"unknown fiber {fiber!r}")
    return PrimElement(side, s, payload)


def rand_element_at_grading(rng: random.Random, n: int, grading: int,
                            fiber: str = "scalar", rank: int = 1,
                            max_degree: int = 3) -> PrimElement:
    position = grading_position(n, grading)
    if position is None:
        raise ValueError(f"grading {grading} outside the complex for n={n}")
    side, s = position
    return rand_prim_element(rng, n, fiber, rank, side, s, max_degree)


def rand_vector_form(rng: random.Random, n: int, degree: int, rank: int,
                     max_degree: int = 2) -> VectorForm:
    # outside 0..2n every entry is the zero form, drawn without an rng call
    entries = [rand_form(rng, n, degree, max_degree) for _ in range(rank)]
    return VectorForm(entries, degree)


def rand_cone_element(rng: random.Random, conn, grading: int,
                      max_degree: int = 2):
    """Random element of the cone complex at the given grading."""
    from .cone import ConeElement  # deferred: cone imports this module

    n, rank = conn.n, conn.rank
    return ConeElement(grading,
                       rand_vector_form(rng, n, grading, rank, max_degree),
                       rand_vector_form(rng, n, grading - 1, rank, max_degree))
