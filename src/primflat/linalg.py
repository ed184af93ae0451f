"""Sparse exact linear algebra over the rationals.

Vectors are plain dicts mapping totally ordered hashable keys to nonzero
`Fraction`s; the zero vector is the empty dict.  The echelon also takes
vectors of ints as they are (an int is a rational with denominator 1), and
it drops zero entries of the vectors it is given.  Keys are whatever a caller
uses to label basis elements (monomial/index tuples), so vectors from
different truncations of the same space compose without re-indexing.

`Echelon` maintains an incremental row-echelon basis: every key of a stored
row is <= its largest key (the pivot).  Reducing an incoming vector cancels
its largest key whenever that key is a pivot, so the largest key strictly
decreases and one forward sweep terminates.  A vector lies in the current
span iff it reduces to the empty dict.  The pivots of an echelon depend
only on its span: a key is a pivot iff some vector of the span has it as its
largest key.  Rows are stored in feed order and never mutated, which makes
`clone` a shallow dict copy, `rows` a list of the stored dicts, and
`last_pivot`, the pivot of the row stored last, one dict lookup.

Elimination runs on Python ints, never on `Fraction`s.  An incoming vector
is scaled once by the lcm of its denominators (1 for an int vector, which
is only copied).  Each step is the fraction-free update
``res = alpha * res - beta * P`` with ``alpha = b / g``, ``beta = a / g``,
where ``a`` and ``b`` are the pivot-key entries of ``res`` and of the row
``P``, and ``g = gcd(a, b)`` (Bareiss 1968 without the division, since rows
are kept primitive instead).  A stored row has a positive pivot entry and
no common factor: on its own when stored untracked, jointly with its
combination when stored tracked.  Combinations are int dicts over the tags
of the fed vectors themselves, over a denominator that starts as the scale
and takes each ``alpha``; results divide by it once, at the `add`/`solve`
boundary.

The answers do not depend on these internals.  Which fed vectors are
independent depends only on the order they are fed in.  A kernel relation
normalized to ``k[tag] == 1`` writes the dependent vector in the earlier
independent ones, and a `solve` answer writes its target in the independent
ones, so both are unique.  Elimination over `Fraction` gives the same
relations and answers, and the tests compare the two.

All arithmetic is exact; there is no pivot-magnitude heuristic because
there is nothing to round.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Any, Hashable, Iterable, Optional

from .scalars import _accumulate

Vec = dict  # key -> Fraction (or int, on input), no zero entries stored


def _integral(vec: Vec) -> tuple[dict, int]:
    """``(scale * vec, scale)`` over ints, with scale the lcm of the
    denominators; zero entries drop (a stored zero at a pivot key would
    never cancel)."""
    scale = lcm(*{value.denominator for value in vec.values()})
    if scale == 1:
        return {key: value.numerator for key, value in vec.items() if value}, 1
    return ({key: value.numerator * (scale // value.denominator)
             for key, value in vec.items() if value}, scale)


def _combine(alpha: int, target: dict, beta: int, source: dict) -> None:
    """In place target = alpha * target - beta * source over ints."""
    if alpha != 1:
        for key in target:
            target[key] *= alpha
    _accumulate(target, source, -beta)


class Echelon:
    """Incremental exact echelon basis with optional combination tracking.

    With ``track=True`` every stored row remembers its expression as an int
    combination of the original vectors fed in, unscaled (keyed by their
    tags, which must be distinct), which is what kernel extraction and
    preimage solving need.  Tracking costs memory quadratic in the rank, so
    leave it off for pure rank counting.
    """

    def __init__(self, track: bool = False):
        self.track = track
        self._pivots: dict[Any, tuple[dict, Optional[dict]]] = {}

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def clone(self) -> "Echelon":
        other = Echelon(self.track)
        other._pivots = dict(self._pivots)
        return other

    def rows(self) -> list[dict]:
        """The stored rows, without their combinations, in the order stored."""
        return [row for row, _ in self._pivots.values()]

    @property
    def last_pivot(self) -> Hashable:
        """The pivot key of the row stored last; the echelon must not be empty."""
        return next(reversed(self._pivots))

    def _reduce(self, vec: Vec) -> tuple[dict, dict, int, Hashable]:
        """Reduce over ints against the stored rows.

        Returns ``(residual, combo, den, lead)`` with
        ``residual == den * vec + sum(combo[t] * v_t)`` over the fed vectors
        ``v_t``; ``den`` is positive, and ``lead`` is the largest key of a
        non-empty residual.  On untracked echelons the combo stays empty and
        ``den`` is only the scale of ``vec``.
        """
        res, den = _integral(vec)
        combo: dict = {}
        pivots = self._pivots
        track = self.track
        key = None
        while res:
            key = max(res)
            pivot = pivots.get(key)
            if pivot is None:
                break
            row, row_combo = pivot
            a = res[key]
            b = row[key]
            g = gcd(a, b)
            alpha, beta = b // g, a // g
            _combine(alpha, res, beta, row)
            if track:
                _combine(alpha, combo, beta, row_combo)
                den *= alpha
        return res, combo, den, key

    def add(self, vec: Vec, tag: Hashable = None) -> Optional[Vec]:
        """Feed one vector.

        If it is independent of the span so far it is stored (its pivot is
        then `last_pivot`) and None is returned.  If it is dependent, the
        kernel combination ``k`` with ``sum(k[t] * original_vector_t) == 0``
        and ``k[tag] == 1``, that is ``{tag: 1, t: combo[t] / den}`` with
        ``tag`` its first key, is returned when tracking, else {}.
        """
        residual, combo, den, lead = self._reduce(vec)
        if not residual:
            if not self.track:
                return {}
            kernel = {tag: Fraction(1)}
            kernel.update({t: Fraction(c, den) for t, c in combo.items()})
            return kernel
        if self.track:
            combo = {tag: den, **combo}
        # the joint content; combo is empty when untracked
        content = gcd(*residual.values(), *combo.values())
        if residual[lead] < 0:
            content = -content
        if content != 1:
            residual = {key: value // content for key, value in residual.items()}
            combo = {t: c // content for t, c in combo.items()}
        self._pivots[lead] = (residual, combo if self.track else None)
        return None

    def solve(self, vec: Vec) -> Optional[Vec]:
        """Combination of fed vectors equal to ``vec``, or None.

        Requires tracking.  The returned dict maps tags to ``-combo[t] / den``.
        """
        if not self.track:
            raise ValueError("solve requires a tracking Echelon")
        residual, combo, den, _ = self._reduce(vec)
        if residual:
            return None
        return {t: Fraction(-c, den) for t, c in combo.items()}


def kernel_basis(columns: Iterable[tuple[Hashable, Vec]]) -> tuple[list[Vec], Echelon]:
    """Kernel of the matrix whose columns are ``(tag, vector)`` pairs.

    Each kernel dict maps column tags to coefficients of an exact linear
    relation among the columns: its first key is the tag of a dependent
    column, with coefficient 1, and every other key the tag of an earlier
    independent one.  The tracked echelon of the columns is
    returned alongside: it spans their image and solves for preimages.
    """
    ech = Echelon(track=True)
    kernel = []
    for tag, vec in columns:
        relation = ech.add(vec, tag)
        if relation is not None:
            kernel.append(relation)
    return kernel, ech
