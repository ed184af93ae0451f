"""Sparse exact linear algebra over the rationals.

Vectors are plain dicts mapping totally ordered hashable keys to nonzero
`Fraction`s; the zero vector is the empty dict.  Keys are whatever a caller
uses to label basis elements (monomial/index tuples), so vectors from
different truncations of the same space compose without re-indexing.

`Echelon` maintains an incremental row-echelon basis: each stored vector is
normalized so its largest key (the pivot) has coefficient 1, and every key
of a stored vector is <= its pivot.  Reducing an incoming vector cancels its
largest key whenever that key is a pivot, so the largest key strictly
decreases and one forward sweep terminates.  A vector lies in the current
span iff it reduces to the empty dict.  Stored vectors are never mutated,
which makes `clone` a shallow dict copy.

All arithmetic is exact; there is no pivot-magnitude heuristic because
there is nothing to round.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Hashable, Iterable, Optional

Vec = dict  # key -> Fraction, no zero entries stored


def vec_add_scaled(target: Vec, coeff: Fraction, source: Vec) -> None:
    """In place target += coeff * source, dropping entries that cancel."""
    if not coeff:
        return
    for key, value in source.items():
        acc = target.get(key)
        if acc is None:
            target[key] = coeff * value
        else:
            acc = acc + coeff * value
            if acc:
                target[key] = acc
            else:
                del target[key]


def vec_scaled(source: Vec, coeff: Fraction) -> Vec:
    return {key: coeff * value for key, value in source.items()}


class _Pivot:
    __slots__ = ("vec", "combo")

    def __init__(self, vec: Vec, combo: Optional[Vec]):
        self.vec = vec
        self.combo = combo


class Echelon:
    """Incremental exact echelon basis with optional combination tracking.

    With ``track=True`` every stored vector remembers its expression as a
    combination of the original vectors fed in (keyed by their tags), which
    is what kernel extraction and preimage solving need.  Tracking costs
    memory quadratic in the rank, so leave it off for pure rank counting.
    """

    def __init__(self, track: bool = False):
        self.track = track
        self._pivots: dict[Any, _Pivot] = {}

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def clone(self) -> "Echelon":
        other = Echelon(self.track)
        other._pivots = dict(self._pivots)
        return other

    def untracked(self) -> "Echelon":
        """Same span without the combinations; the stored vectors are shared."""
        other = Echelon()
        other._pivots = {key: _Pivot(pivot.vec, None)
                         for key, pivot in self._pivots.items()}
        return other

    def reduce(self, vec: Vec) -> tuple[Vec, Vec]:
        """Reduce against the stored basis.

        Returns ``(residual, combo)`` with
        ``vec == residual + sum(combo[tag] * original_vector_tag)``.
        The combo is empty (and meaningless) on untracked echelons.
        """
        vec = dict(vec)
        combo: Vec = {}
        while vec:
            key = max(vec)
            pivot = self._pivots.get(key)
            if pivot is None:
                break
            coeff = vec[key]
            vec_add_scaled(vec, -coeff, pivot.vec)
            if self.track:
                vec_add_scaled(combo, coeff, pivot.combo)
        return vec, combo

    def add(self, vec: Vec, tag: Hashable = None) -> Optional[Vec]:
        """Feed one vector.

        If it is independent of the span so far it is stored and None is
        returned.  If it is dependent, the kernel combination ``k`` with
        ``sum(k[t] * original_vector_t) == 0`` (including this vector under
        ``tag``) is returned when tracking, else an empty dict.
        """
        residual, combo = self.reduce(vec)
        if not residual:
            if not self.track:
                return {}
            kernel = {tag: Fraction(1)}
            vec_add_scaled(kernel, Fraction(-1), combo)
            return kernel
        lead = max(residual)
        inv = Fraction(1) / residual[lead]
        stored = vec_scaled(residual, inv)
        stored_combo = None
        if self.track:
            stored_combo = {tag: inv}
            vec_add_scaled(stored_combo, -inv, combo)
        self._pivots[lead] = _Pivot(stored, stored_combo)
        return None

    def contains(self, vec: Vec) -> bool:
        residual, _ = self.reduce(vec)
        return not residual

    def solve(self, vec: Vec) -> Optional[Vec]:
        """Combination of fed vectors equal to ``vec``, or None.

        Requires tracking.  The returned dict maps tags to coefficients.
        """
        if not self.track:
            raise ValueError("solve requires a tracking Echelon")
        residual, combo = self.reduce(vec)
        if residual:
            return None
        return combo


def kernel_basis(columns: Iterable[tuple[Hashable, Vec]]) -> tuple[list[Vec], Echelon]:
    """Kernel of the matrix whose columns are ``(tag, vector)`` pairs.

    Each kernel dict maps column tags to coefficients of an exact linear
    relation among the columns.  The tracked echelon of the columns is
    returned alongside: it spans their image and solves for preimages.
    """
    ech = Echelon(track=True)
    kernel = []
    for tag, vec in columns:
        relation = ech.add(vec, tag)
        if relation is not None:
            kernel.append(relation)
    return kernel, ech
