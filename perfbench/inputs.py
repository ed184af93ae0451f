"""Connection files made by the benchmark alone.

A connection is written as unexpanded form text for

    A = g Phi0 g^-1 lambda + g d(g^-1),    g = 1 + N,

with ``lambda = x1*dy1 + ... + xn*dyn`` (so d lambda = omega) and ``N``
strictly upper triangular with degree-1 entries.  Because ``N`` is
nilpotent, ``g^-1 = 1 - N + N^2 - ...`` is a finite sum, and its entries are
sums over strictly increasing index paths of products of entries of ``N``.
The differential ``d(g^-1)`` is written out by the product rule, each factor
being linear, so no polynomial arithmetic happens here: the program parses
and expands everything itself.  The result is symplectically flat by
construction (a gauge transform of the constant frame ``Phi0 lambda``),
without asking the program to generate or check anything.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import combinations

# A linear form is a list of (coordinate, coefficient); coordinate c < n is
# x_{c+1} and n + i is y_{i+1}, as in the program's chart convention.
Linear = list


def _coord_name(n: int, c: int, prefix: str = "") -> str:
    return f"{prefix}x{c + 1}" if c < n else f"{prefix}y{c - n + 1}"


def _signed_terms(terms: list[tuple[Fraction, str]]) -> str:
    """Join (coefficient, body) pairs as ``a*body - b*body ...``."""
    out = []
    for coeff, body in terms:
        mag = abs(coeff)
        text = body if mag == 1 else f"{mag}*{body}"
        if not out:
            out.append(text if coeff > 0 else f"-{text}")
        else:
            out.append(f" + {text}" if coeff > 0 else f" - {text}")
    return "".join(out)


def linear_text(n: int, lin: Linear) -> str:
    return _signed_terms([(c, _coord_name(n, i)) for i, c in lin])


def differential_text(n: int, lin: Linear) -> str:
    return _signed_terms([(c, _coord_name(n, i, "d")) for i, c in lin])


def lambda_text(n: int) -> str:
    return " + ".join(f"x{i}*dy{i}" for i in range(1, n + 1))


def _paths(i: int, j: int):
    """Strictly increasing index paths i = p0 < p1 < ... < pk = j, k >= 1."""
    inner = list(range(i + 1, j))
    for k in range(len(inner) + 1):
        for mid in combinations(inner, k):
            yield (i,) + mid + (j,)


def gauge_connection_text(n: int, phi0: list[list[Fraction]],
                          nil: dict[tuple[int, int], Linear]) -> list[list[str]]:
    """Entries of ``g Phi0 g^-1 lambda + g d(g^-1)`` as form text.

    ``nil`` maps (i, j) with i < j to the linear entry N_ij; missing keys are
    zero entries of N.
    """
    rank = len(phi0)
    lam = lambda_text(n)

    def factor(i: int, j: int) -> str:
        return f"({linear_text(n, nil[(i, j)])})"

    def inverse_terms(i: int, j: int) -> list[tuple[int, list[tuple[int, int]]]]:
        """(sign, edges) for each path product in (g^-1)_ij."""
        if i == j:
            return [(1, [])]
        out = []
        for path in _paths(i, j):
            edges = list(zip(path, path[1:]))
            if all(e in nil for e in edges):
                out.append((-1 if len(edges) % 2 else 1, edges))
        return out

    def g_factors(i: int, k: int) -> list[str] | None:
        if i == k:
            return []
        if i < k and (i, k) in nil:
            return [factor(i, k)]
        return None

    rows = []
    for i in range(rank):
        row = []
        for j in range(rank):
            summands: list[tuple[int, str]] = []
            # g Phi0 g^-1 lambda
            for k in range(rank):
                gk = g_factors(i, k)
                if gk is None:
                    continue
                for l in range(rank):
                    if not phi0[k][l]:
                        continue
                    for sign, edges in inverse_terms(l, j):
                        parts = gk + [f"({phi0[k][l]})"] + [factor(*e) for e in edges]
                        summands.append((sign, "*".join(parts + [f"({lam})"])))
            # g d(g^-1), by the product rule over each path product
            for k in range(rank):
                gk = g_factors(i, k)
                if gk is None or k >= j:
                    continue
                for sign, edges in inverse_terms(k, j):
                    for m, edge in enumerate(edges):
                        rest = [factor(*e) for q, e in enumerate(edges) if q != m]
                        diff = f"({differential_text(n, nil[edge])})"
                        summands.append((sign, "*".join(gk + rest + [diff])))
            row.append(_signed_terms([(Fraction(s), body) for s, body in summands])
                       if summands else "0")
        rows.append(row)
    return rows


def random_nilpotent(rng: random.Random, n: int, rank: int,
                     coords_per_entry: int) -> dict[tuple[int, int], Linear]:
    """Dense strictly upper triangular N with seeded linear entries.

    Every entry above the diagonal is present and uses the same number of
    coordinates, so seeds change coefficient values and coordinates but not
    the shape of the gauge.
    """
    nil = {}
    for i in range(rank):
        for j in range(i + 1, rank):
            coords = sorted(rng.sample(range(2 * n), coords_per_entry))
            nil[(i, j)] = [(c, _nonzero_fraction(rng)) for c in coords]
    return nil


def _nonzero_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2, 3]))


def connection_document(n: int, phi0: list[list[Fraction]],
                        nil: dict[tuple[int, int], Linear]) -> str:
    rows = gauge_connection_text(n, phi0, nil)
    return json.dumps({"n": n, "rank": len(phi0), "A": rows}, indent=1) + "\n"
