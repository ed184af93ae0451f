"""Acceptance suite: one test per criterion, all exact (zero tolerance).

Run with ``pytest tests/test_acceptance.py -v -s`` to see the one-line
PASS/FAIL verdict each criterion prints.
"""

import io
import json
import random
from fractions import Fraction

import pytest

from primflat.cli import CHECK_FAILED, run
from primflat.cohomology import (_kernel_sweep, _space, closedlem_check,
                                 cohomology_dims, cone_cohomology_dims,
                                 exactness_witness)
from primflat.cone import check_chain_identities
from primflat.connection import (Connection, analyze_flatness, generate_flat,
                                 yang_mills_residual)
from primflat.dsl import parse_form, print_form
from primflat.forms import Form, MatrixForm, wedge
from primflat.sampling import (rand_connection, rand_flat_connection,
                               rand_form, rand_prim_element, rand_unipotent)
from primflat.scalars import Poly
from primflat.ainfinity import PrimElement, check_stasheff
from primflat.twist import (check_square_zero, del_minus_A, del_plus_A,
                            m1_prime_of_A)


def verdict(number: int, ok: bool, text: str) -> None:
    print(f"\n[criterion {number:2d}] {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {number} failed: {text}"


def diag(*values):
    r = len(values)
    return [[values[i] if i == j else 0 for j in range(r)] for i in range(r)]


PHI0_TABLE = [
    (diag(0, 0), 2, 2, "zero"),
    (diag(1, 0), 1, 1, "diag(1,0)"),
    (diag(1, 2), 0, 0, "diag(1,2)"),
    ([[0, 1], [0, 0]], 1, 1, "nilpotent"),
]


def _flat_test_connections():
    """>= 20 symplectically flat connections spanning the required grid."""
    rng = random.Random(20250)
    connections = []
    for n in (1, 2):
        for r in (1, 2, 3):
            for gauged in (False, True):
                if gauged and r == 1:
                    continue
                connections.append(rand_flat_connection(rng, n, r, gauged=gauged))
    for n in (1, 2):
        connections.append(generate_flat(n, 2, diag(1, 0)))
        connections.append(generate_flat(n, 2, [[0, 1], [0, 0]]))
    while len(connections) < 20:
        connections.append(rand_flat_connection(rng, rng.choice([1, 2]),
                                                rng.choice([1, 2, 3])))
    return connections


def test_criterion_01_stasheff_identities():
    rng = random.Random(101)
    failures = 0
    for n in (1, 2, 3):
        for k in (1, 2, 3, 4):
            for _ in range(200):
                elems = [rand_prim_element(rng, n, "scalar", max_degree=3)
                         for _ in range(k)]
                if not check_stasheff(k, elems).is_zero:
                    failures += 1
    for k in (1, 2, 3, 4):
        for _ in range(50):
            n = rng.choice([1, 2, 3])
            elems = [rand_prim_element(rng, n, "matrix", rank=2, max_degree=3)
                     for _ in range(k)]
            if not check_stasheff(k, elems).is_zero:
                failures += 1
    verdict(1, failures == 0,
            "Stasheff identities k=1..4, 200 scalar tuples per (n, k) for "
            "n in {1,2,3} and 50 matrix-fiber tuples per k, all exactly zero")


def test_criterion_02_square_zero():
    connections = _flat_test_connections()
    assert len(connections) >= 20
    failures = 0
    for index, conn in enumerate(connections):
        report = check_square_zero(conn, trials=100, seed=900 + index)
        if not report.flat or report.failures:
            failures += 1
    nonflat = Connection(
        2, 1, MatrixForm([[Form(2, 1, {(1,): Poly.variable(2, 0)})]], 1))
    witness_report = check_square_zero(nonflat, trials=60, seed=999)
    witness_ok = (not witness_report.flat and witness_report.failures > 0
                  and witness_report.witness is not None)
    verdict(2, failures == 0 and witness_ok,
            f"twisted differential squares to zero on 100 elements for each of "
            f"{len(connections)} flat connections; non-flat witness exhibited")


def test_criterion_03_flatness_equivalence():
    rng = random.Random(103)
    flats = nonflats = mismatches = 0
    n1_nonflat_seen = False
    for _ in range(120):
        n = rng.choice([1, 2])
        r = rng.choice([1, 2, 3])
        if rng.random() < 0.5:
            conn = rand_flat_connection(rng, n, r)
        else:
            conn = rand_connection(rng, n, r, max_degree=2)
        flat = analyze_flatness(conn).is_symplectically_flat
        if m1_prime_of_A(conn).is_zero != flat:
            mismatches += 1
        flats += flat
        nonflats += not flat
        if n == 1 and not flat:
            n1_nonflat_seen = True
    verdict(3, mismatches == 0 and flats >= 30 and nonflats >= 30
            and n1_nonflat_seen,
            f"twisting obstruction vanishes iff symplectically flat on "
            f"{flats} flat / {nonflats} non-flat connections, including the "
            f"n=1 branch")


@pytest.mark.parametrize("phi0,dim_ker,dim_coker,name", PHI0_TABLE)
def test_criterion_04_dimension_table(phi0, dim_ker, dim_coker, name):
    ok = True
    details = []
    for n in (1, 2):
        conn = generate_flat(n, 2, phi0)
        at_5 = cohomology_dims(conn, "prim", D=5, stab_margins=(2, 3))
        at_6 = cohomology_dims(conn, "prim", D=6, stab_margins=(2, 3))
        expected = {"P0+": dim_ker, "P1+": dim_coker}
        for report in (at_5, at_6):
            if not report.all_stabilized:
                ok = False
            for pos in report.positions:
                want = expected.get(pos.label, 0)
                if pos.dim != want:
                    ok = False
                    details.append(f"n={n} {pos.label}: {pos.dim} != {want}")
        if at_5.dim_vector() != at_6.dim_vector():
            ok = False
            details.append(f"n={n}: D=5 and D=6 disagree")
    verdict(4, ok,
            f"local dimension table for Phi0={name}: bottom = dim ker, "
            f"next = dim coker, rest zero; stabilized over margins {{2,3}} "
            f"and D in {{5,6}}" + ("; " + "; ".join(details) if details else ""))


def test_criterion_05_vanishing_for_invertible():
    ok = True
    for n in (1, 2):
        for phi0, name in ((diag(1, 2), "diag"), ([[1, 1], [0, 1]], "triangular"),
                           ([[1, 2], [3, 4]], "dense")):
            conn = generate_flat(n, 2, phi0)
            prim = cohomology_dims(conn, "prim", D=4, stab_margins=(2, 3))
            cone = cone_cohomology_dims(conn, D=4, stab_margins=(2, 3))
            if any(v != 0 for v in prim.dims().values()):
                ok = False
            if any(v != 0 for v in cone.dims().values()):
                ok = False
    verdict(5, ok, "primitive and cone cohomologies vanish for invertible "
                   "constant fiber maps, diagonal and non-diagonal")


@pytest.mark.parametrize("phi0,dim_ker,dim_coker,name", PHI0_TABLE)
def test_criterion_06_cone_isomorphism(phi0, dim_ker, dim_coker, name):
    ok = True
    for n in (1, 2):
        conn = generate_flat(n, 2, phi0)
        prim = cohomology_dims(conn, "prim", D=5, stab_margins=(2, 3))
        cone = cone_cohomology_dims(conn, D=5, stab_margins=(2, 3))
        if prim.dim_vector() != cone.dim_vector():
            ok = False
        if not (prim.all_stabilized and cone.all_stabilized):
            ok = False
    verdict(6, ok, f"cone cohomology matches the primitive one "
                   f"position-for-position for Phi0={name}, n in {{1,2}}, D=5")


def test_criterion_07_chain_identities():
    rng = random.Random(107)
    connections = []
    for n in (1, 2):
        for r in (1, 2, 3):
            connections.append(rand_flat_connection(rng, n, r, gauged=False))
            if r > 1:
                connections.append(rand_flat_connection(rng, n, r, gauged=True))
    total_failures = 0
    for index, conn in enumerate(connections):
        reports = check_chain_identities(conn, trials=100, seed=700 + index,
                                         max_degree=4)
        total_failures += sum(rep.failures for rep in reports)
    verdict(7, total_failures == 0,
            f"f/g chain maps, fg = id, the homotopy identity and the "
            f"exactness witness hold on 100 random elements per identity for "
            f"{len(connections)} flat connections (all gradings swept, "
            f"boundaries included)")


def test_criterion_08_closedness_suites():
    ok = True
    witness_found = witness_tried = 0
    for n in (1, 2):
        conn = generate_flat(n, 2, diag(1, 0))
        phi = analyze_flatness(conn).Phi
        reports = closedlem_check(conn, trials=120, seed=800 + n, D=3)
        if sum(rep.trials for rep in reports) < 100:
            ok = False
        if any(rep.failures for rep in reports):
            ok = False
        rng = random.Random(808 + n)
        gradings = list(range(0, n + 1)) + list(range(n + 2, 2 * n + 2))
        for grading in gradings:
            space = _space(conn, "prim", grading)
            kernel, _ = _kernel_sweep(conn, "prim", space, 3)
            if not kernel:
                continue
            for _ in range(15):
                coords = {}
                for _pick in range(2):
                    vec = rng.choice(kernel)
                    scale = Fraction(rng.randint(-2, 2))
                    for key, val in vec.items():
                        acc = coords.get(key, Fraction(0)) + scale * val
                        if acc:
                            coords[key] = acc
                        else:
                            coords.pop(key, None)
                if not coords:
                    continue
                beta = space.element_from_coords(coords)
                image = wedge(phi, beta.payload)
                if image.is_zero:
                    continue
                witness_tried += 1
                # Phi eats into the composite differentials, side by side
                if grading <= n:
                    composite = del_plus_A(conn, del_minus_A(conn, beta.payload))
                else:
                    composite = del_minus_A(conn, del_plus_A(conn, beta.payload))
                if composite != image:
                    ok = False
                side, s = beta.side, beta.s
                witness = exactness_witness(conn, "prim",
                                            PrimElement(side, s, image))
                if witness is None:
                    ok = False
                else:
                    witness_found += 1
    verdict(8, ok and witness_tried >= 10 and witness_found == witness_tried,
            f"Phi-multiples of sampled closed elements are exact "
            f"({witness_found}/{witness_tried} witnesses found) and the three "
            f"closedness identities hold on kernel samples")


def test_criterion_09_yang_mills():
    connections = _flat_test_connections()
    failures = sum(1 for conn in connections
                   if not yang_mills_residual(conn).is_zero)
    verdict(9, failures == 0,
            f"Yang-Mills residual vanishes for all {len(connections)} "
            f"symplectically flat test connections")


def test_criterion_10_gauge_invariance():
    rng = random.Random(110)
    ok = True
    for n in (1, 2):
        for phi0, _, _, name in PHI0_TABLE:
            base = generate_flat(n, 2, phi0)
            gauge = rand_unipotent(rng, n, 2, max_degree=1)
            gauged = generate_flat(n, 2, phi0, gauge=gauge)
            d_base = cohomology_dims(base, "prim", D=4, stab_margins=(2, 3))
            d_gauged = cohomology_dims(gauged, "prim", D=4, stab_margins=(2, 3))
            if d_base.dim_vector() != d_gauged.dim_vector():
                ok = False
            if not d_gauged.all_stabilized:
                ok = False
    verdict(10, ok, "cohomology dimensions unchanged under unipotent gauge "
                    "transformations of the canonical frames")


def test_criterion_11_cli_contract(tmp_path):
    rng = random.Random(111)
    round_trip_failures = 0
    count = 0
    for n in (1, 2, 3):
        for _ in range(200):
            k = rng.randint(0, 2 * n)
            f = rand_form(rng, n, k, max_degree=3, max_terms=3)
            if parse_form(print_form(f), n) != f:
                round_trip_failures += 1
            count += 1

    flat_path = tmp_path / "flat.json"
    flat_path.write_text(json.dumps({
        "n": 2, "rank": 2,
        "A": [["(x1)*dy1 + (x2)*dy2", "0"], ["0", "0"]]}))
    nonflat_path = tmp_path / "nonflat.json"
    nonflat_path.write_text(json.dumps({"n": 2, "rank": 1, "A": [["(x1)*dx2"]]}))

    buffers = [io.StringIO(), io.StringIO()]
    codes = [run(["twist-square", "--connection", str(flat_path),
                  "--trials", "12", "--seed", "77"], stdout=buf)
             for buf in buffers]
    deterministic = buffers[0].getvalue() == buffers[1].getvalue()
    passing_exit = codes[0] == 0
    failing_exit = run(["twist-square", "--connection", str(nonflat_path),
                        "--trials", "25", "--seed", "77"],
                       stdout=io.StringIO()) == CHECK_FAILED
    usage_exit = run(["decompose", "--n", "2", "--form", "dx9"],
                     stdout=io.StringIO()) == 1
    ok = (round_trip_failures == 0 and count >= 200 and deterministic
          and passing_exit and failing_exit and usage_exit)
    verdict(11, ok,
            f"DSL round-trip on {count} random forms, byte-identical seeded "
            f"reports, and the 0/1/2 exit-code contract")
