"""Truncated-space cohomology: operators, dimensions, witnesses."""

import random
import re
from fractions import Fraction
from operator import add

import pytest

from primflat import cohomology, lefschetz, linalg
from primflat.cohomology import (TruncatedSpace, closedlem_check, cohomology_dims,
                                 exactness_witness, _base, _kernel_sweep, _space)
from primflat.connection import Connection, analyze_flatness, generate_flat
from primflat.dsl import parse_form
from primflat.errors import InternalInvariantError
from primflat.forms import (Form, MatrixForm, VectorForm, all_indices, lambda_standard,
                            merge_indices, wedge)
from primflat.linalg import Echelon, kernel_basis
from primflat.sampling import rand_unipotent
from primflat.scalars import Poly, monomials_up_to
from primflat.ainfinity import PLUS, ZERO, PrimElement, grading_position
from primflat.cone import ConeElement, cone_d
from primflat.twist import twisted_m1

from oracle import (FractionEchelon, assemble_operator, contains, dense_gauge_rank4, diag,
                    survivors_by_margin, symbolic_column, symbolic_columns)


def test_assemble_untwisted_functions():
    # A = 0 at the bottom position: kernel of d on functions = constants
    for r in (1, 2):
        conn = Connection(1, r, MatrixForm.zero(1, 1, r))
        matrix = assemble_operator(conn, "prim", (PLUS, 0), D_source=2)
        kernel, _ = kernel_basis(zip(matrix.source_keys, matrix.columns))
        assert len(kernel) == r


def test_assemble_canonical_frame_kernel():
    # n=1, r=2, Phi0=diag(1,0): polynomial solutions of the twisted
    # closedness equation at the bottom are the constants killed by Phi0
    conn = generate_flat(1, 2, diag(1, 0))
    matrix = assemble_operator(conn, "prim", (PLUS, 0), D_source=3)
    kernel, _ = kernel_basis(zip(matrix.source_keys, matrix.columns))
    assert len(kernel) == 1
    element = matrix.source.element_from_coords(kernel[0])
    # the kernel vector is a constant section spanning ker Phi0 = e2
    assert element.payload.entries[0].is_zero
    assert element.payload.entries[1].coefficient_degree() == 0


def test_assemble_matrix_shape():
    conn = generate_flat(2, 2, diag(1, 0))
    matrix = assemble_operator(conn, "prim", (PLUS, 1), D_source=2)
    space = TruncatedSpace("prim", 2, 2, 1, matrix.source.base)
    target = TruncatedSpace("prim", 2, 2, 2, matrix.source.base)
    assert matrix.num_cols == space.dimension(2) == len(matrix.source_keys)
    assert matrix.num_rows == target.dimension(matrix.D_target)
    assert matrix.D_target == 2 + 1  # coefficient degree of lambda is 1


def test_assemble_rejects_insufficient_target():
    conn = generate_flat(2, 2, diag(1, 0))
    with pytest.raises(ValueError):
        assemble_operator(conn, "prim", (PLUS, 1), D_source=2, D_target=2)


def test_space_coords_round_trip():
    # every position at n = 1..3, fractional coordinates whose denominators
    # differ across units and slots, so a vector's one den reads each of them
    for n in (1, 2, 3):
        conn = generate_flat(n, 2, diag(1, 3))
        for kind in ("prim", "cone"):
            base = _base(conn, kind, 2)
            for grading in range(0, 2 * n + 2):
                space = _space(conn, kind, grading, base)
                rng = random.Random(100 * n + grading)
                keys = space.basis_keys(2)
                coords = {}
                for key in rng.sample(keys, min(8, len(keys))):
                    slot, _, _, u = space.split(key)
                    den = (u + 2) * (2 * slot + 3) * rng.randint(1, 4)
                    coords[key] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), den)
                element = space.element_from_coords(coords)
                assert space.coords_of(element) == coords


DIMENSION_TABLE = [
    # (phi0, dim ker, dim coker)
    (diag(0, 0), 2, 2),
    (diag(1, 0), 1, 1),
    (diag(1, 2), 0, 0),
    ([[0, 1], [0, 0]], 1, 1),  # nilpotent
]


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("phi0,dim_ker,dim_coker", DIMENSION_TABLE)
def test_local_dimension_table_small_truncation(n, phi0, dim_ker, dim_coker):
    conn = generate_flat(n, 2, phi0)
    report = cohomology_dims(conn, "prim", D=3, stab_margins=(2, 3))
    assert report.all_stabilized
    dims = report.dims()
    assert dims["P0+"] == dim_ker
    assert dims["P1+"] == dim_coker
    for label, value in dims.items():
        if label not in ("P0+", "P1+"):
            assert value == 0


def test_vanishing_for_invertible_phi():
    for n in (1, 2):
        for phi0 in (diag(1, 2), [[1, 1], [0, 1]], [[1, 2], [3, 4]]):
            conn = generate_flat(n, 2, phi0)
            prim = cohomology_dims(conn, "prim", D=3)
            assert all(v == 0 for v in prim.dims().values())
            cone = cohomology_dims(conn, "cone", D=3)
            assert all(v == 0 for v in cone.dims().values())


def test_vanishing_for_rank_one_scaled_potential():
    # A = lambda I at rank 1: Phi = 1 is invertible, everything dies
    for n in (1, 2):
        conn = generate_flat(n, 1, [[1]])
        report = cohomology_dims(conn, "prim", D=4)
        assert all(v == 0 for v in report.dims().values())


def test_untwisted_rank_one_dimensions_and_lambda_class():
    # A = 0, rank 1: constants at the bottom and the class of lambda above
    n = 2
    conn = Connection(n, 1, MatrixForm.zero(n, 1, 1))
    report = cohomology_dims(conn, "prim", D=4, stab_margins=(2, 3))
    dims = report.dims()
    assert dims["P0+"] == 1 and dims["P1+"] == 1
    assert all(v == 0 for label, v in dims.items() if label not in ("P0+", "P1+"))
    # the P1+ witness generates the same class as lambda itself
    lam_elem = PrimElement(PLUS, 1, VectorForm([lambda_standard(n)], 1))
    assert twisted_m1(conn, lam_elem).is_zero
    base = _base(conn, "prim", 4 + 3)
    space1, space0 = _space(conn, "prim", 1, base), _space(conn, "prim", 0, base)
    ech = Echelon()
    for key in space0.basis_keys(4 + 3):
        ech.add(symbolic_column(conn, "prim", space0, key))
    lam_coords = space1.coords_of(lam_elem)
    assert not contains(ech, lam_coords)
    position = report.positions[1]
    assert len(position.witnesses) == 1
    ech.add(space1.coords_of(position.witnesses[0]))
    assert contains(ech, lam_coords)


def test_cone_dimensions_match_primitive():
    for phi0 in (diag(1, 0), diag(0, 0)):
        conn = generate_flat(1, 2, phi0)
        prim = cohomology_dims(conn, "prim", D=4)
        cone = cohomology_dims(conn, "cone", D=4)
        assert prim.dim_vector() == cone.dim_vector()


def test_cone_class_generator_at_grading_one():
    # the grading-1 cone class is spanned by (lambda v, -v), v in coker Phi0
    n = 2
    conn = generate_flat(n, 2, diag(1, 0))
    report = cohomology_dims(conn, "cone", D=3)
    position = report.positions[1]
    assert position.dim == 1 and len(position.witnesses) == 1
    lam = lambda_standard(n)
    generator = ConeElement(
        1,
        VectorForm([Form.zero(n, 1), lam], 1),
        VectorForm([Form.zero(n, 0), Form.const(n, -1)], 0))
    assert cone_d(conn, generator).is_zero
    base = _base(conn, "cone", 3 + 3)
    space1, space0 = _space(conn, "cone", 1, base), _space(conn, "cone", 0, base)
    ech = Echelon()
    for key in space0.basis_keys(3 + 3):
        ech.add(symbolic_column(conn, "cone", space0, key))
    gen_coords = space1.coords_of(generator)
    assert not contains(ech, gen_coords)  # the generator is not exact
    ech.add(space1.coords_of(position.witnesses[0]))
    assert contains(ech, gen_coords)  # same class as the reported witness


def test_stabilization_across_truncations():
    conn = generate_flat(1, 2, diag(1, 0))
    smaller = cohomology_dims(conn, "prim", D=3)
    larger = cohomology_dims(conn, "prim", D=4)
    assert smaller.dim_vector() == larger.dim_vector()
    assert smaller.all_stabilized and larger.all_stabilized


def test_gauge_invariance_of_dimensions():
    rng = random.Random(0)
    for n in (1, 2):
        for phi0 in (diag(1, 0), diag(1, 2)):
            base = generate_flat(n, 2, phi0)
            gauge = rand_unipotent(rng, n, 2, max_degree=1)
            gauged = generate_flat(n, 2, phi0, gauge=gauge)
            d_base = cohomology_dims(base, "prim", D=3)
            d_gauged = cohomology_dims(gauged, "prim", D=3)
            assert d_base.dim_vector() == d_gauged.dim_vector()


def test_cohomology_requires_flat_connection():
    n = 2
    bad = Connection(n, 1, MatrixForm([[Form(n, 1, {(1,): Poly.variable(n, 0)})]], 1))
    with pytest.raises(ValueError):
        cohomology_dims(bad, "prim", D=2)


@pytest.mark.parametrize("phi0", [diag(1, 0), [[0, 1], [0, 0]]])
def test_local_cohomology_proof_cases(phi0):
    # the five structural facts behind the local dimension table, as
    # kernel-membership properties at truncation D with margin 3
    n, r, D = 2, 2, 3
    conn = generate_flat(n, r, phi0)
    phi = analyze_flatness(conn).Phi
    lam = lambda_standard(n)
    base = _base(conn, "prim", D + 3)

    def image_echelon(grading):
        below = _space(conn, "prim", grading - 1, base)
        ech = Echelon()
        for key in below.basis_keys(D + 3):
            ech.add(symbolic_column(conn, "prim", below, key))
        return ech

    # case 1: closed sections are constants killed by Phi
    space0 = _space(conn, "prim", 0, base)
    for vec in _kernel_sweep(conn, "prim", space0, space0.basis_keys(D))[0]:
        beta = space0.element_from_coords(vec)
        degree = beta.payload.coefficient_degree()
        assert degree is None or degree == 0
        assert wedge(phi, beta.payload).is_zero

    # case 2: closed primitive 1-forms are exact modulo constant
    # multiples of the potential
    space1 = _space(conn, "prim", 1, base)
    ech1 = image_echelon(1)
    for u in range(r):
        lam_u = [Form.zero(n, 1)] * r
        lam_u[u] = lam
        elem = PrimElement(PLUS, 1, VectorForm(lam_u, 1))
        ech1.add(space1.coords_of(elem))
    for vec in _kernel_sweep(conn, "prim", space1, space1.basis_keys(D))[0]:
        assert contains(ech1, vec)

    # cases 3, 4, 5: closed elements above are exact outright
    for grading in list(range(2, n + 1)) + list(range(n + 1, 2 * n + 2)):
        space = _space(conn, "prim", grading, base)
        ech = image_echelon(grading)
        for vec in _kernel_sweep(conn, "prim", space, space.basis_keys(D))[0]:
            assert contains(ech, vec), (grading,)


def test_exactness_witness_for_phi_times_closed():
    conn = generate_flat(2, 2, diag(1, 0))
    phi = analyze_flatness(conn).Phi
    rng = random.Random(1)
    space = _space(conn, "prim", 1, _base(conn, "prim", 3))
    kernel = _kernel_sweep(conn, "prim", space, space.basis_keys(3))[0]
    found = tried = 0
    for _ in range(30):
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
        tried += 1
        from primflat.twist import del_minus_A, del_plus_A
        assert del_plus_A(conn, del_minus_A(conn, beta.payload)) == image
        witness = exactness_witness(conn, "prim", PrimElement(PLUS, 1, image))
        assert witness is not None
        found += 1
    assert tried >= 5 and found == tried


def test_exactness_witness_for_image_of_phi_constants():
    # lambda v with v in the image of Phi0 is exact with a constant witness
    conn = generate_flat(2, 2, diag(1, 0))
    lam = lambda_standard(2)
    element = PrimElement(PLUS, 1, VectorForm([lam, Form.zero(2, 1)], 1))
    witness = exactness_witness(conn, "prim", element)
    assert witness is not None
    image = twisted_m1(conn, witness, verify=True)
    assert image.payload == element.payload


@pytest.mark.parametrize("kind", ["prim", "cone"])
def test_exactness_witness_undoes_the_column_scale(kind):
    # the gauge's fractional coefficients give the columns below grading 1 a
    # scale > 1, so an answer solved in their echelon must be multiplied by it
    n = 1
    gauge = MatrixForm([[Form.const(n, 1), parse_form("1/3*x1 - 1/2*y1", n)],
                        [Form.zero(n, 0), Form.const(n, 1)]], 0)
    conn = generate_flat(n, 2, diag(1, 0), gauge=gauge)
    base = _base(conn, kind, 1)
    assert cohomology._differential_columns(conn, kind, 0, base)[1] > 1
    below, target = _space(conn, kind, 0, base), _space(conn, kind, 1, base)
    keys = below.basis_keys(1)
    source = below.element_from_coords({key: Fraction(i + 1, 2) for i, key in enumerate(keys)})

    def differential(x):
        return twisted_m1(conn, x, verify=False) if kind == "prim" else cone_d(conn, x)

    element = differential(source)
    witness = exactness_witness(conn, kind, element)
    assert witness is not None
    assert target.coords_of(differential(witness)) == target.coords_of(element)


def test_no_witness_for_cokernel_classes():
    conn = generate_flat(2, 2, diag(1, 0))
    lam = lambda_standard(2)
    element = PrimElement(PLUS, 1, VectorForm([Form.zero(2, 1), lam], 1))
    assert exactness_witness(conn, "prim", element, D_search=6) is None


def test_zero_is_exact():
    # twisted_m1 sends the unit e_2 at P0+ to ZERO; that image, a zero element
    # at grading 0 and one higher up all get the zero witness, with no column built
    conn = generate_flat(1, 2, [[1, 0], [0, 0]])
    image = twisted_m1(conn, PrimElement(PLUS, 0, VectorForm.unit(1, 2, 1)))
    assert image is ZERO
    zeros = {"prim": [PrimElement(PLUS, 0, VectorForm.zero(1, 0, 2)),
                      PrimElement(PLUS, 1, VectorForm.zero(1, 1, 2))],
             "cone": [ConeElement.zero(1, 2, 0), ConeElement.zero(1, 2, 2)]}
    for kind, elements in zeros.items():
        for element in [image, *elements]:
            assert exactness_witness(conn, kind, element) is ZERO
    # a zero element is still checked against the complex before it is answered
    with pytest.raises(ValueError, match="^element has vector rank 3, the complex rank 2$"):
        exactness_witness(conn, "prim", PrimElement(PLUS, 0, VectorForm.zero(1, 0, 3)))
    with pytest.raises(ValueError, match="^a ConeElement is not an element of the prim complex$"):
        exactness_witness(conn, "prim", ConeElement.zero(1, 2, 0))
    with pytest.raises(ValueError, match="complex kind must be 'prim' or 'cone', got"):
        exactness_witness(conn, "Prim", ZERO)


def test_truncated_space_checks_its_kind():
    with pytest.raises(ValueError, match="^complex kind must be 'prim' or 'cone', got 'prism'$"):
        TruncatedSpace("prism", 1, 1, 1, 10)


def test_closed_identities_count_their_trials():
    # trials=0 draws no sample; a negative trials or truncation is refused
    conn = generate_flat(1, 2, diag(1, 0))
    reports = closedlem_check(conn, trials=0, seed=0, D=2)
    assert reports and all(rep.trials == 0 for rep in reports)
    for kwargs, message in (({"trials": -5}, "trials must be >= 0, got -5"),
                            ({"D": -1}, "truncation must be >= 0, got -1")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            closedlem_check(conn, **kwargs)


@pytest.mark.parametrize("n", [1, 2])
def test_closed_identities_on_kernel_samples(n):
    conn = generate_flat(n, 2, diag(1, 0))
    reports = closedlem_check(conn, trials=60, seed=3, D=3)
    assert sum(r.trials for r in reports) >= 30
    for rep in reports:
        assert rep.failures == 0, rep.name


def test_closed_identities_untwisted_reduction():
    conn = generate_flat(2, 1, [[0]])
    reports = closedlem_check(conn, trials=30, seed=4, D=3)
    assert all(rep.failures == 0 for rep in reports)


def test_closed_identities_need_constant_frame():
    rng = random.Random(5)
    gauged = generate_flat(2, 2, diag(1, 0), gauge=rand_unipotent(rng, 2, 2))
    with pytest.raises(ValueError):
        closedlem_check(gauged, trials=2, seed=0)


SWEEP_CASES = [
    # (label, connection factory, kind, D, margins)
    ("frame-prim", lambda: generate_flat(2, 2, diag(1, 0)), "prim", 1, (1, 2)),
    ("frame-cone-symmetric",
     lambda: generate_flat(1, 2, diag(1, 0), lambda_choice="symmetric"), "cone", 2, (2, 3)),
    ("gauged-prim-symmetric",
     lambda: generate_flat(1, 2, diag(1, 0), gauge=rand_unipotent(random.Random(7), 1, 2),
                           lambda_choice="symmetric"), "prim", 2, (1, 2, 3)),
    ("gauged-cone", lambda: generate_flat(1, 2, [[0, 1], [0, 0]],
                                          gauge=rand_unipotent(random.Random(8), 1, 2)),
     "cone", 2, (1, 2)),
    # here the per-margin dimensions at P0- differ
    ("dense-gauge-prim", dense_gauge_rank4, "prim", 0, (1, 2, 3)),
    # margin 0 probes the degree <= D image before any margin column
    ("gauged-cone-margin0",
     lambda: generate_flat(1, 2, diag(1, 0), gauge=rand_unipotent(random.Random(9), 1, 2)),
     "cone", 1, (0, 2)),
    ("n3-frame-prim", lambda: generate_flat(3, 1, [[1]]), "prim", 1, (0, 1)),
    # every entry of the gauge above the diagonal is nonzero
    ("dense-gauge-rank3-prim",
     lambda: generate_flat(1, 3, diag(1, 0, 2), gauge=rand_unipotent(random.Random(11), 1, 3)),
     "prim", 1, (0, 1, 2, 3)),
    # every kernel dies in the degree <= D image, before the first margin column
    ("frame-cone-dies-at-D", lambda: generate_flat(1, 2, diag(1, 2)), "cone", 1, (2, 3)),
]


@pytest.mark.parametrize("label,make,kind,D,margins", SWEEP_CASES,
                         ids=[case[0] for case in SWEEP_CASES])
def test_sweep_matches_from_scratch_oracle(label, make, kind, D, margins):
    # every kernel_dim, dims_by_margin and witness equals a computation that
    # builds each position's kernel and each margin's image in fresh echelons
    # and probes the whole kernel at every margin
    conn = make()
    report = cohomology_dims(conn, kind, D=D, stab_margins=margins)
    base = _base(conn, kind, D + margins[-1])
    differing = False
    for position in report.positions:
        space = _space(conn, kind, position.grading, base)
        keys = space.basis_keys(D)
        top = position.grading == 2 * conn.n + 1
        tracked = Echelon(track=True)
        kernel = [relation for key in keys
                  if (relation := tracked.add(
                      {} if top else symbolic_column(conn, kind, space, key), key))
                  is not None]
        assert position.kernel_dim == len(kernel)
        survivors = survivors_by_margin(conn, kind, space, D, margins, kernel)
        for s in margins:
            assert position.dims_by_margin[s] == len(survivors[s]), (position.label, s)
        assert [space.coords_of(w) for w in position.witnesses] == survivors[margins[-1]]
        differing |= len(set(position.dims_by_margin.values())) > 1
    if label == "dense-gauge-prim":
        assert differing


def test_a_kernel_dead_in_the_degree_D_image_builds_no_margin_column(monkeypatch):
    # the sweeps build each column of degree <= D once, and nothing else is built
    _, make, kind, D, margins = SWEEP_CASES[-1]
    conn = make()
    built = {}
    differential_columns = cohomology._differential_columns

    def spy(conn, kind, grading, base):
        column, scale = differential_columns(conn, kind, grading, base)
        return (lambda code: built.setdefault(grading, []).append(code) or column(code)), scale

    monkeypatch.setattr(cohomology, "_differential_columns", spy)
    report = cohomology_dims(conn, kind, D=D, stab_margins=margins)
    assert [p.kernel_dim for p in report.positions] == [0, 2, 8, 6]
    assert all(p.dims_by_margin == {2: 0, 3: 0} for p in report.positions)
    base = _base(conn, kind, D + margins[-1])
    assert built == {g: _space(conn, kind, g, base).basis_keys(D) for g in range(4)}


@pytest.mark.parametrize("kind", ["prim", "cone"])
def test_margin_zero_probes_the_degree_D_image(kind):
    # margin 0 is the image of degree <= D alone, below every kernel_dim
    report = cohomology_dims(generate_flat(1, 1, [[0]]), kind, D=2, stab_margins=(0, 1))
    assert [p.dims_by_margin for p in report.positions[1:]] == [
        {0: 5, 1: 1}, {0: 7, 1: 4}, {0: 3, 1: 0}]
    assert [p.kernel_dim for p in report.positions[1:]] == (
        [10, 9, 6] if kind == "prim" else [10, 15, 6])
    assert len(report.positions[2].witnesses) == 4


def test_gauged_n3_table():
    # Phi0 = diag(1, 0) conjugated by g = 1 + N, N linear in x1 and y2: the
    # bottom is dim ker Phi0, the next dim coker Phi0, the rest vanishes
    n = 3
    gauge = MatrixForm([[Form.const(n, 1), parse_form("2*x1 - 1/3*y2", n)],
                        [Form.zero(n, 0), Form.const(n, 1)]], 0)
    conn = generate_flat(n, 2, diag(1, 0), gauge=gauge)
    assert conn.A.coefficient_degree() == 2
    for kind, D in (("prim", 1), ("prim", 2), ("cone", 1)):
        report = cohomology_dims(conn, kind, D=D, stab_margins=(2, 3))
        assert report.all_stabilized, (kind, D)
        assert report.dim_vector() == [1, 1, 0, 0, 0, 0, 0, 0], (kind, D)


N3_TABLE = [
    # (phi0, dim ker, dim coker)
    ([[0]], 1, 1),
    ([[1]], 0, 0),
    (diag(1, 0), 1, 1),
    ([[0, 1], [0, 0]], 1, 1),  # nilpotent
    ([[2, 1], [0, -3]], 0, 0),  # invertible
]


@pytest.mark.parametrize("gauged,D", [(False, 1), (True, 1), (False, 2), (True, 2)],
                         ids=["frame", "gauged", "frame-D2", "gauged-D2"])
@pytest.mark.parametrize("phi0,dim_ker,dim_coker", N3_TABLE)
def test_n3_dimension_table(phi0, dim_ker, dim_coker, gauged, D):
    # at n = 3: dim ker Phi0 at the bottom, dim coker Phi0 next, 0 above,
    # for both complexes, in the constant frame and in one gauge (a
    # unipotent gauge is the identity at rank 1), the same at D and D + 1
    rank = len(phi0)
    gauge = rand_unipotent(random.Random(31), 3, rank) if gauged else None
    conn = generate_flat(3, rank, phi0, gauge=gauge)
    for kind in ("prim", "cone"):
        report = cohomology_dims(conn, kind, D=D, stab_margins=(2, 3))
        assert report.all_stabilized, kind
        assert report.dim_vector() == [dim_ker, dim_coker] + [0] * 6, kind


@pytest.mark.parametrize("phi0,D,expected", [
    ([[0]], 1, [1, 1] + [0] * 8),
    ([[0]], 2, [1, 1] + [0] * 8),
    ([[1]], 1, [0] * 10),
])
def test_n4_constant_frame_table(phi0, D, expected):
    # rank 1 at n = 4: dim ker Phi0 at the bottom, dim coker Phi0 next, 0 above
    report = cohomology_dims(generate_flat(4, 1, phi0), "prim", D=D, stab_margins=(2, 3))
    assert report.all_stabilized
    assert report.dim_vector() == expected


def test_small_margins_leave_dense_gauge_unstabilized():
    # the growth [4, 8, 4, 4] exceeds the default margins: with 2,3 the
    # bottom of the minus side has not settled, with 4,5 every position
    # settles on the cone's answer
    conn = dense_gauge_rank4()
    small = cohomology_dims(conn, "prim", D=2, stab_margins=(2, 3))
    assert small.positions[-1].label == "P0-"
    assert small.positions[-1].dims_by_margin == {2: 1, 3: 0}
    assert not small.positions[-1].stabilized
    assert all(p.stabilized for p in small.positions[:-1])
    large = cohomology_dims(conn, "prim", D=2, stab_margins=(4, 5))
    assert large.all_stabilized
    assert large.dim_vector() == [2, 2, 0, 0]
    assert cohomology_dims(conn, "cone", D=2).dim_vector() == [2, 2, 0, 0]


def test_negative_margins_are_rejected():
    conn = generate_flat(1, 1, [[1]])
    with pytest.raises(ValueError):
        cohomology_dims(conn, "prim", D=1, stab_margins=(-1, 0))


@pytest.mark.parametrize("margins", [(), (2,), (3, 3)])
def test_fewer_than_two_distinct_margins_are_rejected(margins):
    # stabilization compares the two largest margins
    conn = generate_flat(1, 1, [[1]])
    with pytest.raises(ValueError, match="need at least two distinct stabilization margins"):
        cohomology_dims(conn, "prim", D=1, stab_margins=margins)


def test_negative_truncations_are_rejected():
    conn = generate_flat(2, 2, diag(1, 0))
    with pytest.raises(ValueError):
        cohomology_dims(conn, "prim", D=-1)
    with pytest.raises(ValueError):
        assemble_operator(conn, "prim", (PLUS, 0), D_source=-1)
    element = PrimElement(PLUS, 1, VectorForm([lambda_standard(2), Form.zero(2, 1)], 1))
    with pytest.raises(ValueError):
        exactness_witness(conn, "prim", element, D_search=-1)


@pytest.mark.parametrize("call,message", [
    (lambda conn, _: cohomology_dims(conn, stab_margins=(2.5, 3)),
     "each of stab_margins must be an int, got 2.5"),
    (lambda conn, _: cohomology_dims(conn, stab_margins=(True, 3)),
     "each of stab_margins must be an int, got True"),
    (lambda conn, _: cohomology_dims(conn, D=1.5), "D must be an int, got 1.5"),
    (lambda conn, _: cohomology_dims(conn, D=True), "D must be an int, got True"),
    (lambda conn, _: closedlem_check(conn, D=2.0), "D must be an int, got 2.0"),
    (lambda conn, _: closedlem_check(conn, trials=2.0), "trials must be an int, got 2.0"),
    (lambda conn, element: exactness_witness(conn, "prim", element, D_search=2.0),
     "D_search must be an int, got 2.0"),
], ids=["float-margin", "bool-margin", "float-D", "bool-D", "closedlem-D", "closedlem-trials",
        "witness-D"])
def test_non_int_truncations_and_margins_are_rejected_by_name(call, message):
    # a float margin was truncated, a float truncation failed deep inside,
    # and True was read as 1
    conn = generate_flat(2, 2, diag(1, 0))
    element = PrimElement(PLUS, 1, VectorForm([lambda_standard(2), Form.zero(2, 1)], 1))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(conn, element)


def test_oversized_truncations_are_refused_before_assembly(monkeypatch):
    # n = 4, D = 6 with margins 2,3 would eliminate over a million keys at P3+
    def no_columns(*args):
        raise AssertionError("columns built for an oversized truncation")

    conn = generate_flat(4, 1, [[0]])
    base = _base(conn, "prim", 9)
    size = max(_space(conn, "prim", grading, base).dimension(9) for grading in range(10))
    assert size == _space(conn, "prim", 3, base).dimension(9) == 1_166_880 > cohomology.MAX_BASIS
    monkeypatch.setattr(cohomology, "_differential_columns", no_columns)
    with pytest.raises(ValueError, match=f"^truncation 6 with margin 3 needs {size} basis keys "
                                         f"at one position, more than MAX_BASIS = {cohomology.MAX_BASIS}$"):
        cohomology_dims(conn, "prim", D=6)


def test_witness_search_and_closedness_samples_keep_the_size_budget(monkeypatch):
    # both build columns too, so both refuse n = 4, D = 9 before any is built
    def no_columns(*args):
        raise AssertionError("columns built for an oversized truncation")

    conn = generate_flat(4, 1, [[0]])
    base = _base(conn, "prim", 9)
    space = _space(conn, "prim", 4, base)
    element = space.element_from_key(space.basis_keys(0)[0])
    size = _space(conn, "prim", 3, base).dimension(9)
    monkeypatch.setattr(cohomology, "_differential_columns", no_columns)
    tail = (f" needs {size} basis keys at one position, "
            f"more than MAX_BASIS = {cohomology.MAX_BASIS}$")
    with pytest.raises(ValueError, match="^search truncation 9" + tail):
        exactness_witness(conn, "prim", element, D_search=9)
    with pytest.raises(ValueError, match="^truncation 9" + tail):
        closedlem_check(conn, trials=1, D=9)


CODEC_SPACES = [(kind, n, rank) for kind in ("prim", "cone") for n in (1, 2, 3) for rank in (1, 2)]


def feed_order(space, D):
    """The ``(slot, mono, f, u)`` digit tuple of each basis key of degree <= D,
    in the order the report feeds them: by monomial (by degree, then
    lexicographic), fiber form, unit at a prim position; by slot, form
    index, monomial, unit at a cone one.  Slot 0 at a prim position."""
    n, units, monos = space.n, range(space.rank), monomials_up_to(space.n, D)
    if space.kind == "prim":
        fibers = range(space.fiber_dimension())
        return [(0, mono, f, u) for mono in monos for f in fibers for u in units]
    return [(slot, mono, f, u) for slot in (0, 1)
            for f in range(len(all_indices(n, space.grading - slot)))
            for mono in monos for u in units]


def basis_element(space, slot, mono, f, u):
    """mono (x) (fiber form f) (x) e_u at a position, built from forms."""
    n, poly = space.n, Poly(space.n, {mono: 1})
    if space.kind == "prim":
        side, s = grading_position(n, space.grading)
        entries = [Form.zero(n, s)] * space.rank
        entries[u] = Form(n, s, {idx: Poly(n, {mono: c}) for idx, c
                                 in lefschetz.primitive_fiber_basis(n, s)[f].items()})
        return PrimElement(side, s, VectorForm(entries, s))
    degrees = (space.grading, space.grading - 1)
    slots = [[Form.zero(n, degree)] * space.rank for degree in degrees]
    slots[slot][u] = Form(n, degrees[slot], {all_indices(n, degrees[slot])[f]: poly})
    return ConeElement(space.grading, *map(VectorForm, slots, degrees))


def exponents(space, code):
    """The exponents of a code's monomial, read from its base digits."""
    m = space.split(code)[1]
    return [m // w % space.base for w in space.weights]


@pytest.mark.parametrize("kind,n,rank", CODEC_SPACES)
def test_key_codes_round_trip_sort_as_keys_and_add_monomials(kind, n, rank):
    # every grading, every key of degree <= D, and every shift of its
    # monomial by one of degree <= D, at a base with room for the sum
    D = 4 if n == 1 else 2
    base = 2 * D + 1
    monos = monomials_up_to(n, D)
    for grading in range(2 * n + 2):
        space = TruncatedSpace(kind, n, rank, grading, base)
        keys = feed_order(space, 2 * D)
        code_of = dict(zip(keys, space.basis_keys(2 * D), strict=True))
        # the feed order is pinned: kernels and witnesses depend on it
        small = [key for key in keys if sum(key[1]) <= D]
        assert space.basis_keys(D) == [code_of[key] for key in small]
        assert sorted(code_of.values()) == [code_of[key] for key in sorted(keys)]
        for key in small:
            code = code_of[key]
            assert space.coords_of(basis_element(space, *key)) == {code: 1}
            assert space.coords_of(space.element_from_key(code)) == {code: 1}
            for amono in monos:
                shifted = (key[0], tuple(map(add, key[1], amono)), *key[2:])
                assert code_of[shifted] == code + space.stride * space.mono(amono)
        for c in range(2 * n):
            # an exponent at the base would carry into the next digit
            mono = tuple(base if i == c else 0 for i in range(2 * n))
            with pytest.raises(InternalInvariantError, match=f"^exponent {base} of "):
                space.coords_of(basis_element(space, keys[0][0], mono, *keys[0][2:]))


@pytest.mark.parametrize("kind", ["prim", "cone"])
def test_columns_at_the_code_bound_match_symbolic_oracle(kind):
    # growth 8 (prim) with margins 4,5 at D = 2: every key of the top source
    # degree 7, whose images come nearest the base, where a carry would show
    conn = dense_gauge_rank4()
    base = _base(conn, kind, 2 + 5)
    assert base == {"prim": 16, "cone": 12}[kind]
    top = 0
    for grading in range(2 * conn.n + 2):
        space, target = _space(conn, kind, grading, base), _space(conn, kind, grading + 1, base)
        column, scale = cohomology._differential_columns(conn, kind, grading, base)
        for key in space.basis_keys(7, above=6):
            table = column(key)
            expected = {k: scale * v for k, v in symbolic_column(conn, kind, space, key).items()}
            assert table == expected, (grading, key)
            top = max([top] + [max(exponents(target, code)) for code in expected])
    # the cone's images reach the last digit below its base
    assert top == {"prim": 12, "cone": base - 1}[kind]


@pytest.mark.parametrize("kind", ["prim", "cone"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_dimension_counts_the_basis_keys(kind, n):
    # the size bound counts keys without listing them
    for grading in range(2 * n + 2):
        space = TruncatedSpace(kind, n, 2, grading, 3)
        for D in range(3):
            assert space.dimension(D) == len(space.basis_keys(D))


MISMATCHES = [
    # (complex of the element, its n, its rank, complex asked for, message)
    ("prim", 1, 3, "prim", "element has vector rank 3, the complex rank 2"),
    ("cone", 1, 3, "cone", "element has vector rank 3, the complex rank 2"),
    ("prim", 2, 2, "prim", "element has n = 2, the complex n = 1"),
    ("cone", 2, 2, "cone", "element has n = 2, the complex n = 1"),
    ("prim", 1, 2, "cone", "a PrimElement is not an element of the cone complex"),
    ("cone", 1, 2, "prim", "a ConeElement is not an element of the prim complex"),
]


@pytest.mark.parametrize("grading", [0, 1])
@pytest.mark.parametrize("own,n,rank,kind,message", MISMATCHES)
def test_mismatched_elements_are_refused(own, n, rank, kind, message, grading):
    # a rank-3 element read as "not exact", an n = 2 one failed an index
    # lookup, the other complex's element had no such attribute; at grading
    # 0 they are refused before the early return
    conn = generate_flat(1, 2, diag(1, 0))
    space = TruncatedSpace(own, n, rank, grading, 2)
    element = space.element_from_key(space.basis_keys(0)[-1])
    with pytest.raises(ValueError, match=f"^{message}$"):
        exactness_witness(conn, kind, element)


@pytest.mark.parametrize("kind", ["Prim", ""])
def test_unknown_complex_kinds_are_rejected(kind):
    # labels read every kind but "cone" as prim, columns every kind but "prim"
    # as cone; a grading-0 element is refused before it meets the early return
    conn = generate_flat(1, 1, [[0]])
    with pytest.raises(ValueError, match="complex kind must be 'prim' or 'cone', got"):
        cohomology_dims(conn, kind, D=1)
    for space in (_space(conn, "prim", 0, 2), _space(conn, "cone", 0, 2)):
        grading_0 = space.element_from_key(space.basis_keys(0)[0])
        with pytest.raises(ValueError, match="complex kind must be 'prim' or 'cone', got"):
            exactness_witness(conn, kind, grading_0)


ORACLE_CASES = [
    # (label, connection factory, D for every key, D for the sampled keys)
    ("n1-frame-standard", lambda: generate_flat(1, 2, diag(1, 0)), 2, 5),
    ("n1-gauged-symmetric-nilpotent",
     lambda: generate_flat(1, 2, [[0, 1], [0, 0]], lambda_choice="symmetric",
                           gauge=rand_unipotent(random.Random(11), 1, 2, max_degree=1)), 2, 5),
    ("n2-frame-symmetric-nilpotent",
     lambda: generate_flat(2, 2, [[0, 1], [0, 0]], lambda_choice="symmetric"), 1, 4),
    ("n2-gauged-standard",
     lambda: generate_flat(2, 2, diag(1, 2),
                           gauge=rand_unipotent(random.Random(12), 2, 2, max_degree=1)), 1, 4),
    ("n3-frame-standard", lambda: generate_flat(3, 2, diag(1, 0)), 0, 2),
    ("n3-gauged-symmetric",
     lambda: generate_flat(3, 2, diag(1, 2), lambda_choice="symmetric",
                           gauge=rand_unipotent(random.Random(13), 3, 2, max_degree=1)), 0, 2),
    ("n1-dense-gauge", dense_gauge_rank4, 1, 3),
]


@pytest.mark.parametrize("kind", ["prim", "cone"])
@pytest.mark.parametrize("label,make,D_all,D_sample", ORACLE_CASES,
                         ids=[case[0] for case in ORACLE_CASES])
def test_table_columns_match_symbolic_oracle(label, make, D_all, D_sample, kind):
    # every key at D_all, a seeded sample of the keys of degree in (D_all, D_sample];
    # each table column is an int dict, its position's scale times the true one
    conn = make()
    rng = random.Random(label)
    base = _base(conn, kind, D_sample)
    for grading in range(2 * conn.n + 2):
        space = _space(conn, kind, grading, base)
        column, scale = cohomology._differential_columns(conn, kind, grading, base)
        assert type(scale) is int and scale > 0
        later = space.basis_keys(D_sample, above=D_all)
        for key in space.basis_keys(D_all) + rng.sample(later, min(12, len(later))):
            table = column(key)
            assert all(type(value) is int for value in table.values()), (grading, key)
            expected = {k: scale * v for k, v in symbolic_column(conn, kind, space, key).items()}
            assert table == expected, (grading, key)


@pytest.mark.parametrize("label,make,kind,D,margins", SWEEP_CASES,
                         ids=[case[0] for case in SWEEP_CASES])
def test_reports_match_symbolic_assembly(monkeypatch, label, make, kind, D, margins):
    # the same report, witnesses included, when every column is built symbolically
    conn = make()
    base = _base(conn, kind, D + margins[-1])

    def summary(report):
        return [(p.kernel_dim, p.dims_by_margin,
                 [_space(conn, kind, p.grading, base).coords_of(w) for w in p.witnesses])
                for p in report.positions]

    tables = summary(cohomology_dims(conn, kind, D=D, stab_margins=margins))
    monkeypatch.setattr(cohomology, "_differential_columns", symbolic_columns)
    assert tables == summary(cohomology_dims(conn, kind, D=D, stab_margins=margins))


@pytest.mark.parametrize("label,make,kind,D,margins", SWEEP_CASES,
                         ids=[case[0] for case in SWEEP_CASES])
def test_reports_match_fraction_elimination(monkeypatch, label, make, kind, D, margins):
    # the same report, witnesses included, when every sweep eliminates over Fraction
    conn = make()
    base = _base(conn, kind, D + margins[-1])

    def summary(report):
        return [(p.kernel_dim, p.dims_by_margin,
                 [_space(conn, kind, p.grading, base).coords_of(w) for w in p.witnesses])
                for p in report.positions]

    tables = summary(cohomology_dims(conn, kind, D=D, stab_margins=margins))
    monkeypatch.setattr(linalg, "Echelon", FractionEchelon)
    assert isinstance(linalg.kernel_basis([])[1], FractionEchelon)
    assert tables == summary(cohomology_dims(conn, kind, D=D, stab_margins=margins))


def test_escaped_image_names_position_and_keys(monkeypatch):
    # with the growth bound forced to 0, a gauged image leaves the target
    conn = generate_flat(1, 2, diag(1, 0), gauge=rand_unipotent(random.Random(5), 1, 2))
    monkeypatch.setattr(cohomology, "connection_growth", lambda *args: 0)
    with pytest.raises(InternalInvariantError) as info:
        assemble_operator(conn, "prim", (PLUS, 0), D_source=1)
    # keys read as their (slot, m, f, u) digits, m the monomial's code
    digits = r"\(0, (\d+), (\d+), (\d+)\)"
    assert re.fullmatch(f"P0\\+: image of source key {digits} escaped the declared "
                        f"target truncation 1 at target key {digits}", str(info.value))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cone_sign_tables_match_index_merges(n):
    # dx_c /\ . and omega /\ . on basis indices, built once per (n, degree)
    for degree in range(-1, 2 * n + 1):
        d_table, omega_table = cohomology._sign_tables(n, degree)
        assert cohomology._sign_tables(n, degree)[0] is d_table
        # the tables hold ranks in all_indices order
        rank = {idx: i for shift in (1, 2) for i, idx in enumerate(all_indices(n, degree + shift))}
        for i, idx in enumerate(all_indices(n, degree)):
            for c in range(2 * n):
                merged = merge_indices((c,), idx)
                assert d_table[c][i] == (() if merged is None else ((rank[merged[1]], merged[0]),))
            merges = (merge_indices((k, n + k), idx) for k in range(n))
            assert dict(omega_table[i]) == {rank[j]: sign for sign, j in filter(None, merges)}


def test_fiber_table_check_names_position_and_component(monkeypatch):
    # a decomposition with an omega^2 part in dx_c /\ b breaks the L^-1 table
    real = lefschetz._decomp_table

    def with_extra_component(n, degree):
        return {idx: {**coords, (2, 0): Fraction(1)}
                for idx, coords in real(n, degree).items()}

    def clear_tables():
        # tables built from the broken decomposition must not outlive the test
        lefschetz.fiber_d_table.cache_clear()
        lefschetz._omega_map.cache_clear()

    conn = generate_flat(2, 1, [[1]])
    analyze_flatness(conn)  # cached before the decomposition is broken
    clear_tables()
    monkeypatch.setattr(lefschetz, "_decomp_table", with_extra_component)
    try:
        with pytest.raises(InternalInvariantError,
                           match=r"^P1-: L\^-1\(dx0 \^ b1\) on primitive 1-forms \(n=2\) "
                                 r"has a component omega\^2 along basis form b0$"):
            cohomology._differential_columns(conn, "prim", 4, cohomology._base(conn, "prim", 1))
    finally:
        clear_tables()
