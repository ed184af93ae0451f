"""Truncated-space cohomology: operators, dimensions, witnesses."""

import random
from fractions import Fraction

import pytest

from primflat.cohomology import (TruncatedSpace, assemble_operator,
                                 closedlem_check, cohomology_dims,
                                 cone_cohomology_dims, exactness_witness,
                                 _image_coords, _kernel_sweep, _space)
from primflat.connection import Connection, analyze_flatness, generate_flat
from primflat.dsl import parse_form
from primflat.forms import Form, MatrixForm, VectorForm, lambda_standard, wedge
from primflat.linalg import Echelon, kernel_basis
from primflat.sampling import rand_unipotent
from primflat.scalars import Poly
from primflat.ainfinity import PLUS, PrimElement
from primflat.twist import twisted_m1


def diag(*values):
    r = len(values)
    return [[values[i] if i == j else 0 for j in range(r)] for i in range(r)]


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
    space = _space(conn, "prim", 0)
    element = space.element_from_coords(kernel[0])
    # the kernel vector is a constant section spanning ker Phi0 = e2
    assert element.payload.entries[0].is_zero
    assert element.payload.entries[1].coefficient_degree() == 0


def test_assemble_matrix_shape():
    conn = generate_flat(2, 2, diag(1, 0))
    matrix = assemble_operator(conn, "prim", (PLUS, 1), D_source=2)
    space = TruncatedSpace("prim", 2, 2, 1)
    target = TruncatedSpace("prim", 2, 2, 2)
    assert matrix.num_cols == space.dimension(2) == len(matrix.source_keys)
    assert matrix.num_rows == target.dimension(matrix.D_target)
    assert matrix.D_target == 2 + 1  # coefficient degree of lambda is 1


def test_assemble_rejects_insufficient_target():
    conn = generate_flat(2, 2, diag(1, 0))
    with pytest.raises(ValueError):
        assemble_operator(conn, "prim", (PLUS, 1), D_source=2, D_target=2)


def test_space_coords_round_trip():
    conn = generate_flat(2, 2, diag(1, 3))
    for grading in range(0, 6):
        space = _space(conn, "prim", grading)
        rng = random.Random(grading)
        keys = space.basis_keys(2)
        coords = {}
        for key in rng.sample(keys, min(4, len(keys))):
            coords[key] = Fraction(rng.randint(-3, 3)) or Fraction(1)
        element = space.element_from_coords(coords)
        assert space.coords_of(element) == coords
    for grading in range(0, 6):
        space = _space(conn, "cone", grading)
        rng = random.Random(10 + grading)
        keys = space.basis_keys(2)
        coords = {}
        for key in rng.sample(keys, min(4, len(keys))):
            coords[key] = Fraction(rng.randint(-3, 3)) or Fraction(1)
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
            cone = cone_cohomology_dims(conn, D=3)
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
    report = cohomology_dims(conn, "prim", D=4, stab_margins=(2, 3),
                             with_witnesses=True)
    dims = report.dims()
    assert dims["P0+"] == 1 and dims["P1+"] == 1
    assert all(v == 0 for label, v in dims.items() if label not in ("P0+", "P1+"))
    # the P1+ witness generates the same class as lambda itself
    lam_elem = PrimElement(PLUS, 1, VectorForm([lambda_standard(n)], 1))
    assert twisted_m1(conn, lam_elem).is_zero
    space1 = _space(conn, "prim", 1)
    space0 = _space(conn, "prim", 0)
    ech = Echelon()
    for key in space0.basis_keys(4 + 3):
        ech.add(_image_coords(conn, "prim", space0, key))
    lam_coords = space1.coords_of(lam_elem)
    assert not ech.contains(lam_coords)
    position = report.positions[1]
    assert len(position.witnesses) == 1
    ech.add(space1.coords_of(position.witnesses[0]))
    assert ech.contains(lam_coords)


def test_cone_dimensions_match_primitive():
    for phi0 in (diag(1, 0), diag(0, 0)):
        conn = generate_flat(1, 2, phi0)
        prim = cohomology_dims(conn, "prim", D=4)
        cone = cone_cohomology_dims(conn, D=4)
        assert prim.dim_vector() == cone.dim_vector()


def test_cone_class_generator_at_grading_one():
    # the grading-1 cone class is spanned by (lambda v, -v), v in coker Phi0
    n = 2
    conn = generate_flat(n, 2, diag(1, 0))
    report = cone_cohomology_dims(conn, D=3, with_witnesses=True)
    position = report.positions[1]
    assert position.dim == 1 and len(position.witnesses) == 1
    lam = lambda_standard(n)
    generator = None
    from primflat.cone import ConeElement, cone_d
    generator = ConeElement(
        1,
        VectorForm([Form.zero(n, 1), lam], 1),
        VectorForm([Form.zero(n, 0), Form.const(n, -1)], 0))
    assert cone_d(conn, generator).is_zero
    space1 = _space(conn, "cone", 1)
    space0 = _space(conn, "cone", 0)
    ech = Echelon()
    for key in space0.basis_keys(3 + 3):
        ech.add(_image_coords(conn, "cone", space0, key))
    gen_coords = space1.coords_of(generator)
    assert not ech.contains(gen_coords)  # the generator is not exact
    ech.add(space1.coords_of(position.witnesses[0]))
    assert ech.contains(gen_coords)  # same class as the reported witness


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

    def image_echelon(grading):
        below = _space(conn, "prim", grading - 1)
        ech = Echelon()
        for key in below.basis_keys(D + 3):
            ech.add(_image_coords(conn, "prim", below, key))
        return ech

    # case 1: closed sections are constants killed by Phi
    space0 = _space(conn, "prim", 0)
    for vec in _kernel_sweep(conn, "prim", space0, D)[0]:
        beta = space0.element_from_coords(vec)
        degree = beta.payload.coefficient_degree()
        assert degree is None or degree == 0
        assert wedge(phi, beta.payload).is_zero

    # case 2: closed primitive 1-forms are exact modulo constant
    # multiples of the potential
    space1 = _space(conn, "prim", 1)
    ech1 = image_echelon(1)
    for u in range(r):
        lam_u = [Form.zero(n, 1)] * r
        lam_u[u] = lam
        elem = PrimElement(PLUS, 1, VectorForm(lam_u, 1))
        ech1.add(space1.coords_of(elem))
    for vec in _kernel_sweep(conn, "prim", space1, D)[0]:
        assert ech1.contains(vec)

    # cases 3, 4, 5: closed elements above are exact outright
    for grading in list(range(2, n + 1)) + list(range(n + 1, 2 * n + 2)):
        space = _space(conn, "prim", grading)
        ech = image_echelon(grading)
        for vec in _kernel_sweep(conn, "prim", space, D)[0]:
            assert ech.contains(vec), (grading,)


def test_exactness_witness_for_phi_times_closed():
    conn = generate_flat(2, 2, diag(1, 0))
    phi = analyze_flatness(conn).Phi
    rng = random.Random(1)
    space = _space(conn, "prim", 1)
    kernel, _ = _kernel_sweep(conn, "prim", space, 3)
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


def test_no_witness_for_cokernel_classes():
    conn = generate_flat(2, 2, diag(1, 0))
    lam = lambda_standard(2)
    element = PrimElement(PLUS, 1, VectorForm([Form.zero(2, 1), lam], 1))
    assert exactness_witness(conn, "prim", element, D_search=6) is None


@pytest.mark.parametrize("n", [1, 2])
def test_closed_identities_on_kernel_samples(n):
    conn = generate_flat(n, 2, diag(1, 0))
    reports = closedlem_check(conn, trials=60, seed=3, D=3)
    assert sum(r.trials for r in reports) >= 30
    for rep in reports:
        assert rep.failures == 0, rep.label


def test_closed_identities_untwisted_reduction():
    conn = generate_flat(2, 1, [[0]])
    reports = closedlem_check(conn, trials=30, seed=4, D=3)
    assert all(rep.failures == 0 for rep in reports)


def test_closed_identities_need_constant_frame():
    rng = random.Random(5)
    gauged = generate_flat(2, 2, diag(1, 0), gauge=rand_unipotent(rng, 2, 2))
    with pytest.raises(ValueError):
        closedlem_check(gauged, trials=2, seed=0)


# A densely gauged n=1 rank-4 connection, g = 1 + N with N strictly upper
# triangular and linear; its coefficient growth is [4, 8, 4, 4].
GAUGE_N = {(0, 1): "-1/3*x1 + 1/3*y1", (0, 2): "1/2*x1 + 2*y1",
           (0, 3): "2/3*x1 + 1/2*y1", (1, 2): "3*x1 + y1",
           (1, 3): "-2/3*x1 - 3/2*y1", (2, 3): "1/3*x1 + 3/2*y1"}


def dense_gauge_rank4():
    n, r = 1, 4
    g = MatrixForm([[Form.const(n, 1) if i == j
                     else parse_form(GAUGE_N[(i, j)], n) if i < j
                     else Form.zero(n, 0) for j in range(r)] for i in range(r)], 0)
    return generate_flat(n, r, diag(1, 0, 2, 0), gauge=g)


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
]


@pytest.mark.parametrize("label,make,kind,D,margins", SWEEP_CASES,
                         ids=[case[0] for case in SWEEP_CASES])
def test_sweep_matches_from_scratch_oracle(label, make, kind, D, margins):
    # every kernel_dim and dims_by_margin equals a computation that builds
    # each position's kernel and each margin's image in fresh echelons
    conn = make()
    report = cohomology_dims(conn, kind, D=D, stab_margins=margins)
    differing = False
    for position in report.positions:
        space = _space(conn, kind, position.grading)
        keys = space.basis_keys(D)
        top = position.grading == 2 * conn.n + 1
        tracked = Echelon(track=True)
        kernel = [relation for key in keys
                  if (relation := tracked.add(
                      {} if top else _image_coords(conn, kind, space, key), key))
                  is not None]
        assert position.kernel_dim == len(kernel)
        for s in margins:
            expected = len(kernel)
            if position.grading > 0:
                below = _space(conn, kind, position.grading - 1)
                image = Echelon()
                for key in below.basis_keys(D + s):
                    image.add(_image_coords(conn, kind, below, key))
                image_rank = image.rank
                for vec in kernel:
                    image.add(vec)
                expected = image.rank - image_rank
            assert position.dims_by_margin[s] == expected, (position.label, s)
        differing |= len(set(position.dims_by_margin.values())) > 1
    if label == "dense-gauge-prim":
        assert differing


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
    assert cone_cohomology_dims(conn, D=2).dim_vector() == [2, 2, 0, 0]


def test_negative_margins_are_rejected():
    conn = generate_flat(1, 1, [[1]])
    with pytest.raises(ValueError):
        cohomology_dims(conn, "prim", D=1, stab_margins=(-1, 0))
