"""Exterior algebra: wedge, differential, contractions, commutators."""

import random
import re
from fractions import Fraction
from math import gcd

import pytest

from primflat.ainfinity import MINUS, PLUS, PrimElement
from primflat.cone import ConeElement
from primflat.connection import Connection
from primflat.forms import (Form, MatrixForm, VectorForm, _lowerings, all_indices,
                            contract_lambda, exterior_d, graded_commutator, lambda_standard,
                            lambda_symmetric, omega, omega_power, wedge)
from primflat.lefschetz import L_power, _apply_omega_map, decompose, pi_p
from primflat.sampling import rand_form, rand_terms
from primflat.scalars import Poly

from oracle import (FractionPoly, contract_lambda_by_interior, fraction_polys, labelled,
                    omega_map_by_wedge, wedge_by_sorting)


def test_wedge_antisymmetry_on_basis():
    n = 1
    dx, dy = Form.dx(n, 1), Form.dy(n, 1)
    assert wedge(dx, dy) == Form(n, 2, {(0, 1): Poly.const(n, 1)})
    assert wedge(dy, dx) == -wedge(dx, dy)


def test_wedge_repeated_index_vanishes():
    n = 2
    a = Form(n, 1, {(0,): Poly.variable(n, 0)})
    assert wedge(a, Form.dx(n, 1)).is_zero


def test_matrix_wedge_nilpotent_composition():
    n = 2
    top_right = [[Form.zero(n, 1), Form.dx(n, 1)], [Form.zero(n, 1), Form.zero(n, 1)]]
    other = [[Form.zero(n, 1), Form.dx(n, 2)], [Form.zero(n, 1), Form.zero(n, 1)]]
    assert wedge(MatrixForm(top_right, 1), MatrixForm(other, 1)).is_zero


def test_vector_wedge_has_no_composition():
    n = 1
    v = VectorForm([Form.dx(n, 1)], 1)
    with pytest.raises(TypeError):
        wedge(v, v)


def test_wedge_rank_mismatch():
    n = 1
    with pytest.raises(ValueError):
        wedge(MatrixForm.identity(n, 2), MatrixForm.identity(n, 3))


def test_exterior_d_basic():
    n = 1
    a = Form(n, 1, {(1,): Poly.variable(n, 0)})  # x1 dy1
    assert exterior_d(a) == wedge(Form.dx(n, 1), Form.dy(n, 1))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_d_squared_zero_on_functions(n):
    rng = random.Random(n)
    for _ in range(25):
        f = Form(n, 0, {(): Poly(n, rand_terms(rng, n, 4, max_terms=3))})
        assert exterior_d(exterior_d(f)).is_zero


@pytest.mark.parametrize("n", [1, 2, 3])
def test_d_of_standard_potential_is_omega(n):
    # termwise: d(x_i dy_i) = dx_i /\ dy_i, summed over i
    expected = None
    for i in range(1, n + 1):
        piece = wedge(Form.dx(n, i), Form.dy(n, i))
        expected = piece if expected is None else expected + piece
    assert exterior_d(lambda_standard(n)) == expected == omega(n)
    assert exterior_d(lambda_symmetric(n)) == omega(n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_contract_lambda_of_omega(n):
    assert contract_lambda(omega(n)) == Form.const(n, n)


def test_contract_lambda_primitive_two_form():
    n = 2
    f = wedge(Form.dx(n, 1), Form.dy(n, 1)) - wedge(Form.dx(n, 2), Form.dy(n, 2))
    assert contract_lambda(f).is_zero


def test_contract_lambda_unpaired_indices():
    n = 2
    assert contract_lambda(wedge(Form.dx(n, 1), Form.dx(n, 2))).is_zero


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_contract_lambda_matches_interior_oracle(n):
    rng = random.Random(800 + n)
    for k in range(0, 2 * n + 1):
        for _ in range(3):
            a = rand_form(rng, n, k) + rand_form(rng, n, k)
            vec = VectorForm([rand_form(rng, n, k), a], k)
            mat = MatrixForm([[rand_form(rng, n, k) for _ in range(2)] for _ in range(2)], k)
            # a primitive projection lowers to zero through cancelling sums
            for entry in [a, pi_p(0, a), *vec.flat, *mat.flat]:
                got = contract_lambda(entry)
                assert got.degree == k - 2
                assert as_oracle(got) == contract_lambda_by_interior(n, as_oracle(entry)), entry
        for idx in all_indices(n, k):
            assert dict(_lowerings(n, idx)) == contract_lambda_by_interior(n, {idx: 1})


def stores_no_zero(x):
    entries = [x] if isinstance(x, Form) else x.flat
    return all(not poly.is_zero for e in entries for poly in e.terms.values())


@pytest.mark.parametrize("n", [1, 2, 3])
def test_internal_producers_store_no_zero_coefficient(n):
    assert Poly.zero(n).is_zero and not Poly.const(n, 1).is_zero
    rng = random.Random(900 + n)
    one_forms = [rand_form(rng, n, 1) + rand_form(rng, n, 1) for _ in range(3)]
    outputs = [omega_power(n, n + 1)]
    outputs += [wedge(u, u) for u in one_forms]  # zero: odd degree
    for k in range(0, 2 * n + 1):
        for _ in range(3):
            a, b = rand_form(rng, n, k), rand_form(rng, n, k)
            beta = pi_p(0, a + b)
            u, w = one_forms[0], one_forms[1]
            # row 1 of mat /\ vec is a /\ u - a /\ (u + w): the a /\ u terms cancel
            mat = MatrixForm([[a, a], [a, -a]], k)
            vec = VectorForm([u, u + w], 1)
            outputs += [a + (-a), (a + b) + (-a), exterior_d(exterior_d(a)),
                        wedge(mat, vec), wedge(mat, mat), contract_lambda(beta),
                        contract_lambda(a + b), L_power(n - k + 1, beta), L_power(-1, beta),
                        pi_p(0, wedge(omega(n), a)), pi_p(1, a + b),
                        *decompose(wedge(omega(n), a + b) - wedge(omega(n), a)).values()]
    assert all(stores_no_zero(x) for x in outputs)


def test_commutator_with_identity():
    n = 2
    rng = random.Random(3)
    m = MatrixForm([[rand_form(rng, n, 1) for _ in range(2)] for _ in range(2)], 1)
    assert graded_commutator(MatrixForm.identity(n, 2), m).is_zero


def test_commutator_hand_computed():
    n = 2
    diag = MatrixForm.from_constant(n, [[1, 0], [0, 2]])
    nil = MatrixForm([[Form.zero(n, 1), Form.dx(n, 1)],
                      [Form.zero(n, 1), Form.zero(n, 1)]], 1)
    expected = MatrixForm([[Form.zero(n, 1), -Form.dx(n, 1)],
                           [Form.zero(n, 1), Form.zero(n, 1)]], 1)
    assert graded_commutator(diag, nil) == expected


def test_constant_matrix_commutes_with_its_multiples():
    n = 2
    phi = MatrixForm.from_constant(n, [[1, 2], [0, 3]])
    phi_lam = MatrixForm.from_scalar_form([[1, 2], [0, 3]], lambda_standard(n))
    assert graded_commutator(phi, phi_lam).is_zero


@pytest.mark.parametrize("n", [1, 2, 3])
def test_graded_commutativity_of_wedge(n):
    rng = random.Random(10 + n)
    for _ in range(40):
        p = rng.randint(0, 2 * n)
        q = rng.randint(0, 2 * n)
        a, b = rand_form(rng, n, p), rand_form(rng, n, q)
        sign = -1 if (p * q) % 2 else 1
        assert wedge(a, b) == wedge(b, a).scaled(sign)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_leibniz_rule(n):
    rng = random.Random(20 + n)
    for _ in range(40):
        p = rng.randint(0, 2 * n)
        q = rng.randint(0, 2 * n)
        a, b = rand_form(rng, n, p), rand_form(rng, n, q)
        lhs = exterior_d(wedge(a, b))
        rhs = wedge(exterior_d(a), b) + wedge(a, exterior_d(b)).scaled(
            -1 if p % 2 else 1)
        assert lhs == rhs


@pytest.mark.parametrize("n", [1, 2])
def test_d_squared_zero_on_fiber_valued(n):
    rng = random.Random(30 + n)
    for _ in range(15):
        k = rng.randint(0, 2 * n - 1)
        vec = VectorForm([rand_form(rng, n, k) for _ in range(2)], k)
        mat = MatrixForm([[rand_form(rng, n, k) for _ in range(2)]
                          for _ in range(2)], k)
        assert exterior_d(exterior_d(vec)).is_zero
        assert exterior_d(exterior_d(mat)).is_zero


def test_form_constructors_validate():
    with pytest.raises(ValueError):
        Form(1, 1, {(0, 1): Poly.const(1, 1)})  # wrong index length
    with pytest.raises(ValueError):
        Form(1, 3, {(0, 1, 2): Poly.const(1, 1)})  # degree above 2n... index 2 bad
    with pytest.raises(IndexError):
        Form.dx(2, 3)
    # zero forms may carry out-of-range degree labels
    assert Form.zero(1, 5).is_zero


def test_form_constructor_rejects_bad_degree_index_and_coefficient():
    # each used to be stored, or to fail later with an unrelated error
    one = Poly.const(1, 1)
    for degree in (1.0, True):
        for terms in ({(0,): one}, None):
            with pytest.raises(ValueError, match=f"^form degree {degree!r} is not an int$"):
                Form(1, degree, terms)
    for idx in [(0.0,), (True,), (0.5,)]:
        with pytest.raises(ValueError, match=re.escape(f"bad index tuple {idx!r}")):
            Form(1, 1, {idx: one})
    for value in (3, Fraction(1, 2), "x1", None):
        with pytest.raises(TypeError, match=re.escape(f"coefficient {value!r} at (0,) is not")):
            Form(1, 1, {(0,): value})


@pytest.mark.parametrize("n", [0, -1, 2.5, True, "2", None])
def test_public_constructors_refuse_a_bad_chart_dimension(n):
    # a bool is not an int here; each of these used to be accepted or to
    # fail later with an unrelated error
    for build in (lambda: Form(n, 0), lambda: Form(n, 1, {(0,): Poly.variable(1, 0)}),
                  lambda: Form.const(n, 1), lambda: Form.basis(n, ()), lambda: Form.dx(n, 1),
                  lambda: Form.dy(n, 1), lambda: lambda_standard(n), lambda: lambda_symmetric(n),
                  lambda: Poly(n, {(1, 0): 1}), lambda: Poly.const(n, 1),
                  lambda: Poly.variable(n, 0)):
        with pytest.raises(ValueError, match="^chart dimension n must be an int >= 1, got "):
            build()


def test_form_constructor_converts_to_one_denominator():
    half, third = Poly.const(1, Fraction(1, 2)), Poly(1, {(1, 0): Fraction(2, 3)})
    form = Form(1, 1, {(1,): half, (0,): third})
    assert (form.num, form.den) == ({(1,): {(0, 0): 3}, (0,): {(1, 0): 4}}, 6)
    assert list(form.terms) == [(1,), (0,)] and form.terms == {(1,): half, (0,): third}
    assert (Form(1, 1, {(0,): Poly.zero(1)}).num, Form(1, 1).den) == ({}, 1)
    # the internal builder from rationals: zero values and emptied indices
    # drop, and the indices keep their order, as in the public constructor
    zero = Fraction(0)
    for n, degree, coeffs in [
            (1, 1, {(1,): {(0, 0): Fraction(1, 2)}, (0,): {(1, 0): Fraction(2, 3)}}),
            (2, 2, {(1, 3): {(0, 1, 0, 0): zero, (1, 0, 0, 0): 0},
                    (0, 2): {(1, 0, 0, 0): Fraction(3, 4), (0, 0, 0, 1): 0, (0,) * 4: -2},
                    (0, 1): {(2, 0, 0, 0): Fraction(-5, 6)}}),
            (1, 0, {(): {}}),
            (1, 2, {(0, 1): {(0, 0): zero, (1, 1): 0}})]:
        built = Form._from_rationals(n, degree, coeffs)
        public = Form(n, degree, {idx: Poly(n, terms) for idx, terms in coeffs.items()})
        assert (built.num, built.den, list(built.num)) == (public.num, public.den,
                                                           list(public.num))


def test_fiber_constructors_validate():
    n = 2
    dx, dy = Form.dx(n, 1), Form.dy(n, 1)
    with pytest.raises(ValueError, match="at least one entry"):
        VectorForm([])
    with pytest.raises(ValueError, match="square and non-empty"):
        MatrixForm([])
    with pytest.raises(ValueError, match="square and non-empty"):
        MatrixForm([[dx, dx], [dx]])  # ragged
    with pytest.raises(ValueError, match="square and non-empty"):
        MatrixForm([[dx, dx]])  # 1 x 2
    with pytest.raises(ValueError, match="mixed degree"):
        VectorForm([dx, omega(n)])
    with pytest.raises(ValueError, match="mixed degree"):
        MatrixForm([[dx, dy], [dx, Form.const(n, 1)]])
    with pytest.raises(ValueError, match="mixed degree"):
        VectorForm([dx], 2)
    with pytest.raises(ValueError, match="chart dimension"):
        VectorForm([dx, Form.dx(1, 1)])
    with pytest.raises(ValueError, match="chart dimension"):
        MatrixForm([[dx, Form.dx(3, 1)], [dx, dx]])
    with pytest.raises(ValueError):
        VectorForm.zero(n, 1, 0)
    with pytest.raises(ValueError):
        MatrixForm.zero(n, 1, 0)


def test_fiber_constructors_keep_entries_and_relabel_zeros():
    n = 2
    dx = Form.dx(n, 1)
    v = VectorForm([dx, Form.zero(n, 0)], 1)
    assert v.entries[0] == dx and v.entries[0].degree == 1
    assert v.degree == 1 and v.entries[1].is_zero and v.entries[1].degree == 1
    m = MatrixForm([[dx, Form.zero(n, 5)], [Form.zero(n, 0), dx]])
    assert m.degree == 1 and [[e.degree for e in row] for row in m.entries] == [[1, 1], [1, 1]]
    assert m.entries[1][1] == dx and m.entries[0][1].is_zero and m.entries[1][0].is_zero
    # an int label outside 0..2n stays allowed on a zero form, as on a Form
    assert VectorForm([Form.zero(n, 0)], 99).degree == 99
    assert ConeElement.zero(n, 1, 0).xi.degree == -1


@pytest.mark.parametrize("label", [1.0, 0.5, True, False, "x"])
def test_labelled_constructors_refuse_a_label_that_is_not_an_int(label):
    # each used to be accepted, or to fail later with an unrelated error,
    # while Form(n, label) refused it: a float or bool label compares equal
    # to an int, so it passed every range and degree check
    n = 2
    dx, zero = Form.dx(n, 1), Form.zero(n, 0)
    for build, what in [(lambda: VectorForm([dx], label), "vector degree"),
                        (lambda: VectorForm([zero], label), "vector degree"),
                        (lambda: MatrixForm([[dx]], label), "matrix degree"),
                        (lambda: MatrixForm([[zero]], label), "matrix degree"),
                        (lambda: PrimElement(PLUS, label, dx), "primitive degree"),
                        (lambda: PrimElement(MINUS, label, zero), "primitive degree"),
                        (lambda: ConeElement(label, VectorForm([zero]), VectorForm([zero])),
                         "cone grading")]:
        with pytest.raises(ValueError, match=f"^{what} {re.escape(repr(label))} is not an int$"):
            build()


@pytest.mark.parametrize("build, error", [
    (lambda: Connection(1, 1, VectorForm([Form.dx(1, 1)])), TypeError),
    (lambda: ConeElement(1, VectorForm([Form.zero(1, 1)]), VectorForm([Form.zero(2, 0)])),
     ValueError),
    (lambda: ConeElement(1, MatrixForm([[Form.dx(1, 1)]]), VectorForm([Form.zero(1, 0)])),
     TypeError),
    (lambda: ConeElement(1, VectorForm([Form.dx(1, 1)]), MatrixForm([[Form.zero(1, 0)]])),
     TypeError),
    (lambda: PrimElement(PLUS, 0, 5), TypeError),
    (lambda: PrimElement(PLUS, -1, Form.const(1, 1)), ValueError),
    (lambda: PrimElement(MINUS, 2, Form.zero(1, 2)), ValueError),
    (lambda: VectorForm.unit(1, 2, -1), ValueError),
    (lambda: VectorForm.unit(1, 2, 2), ValueError),
], ids=["connection-of-a-vector", "cone-slots-on-two-charts", "cone-eta-matrix",
        "cone-xi-matrix", "prim-payload-int", "prim-below-zero-nonzero", "prim-above-n",
        "unit-negative", "unit-past-rank"])
def test_public_constructors_refuse_the_wrong_kind_of_form(build, error):
    # each was accepted, failed later with an unrelated error or built the
    # wrong value; a zero element below the complex is allowed, as a zero
    # cone element outside it is
    with pytest.raises(error):
        build()
    assert PrimElement(MINUS, -1, Form.zero(1, -1)).grading == 4


@pytest.mark.parametrize("n", [1, 2, 3])
def test_difference_equals_sum_with_negation(n):
    # a - b adds the negated terms of b directly; it equals a + (-b), drops
    # cancelled terms, and leaves both operands unchanged
    rng = random.Random(70 + n)
    for _ in range(60):
        degree = rng.randint(0, 2)
        a = rand_form(rng, n, degree)
        b = rng.choice([rand_form(rng, n, degree), a, a.scaled(2), Form.zero(n, degree + 1)])
        before = (dict(a.terms), dict(b.terms))
        diff = a - b
        assert diff == a + (-b) and diff.degree == (a + (-b)).degree
        assert all(not poly.is_zero for poly in diff.terms.values())
        assert (a.terms, b.terms) == before
    assert (Form.zero(n, 2) - Form.dx(n, 1)).degree == 1
    with pytest.raises(ValueError, match="degree mismatch"):
        Form.dx(n, 1) - omega(n)


@pytest.mark.parametrize("n", [1, 2])
def test_zero_results_carry_their_algebraic_degree(n):
    from primflat.cone import ConeElement, cone_d, homotopy_G, map_g
    from primflat.connection import Connection, covariant_d, generate_flat
    from primflat.lefschetz import L_power, pi_p
    from primflat.ainfinity import MINUS, PLUS, PrimElement

    r = 2
    one = VectorForm.unit(n, r, 0)
    zero_v = VectorForm.zero(n, 1, r)
    zero_m = MatrixForm.zero(n, 1, r)
    for x in (zero_v, zero_m, one):
        assert labelled(x + x.scaled(0), x.degree)
        assert labelled(x - x, x.degree)
        assert labelled(-x.scaled(0), x.degree)
    assert labelled(Form.dx(n, 1) - Form.dx(n, 1), 1)
    assert labelled(wedge(Form.dx(n, 1), zero_v), 2)
    assert labelled(wedge(zero_v, omega(n)), 3)
    assert labelled(wedge(zero_m, zero_m), 2)
    assert labelled(wedge(zero_m, one), 1)
    assert labelled(wedge(omega_power(n, n), VectorForm([Form.dx(n, 1)] * r)), 2 * n + 1)
    assert labelled(exterior_d(one), 1)
    assert labelled(exterior_d(exterior_d(lambda_standard(n))), 3)
    assert labelled(exterior_d(MatrixForm.identity(n, r)), 1)
    assert labelled(L_power(-1, one), -2)
    assert labelled(L_power(-1, VectorForm([Form.dx(n, 1)] * r)), -1)
    assert labelled(L_power(n + 1, one), 2 * n + 2)
    assert labelled(pi_p(0, VectorForm([omega(n)] * r)), 2)
    assert labelled(pi_p(0, zero_m), 1)

    flat = Connection(n, r, MatrixForm.zero(n, 1, r))
    assert labelled(covariant_d(flat, one), 1)
    assert labelled(covariant_d(generate_flat(n, r, [[0, 0], [0, 0]]), zero_v), 2)
    conn = generate_flat(n, r, [[1, 0], [0, 2]])
    for grading in range(0, 2 * n + 2):
        image = cone_d(conn, ConeElement.zero(n, r, grading))
        assert labelled(image.eta, grading + 1) and labelled(image.xi, grading)
        lowered = homotopy_G(ConeElement.zero(n, r, grading))
        assert labelled(lowered.eta, grading - 1) and labelled(lowered.xi, grading - 2)
    # a primitive eta has no omega component, so L^{-1} eta is zero
    lowered = homotopy_G(ConeElement(1, VectorForm([Form.dx(n, 1)] * r),
                                     VectorForm.zero(n, 0, r)))
    assert labelled(lowered.eta, 0) and labelled(lowered.xi, -1)
    # plus side: xi = -del_minus_A(unit) vanishes in the zero connection
    plus = map_g(flat, PrimElement(PLUS, 0, one))
    assert labelled(plus.eta, 0) and labelled(plus.xi, -1)
    minus = map_g(flat, PrimElement(MINUS, n, VectorForm.zero(n, n, r)))
    assert minus.grading == n + 1
    assert labelled(minus.eta, n + 1) and labelled(minus.xi, n)


def test_forms_and_polys_are_unhashable():
    # a hash would have to agree across these equalities, which cross labels
    assert Form.zero(1, 0) == Form.zero(1, 2) and Poly.const(1, 3) == 3
    for value in (Form.zero(1, 0), Form.dx(2, 1), Poly.const(1, 3), Poly.variable(1, 0),
                  VectorForm.zero(1, 0, 2), MatrixForm.zero(1, 0, 2)):
        with pytest.raises(TypeError):
            hash(value)


# ---------- the int kernels against the Fraction oracles ----------

def assert_canonical(x):
    """Every entry is int numerators over a positive int denominator with no
    common factor, no empty index and no zero numerator; zero is {} over 1."""
    for e in ([x] if isinstance(x, Form) else x.flat):
        values = [c for monos in e.num.values() for c in monos.values()]
        assert type(e.den) is int and e.den > 0
        assert all(e.num.values()) and all(type(c) is int and c for c in values)
        assert gcd(e.den, *values) == 1 and (e.num or e.den == 1)


def as_oracle(x):
    """``{index: FractionPoly}`` of a form, or the list of them per fiber
    entry, read straight from the numerators."""
    return fraction_polys(x) if isinstance(x, Form) else [as_oracle(e) for e in x.flat]


def oracle_sum(maps):
    out = {}
    for terms in maps:
        for idx, poly in terms.items():
            out[idx] = out[idx] + poly if idx in out else poly
    return {idx: poly for idx, poly in out.items() if not poly.is_zero}


def oracle_wedge(a, b):
    """a /\\ b by ``wedge_by_sorting`` per entry, composing fibers by hand."""
    if isinstance(a, Form) or isinstance(b, Form):
        left = [as_oracle(a)] if isinstance(a, Form) else as_oracle(a)
        right = [as_oracle(b)] if isinstance(b, Form) else as_oracle(b)
        out = [wedge_by_sorting(x, y) for x in left for y in right]
        return out[0] if isinstance(a, Form) and isinstance(b, Form) else out
    r, left, right = a.rank, as_oracle(a), as_oracle(b)
    cols = 1 if isinstance(b, VectorForm) else r
    return [oracle_sum(wedge_by_sorting(left[i * r + k], right[k * cols + j]) for k in range(r))
            for i in range(r) for j in range(cols)]


def oracle_d(n, terms):
    """sum_c dx_c /\\ (partial_c of every coefficient)."""
    return oracle_sum(wedge_by_sorting({(c,): FractionPoly.const(n, 1)},
                                       {idx: poly.partial(c) for idx, poly in terms.items()
                                        if not poly.partial(c).is_zero})
                      for c in range(2 * n))


def oracle_omega_map(n, degree, shift, top, terms, tables={}):
    key = (n, degree, shift, top)
    if key not in tables:
        tables[key] = omega_map_by_wedge(*key)
    return oracle_sum({tidx: poly.scaled(q)} for idx, poly in terms.items()
                      for tidx, q in tables[key][idx].items())


def entries(x):
    """The oracle maps of a form's entries, one for a scalar form."""
    return [as_oracle(x)] if isinstance(x, Form) else as_oracle(x)


def entrywise(x, fn):
    return fn(as_oracle(x)) if isinstance(x, Form) else [fn(e) for e in as_oracle(x)]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_int_kernels_match_fraction_oracles(n):
    rng = random.Random(1000 + n)
    r = 2
    for _ in range(12):
        k = rng.randint(0, 2 * n)
        j = rng.randint(0, 2 * n - k)

        def fiber(kind, degree):
            if kind == "scalar":
                return rand_form(rng, n, degree) + rand_form(rng, n, degree)
            if kind == "vector":
                return VectorForm([rand_form(rng, n, degree) for _ in range(r)], degree)
            return MatrixForm([[rand_form(rng, n, degree) for _ in range(r)] for _ in range(r)],
                              degree)

        for kind in ("scalar", "vector", "matrix"):
            a, other = fiber(kind, k), fiber(kind, k)
            value = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
            for b in (other, a, a.scaled(2), -a):  # sums that cancel, in part or in whole
                for sign, got in ((1, a + b), (-1, a - b)):
                    assert_canonical(got)
                    expected = [oracle_sum([x, {i: p.scaled(sign) for i, p in y.items()}])
                                for x, y in zip(entries(a), entries(b))]
                    assert entries(got) == expected
            for factor, got in ((value, a.scaled(value)), (-1, -a)):
                assert_canonical(got)
                assert as_oracle(got) == entrywise(
                    a, lambda t: {i: p.scaled(factor) for i, p in t.items() if factor})
            d = exterior_d(a)
            assert_canonical(d)
            assert as_oracle(d) == entrywise(a, lambda t: oracle_d(n, t))
            for entry in ([a] if kind == "scalar" else a.flat):
                lowered = contract_lambda(entry)
                assert_canonical(lowered)
                assert as_oracle(lowered) == contract_lambda_by_interior(n, as_oracle(entry))
            for shift, top in ((0, 0), (0, n), (-1, n), (1, n), (-k // 2, k // 2)):
                mapped = _apply_omega_map(a, shift, top)
                assert_canonical(mapped)
                assert as_oracle(mapped) == entrywise(
                    a, lambda t: oracle_omega_map(n, k, shift, top, t))
            # scalar with each fiber on both sides, matrix.vector and matrix.matrix
            s = fiber("scalar", j)
            products = [(s, a), (a, s)]
            if kind == "matrix":
                products += [(a, fiber("vector", j)), (a, fiber("matrix", j))]
            for x, y in products:
                got = wedge(x, y)
                assert_canonical(got)
                assert as_oracle(got) == oracle_wedge(x, y), (x, y)
