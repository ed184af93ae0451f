"""Lefschetz decomposition and the symplectic operators."""

import random
from fractions import Fraction
from math import lcm

import pytest

from primflat.errors import InternalInvariantError
from primflat.forms import (Form, MatrixForm, VectorForm, all_indices, exterior_d,
                            lambda_standard, merge_indices, omega, omega_const, omega_power,
                            wedge, wedge_terms)
from primflat.lefschetz import (L_power, _omega_map, component_range, decompose, del_minus,
                                del_plus, fiber_d_table, is_primitive, pi_p,
                                primitive_fiber_basis, primitive_fiber_coords, star_r)
from primflat.sampling import rand_form, rand_primitive_form
from primflat.scalars import Poly

from oracle import (L_power_by_wedge, fraction_polys, is_primitive_by_wedge,
                    labelled, omega_map_by_wedge, pi_p_by_wedge, reassemble, vec_add_scaled,
                    wedge_by_sorting)


def half(n, value=1):
    return Fraction(value, 2)


def test_component_range_matches_its_conditions():
    # omega^r /\ beta_s with s = degree - 2r, 0 <= s <= n and r <= n - s
    for n in range(1, 10):
        for degree in range(-1, 2 * n + 2):
            expected = [r for r in range(degree // 2 + 1)
                        if 0 <= degree - 2 * r <= n and r <= n - (degree - 2 * r)]
            assert list(component_range(n, degree)) == expected, (n, degree)


def test_omega_is_not_primitive():
    for n in (1, 2, 3):
        assert not is_primitive(omega(n))


def test_balanced_two_form_is_primitive():
    n = 2
    f = wedge(Form.dx(n, 1), Form.dy(n, 1)) - wedge(Form.dx(n, 2), Form.dy(n, 2))
    assert is_primitive(f)


def test_low_degree_always_primitive():
    n = 3
    rng = random.Random(0)
    assert is_primitive(rand_form(rng, n, 0))
    assert is_primitive(rand_form(rng, n, 1))


def test_decompose_omega():
    n = 2
    assert decompose(omega(n)) == {1: Form.const(n, 1)}


def test_decompose_hand_solved_case():
    # dx1/\dy1 at n=2: solving the 2-unknown fiber system by hand gives
    # beta_2 = (dx1 dy1 - dx2 dy2)/2 and beta_0 = 1/2
    n = 2
    f = wedge(Form.dx(n, 1), Form.dy(n, 1))
    dec = decompose(f)
    expected0 = (wedge(Form.dx(n, 1), Form.dy(n, 1))
                 - wedge(Form.dx(n, 2), Form.dy(n, 2))).scaled(half(n))
    assert dec == {0: expected0, 1: Form.const(n, half(n))}
    assert is_primitive(dec[0])
    assert reassemble(f, dec) == f


def test_decompose_primitive_is_identity():
    n = 2
    rng = random.Random(1)
    beta = rand_primitive_form(rng, n, 2)
    assert decompose(beta) == {0: beta}


def test_L_power_removes_omega():
    n = 2
    assert L_power(-1, omega(n)) == Form.const(n, 1)
    beta = rand_primitive_form(random.Random(2), n, 2)
    assert L_power(-1, beta).is_zero
    assert L_power(1, L_power(-1, wedge(omega(n), beta))) == wedge(omega(n), beta)


def test_pi_projections():
    n = 2
    assert pi_p(0, omega(n)).is_zero
    f = wedge(Form.dx(n, 1), Form.dy(n, 1))
    expected = (wedge(Form.dx(n, 1), Form.dy(n, 1))
                - wedge(Form.dx(n, 2), Form.dy(n, 2))).scaled(half(n))
    assert pi_p(0, f) == expected
    rng = random.Random(3)
    low = rand_form(rng, n, 1)
    assert pi_p(1, low) == low
    scalar = rand_form(rng, n, 0)
    assert pi_p(1, scalar) == scalar


def test_star_r_examples():
    n = 2
    assert star_r(Form.const(n, 1)) == omega_power(n, 2)
    assert star_r(omega_power(n, n)) == Form.const(n, 1)
    rng = random.Random(4)
    for s in range(0, n + 1):
        beta = rand_primitive_form(rng, n, s)
        assert star_r(beta) == wedge(omega_power(n, n - s), beta)
        assert star_r(star_r(beta)) == beta


def test_del_operators_on_potential():
    lam2 = lambda_standard(2)
    assert del_minus(lam2) == Form.const(2, 1)
    assert del_plus(Form(2, 1, {(2,): Poly.variable(2, 0)})) == \
        (wedge(Form.dx(2, 1), Form.dy(2, 1))
         - wedge(Form.dx(2, 2), Form.dy(2, 2))).scaled(half(2))
    assert del_plus(lambda_standard(1)).is_zero  # no primitive 2-forms at n=1


def test_del_operators_reject_non_primitive():
    with pytest.raises(ValueError):
        del_plus(omega(2))
    with pytest.raises(ValueError):
        del_minus(omega(2))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_reassembly_and_primitivity_random(n):
    rng = random.Random(100 + n)
    for k in range(0, 2 * n + 1):
        for _ in range(200):
            f = rand_form(rng, n, k)
            dec = decompose(f)
            assert reassemble(f, dec) == f
            for r, beta in dec.items():
                assert is_primitive(beta)
                assert beta.is_zero or beta.degree == k - 2 * r


@pytest.mark.parametrize("n", [1, 2, 3])
def test_primitivity_oracles_agree(n):
    rng = random.Random(200 + n)
    for _ in range(60):
        k = rng.randint(0, 2 * n)
        beta = pi_p(0, rand_form(rng, n, k))
        assert is_primitive(beta) == is_primitive_by_wedge(beta)
        full = rand_form(rng, n, k)
        assert is_primitive(full) == is_primitive_by_wedge(full)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_del_plus_minus_properties(n):
    rng = random.Random(300 + n)
    for _ in range(40):
        s = rng.randint(0, n)
        beta = rand_primitive_form(rng, n, s, nonzero=False)
        dp, dm = del_plus(beta), del_minus(beta)
        assert is_primitive(dp) and is_primitive(dm)
        assert exterior_d(beta) == dp + wedge(omega(n), dm)
        assert del_plus(dp).is_zero
        assert del_minus(dm).is_zero


def test_decompose_fiber_valued():
    n = 2
    rng = random.Random(5)
    vec = VectorForm([rand_form(rng, n, 2) for _ in range(2)], 2)
    assert reassemble(vec, decompose(vec)) == vec
    mat = MatrixForm([[rand_form(rng, n, 3) for _ in range(2)] for _ in range(2)], 3)
    dec_m = decompose(mat)
    assert reassemble(mat, dec_m) == mat
    for beta in dec_m.values():
        assert is_primitive(beta)


@pytest.mark.parametrize("zero", [Form.zero(2, 2), VectorForm.zero(2, 2, 2),
                                  MatrixForm.zero(2, 3, 2)], ids=["form", "vector", "matrix"])
def test_zero_forms_decompose_to_no_component(zero):
    # a sum over no component is the zero of the input's fiber, not a scalar zero
    assert decompose(zero) == {}
    assert reassemble(zero, {}) == zero


def test_primitive_fiber_dimensions():
    # dim P^s = C(2n, s) - C(2n, s-2)
    from math import comb
    for n in (1, 2, 3):
        for s in range(0, n + 1):
            expected = comb(2 * n, s) - (comb(2 * n, s - 2) if s >= 2 else 0)
            assert len(primitive_fiber_basis(n, s)) == expected
        assert primitive_fiber_basis(n, n + 1) == []



@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_primitive_fiber_coords_recover_combinations(n):
    rng = random.Random(600 + n)
    for s in range(0, n + 1):
        basis = primitive_fiber_basis(n, s)
        for _ in range(5):
            coords = {bi: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                      for bi in rng.sample(range(len(basis)), rng.randint(1, len(basis)))}
            coords = {bi: c for bi, c in coords.items() if c}
            form = {}
            for bi, c in coords.items():
                vec_add_scaled(form, c, basis[bi])
            assert primitive_fiber_coords(n, s, form) == coords
    if n >= 2:
        # omega itself: a constant 2-form with no primitive part
        with pytest.raises(InternalInvariantError,
                           match=rf"^constant 2-form \(n={n}\) is not primitive$"):
            primitive_fiber_coords(n, 2, omega_const(n, 1))

@pytest.mark.parametrize("n", [1, 2, 3])
def test_operator_tables_match_rewedge_oracle(n):
    rng = random.Random(400 + n)
    for k in range(0, 2 * n + 1):
        for _ in range(3):
            samples = [rand_form(rng, n, k), Form.zero(n, k),
                       VectorForm([rand_form(rng, n, k) for _ in range(2)], k),
                       MatrixForm([[rand_form(rng, n, k) for _ in range(2)]
                                   for _ in range(2)], k)]
            for a in samples:
                for p in range(-(n + 1), n + 2):
                    got = L_power(p, a)
                    assert got == L_power_by_wedge(p, a)
                    assert labelled(got, k + 2 * p)
                for p in range(0, n + 2):
                    got = pi_p(p, a)
                    assert got == pi_p_by_wedge(p, a)
                    assert labelled(got, k)
                got = star_r(a)
                assert got == L_power_by_wedge(n - k, a)
                assert labelled(got, 2 * n - k)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_omega_map_matches_wedge_oracle(n):
    for degree in range(0, 2 * n + 1):
        for shift in range(-(n + 1), n + 2):
            for top in range(0, n + 1):
                table, scale = _omega_map(n, degree, shift, top)
                expected = omega_map_by_wedge(n, degree, shift, top)
                assert type(scale) is int and scale > 0
                assert table.keys() == expected.keys()
                for idx, pairs in table.items():
                    assert len(dict(pairs)) == len(pairs)
                    assert all(type(k) is int and k for _, k in pairs)
                    assert {tidx: Fraction(k, scale) for tidx, k in pairs} == expected[idx], (
                        degree, shift, top, idx)
                # the scale is the least one: no smaller multiple is all ints
                assert scale == lcm(*(c.denominator for row in expected.values()
                                      for c in row.values()))


def const_values(form):
    return {idx: poly.constant_value() for idx, poly in fraction_polys(form).items()}


def test_wedge_terms_matches_sorting_oracle():
    n = 3
    rng = random.Random(7)
    # sums whose products cancel, and factors that share an index
    samples = [({(0,): 1, (1,): 1}, {(0,): 1, (1,): 1}),
               ({(0,): 2, (1,): 3}, {(0,): 3, (1,): 2}),
               ({(0, 3): 1}, {(0, 3): 1, (1, 4): 1}),
               ({(0, 3): 1, (1, 4): 1}, {(0, 3): 1, (1, 4): -1}),
               ({(2,): 1}, {(2,): 1}), ({}, {(0,): 1}), ({(): Fraction(-2, 3)}, {(1, 5): 1})]
    for _ in range(200):
        pair = []
        for _side in range(2):
            indices = all_indices(n, rng.randint(0, 2 * n))
            picks = rng.sample(indices, min(len(indices), rng.randint(1, 4)))
            coeffs = {idx: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for idx in picks}
            pair.append({idx: c for idx, c in coeffs.items() if c})
        samples.append(pair)
    # the same samples over int (times 6 clears every denominator) and
    # Fraction coefficients
    for ring in (lambda c: int(6 * c), Fraction):
        for pair in samples:
            a, b = ({idx: ring(c) for idx, c in side.items()} for side in pair)
            assert wedge_terms(a, b) == wedge_by_sorting(a, b), (a, b)
    for r in range(0, n + 2):
        power = {(): 1}
        for _ in range(r):
            power = wedge_by_sorting(power, {(i, n + i): 1 for i in range(n)})
        assert omega_const(n, r) == power
        assert omega_const(n, r) == const_values(omega_power(n, r))


@pytest.mark.parametrize("p", [1.5, 0.5, True])
@pytest.mark.parametrize("operator", [lambda p: omega_power(2, p),
                                      lambda p: L_power(p, Form.dx(2, 1)),
                                      lambda p: pi_p(p, Form.dx(2, 1))],
                         ids=["omega_power", "L_power", "pi_p"])
def test_lefschetz_exponents_must_be_ints(operator, p):
    # 1.5 recursed without bound in omega_const, 0.5 acted as 0 and True as 1
    with pytest.raises(ValueError, match=f"wants an int p.*got {p}$"):
        operator(p)


def test_merge_indices_matches_sorting_oracle_on_every_pair():
    # every pair of basis indices: an overlap gives None, any other the sorted
    # union with the sign the sorting oracle gives
    for n in (1, 2, 3):
        indices = [idx for degree in range(2 * n + 1) for idx in all_indices(n, degree)]
        for left in indices:
            for right in indices:
                merged = merge_indices(left, right)
                got = {} if merged is None else {merged[1]: merged[0]}
                assert got == wedge_by_sorting({left: 1}, {right: 1}), (left, right)


@pytest.mark.parametrize("table,args", [(fiber_d_table, (2, 1, 0)), (_omega_map, (2, 2, -1, 2))],
                         ids=["fiber_d_table", "_omega_map"])
def test_repeated_table_call_is_a_cache_hit(table, args):
    first = table(*args)
    hits = table.cache_info().hits
    assert table(*args) is first
    assert table.cache_info().hits == hits + 1
