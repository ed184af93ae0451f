"""Every payload the A-infinity, twisted and cone maps produce is primitive,
by the wedge oracle rather than the lowering contraction they validate with."""

import random

import pytest

from primflat.ainfinity import PLUS, m1, m2, m3
from primflat.cone import map_f
from primflat.connection import generate_flat
from primflat.sampling import rand_cone_element, rand_element_at_grading, rand_prim_element
from primflat.twist import twisted_m1

from oracle import is_primitive_by_wedge, rand_unipotent

FIBERS = [("scalar", 1), ("matrix", 2)]


def assert_primitive_outputs(outputs):
    # zero outputs carry no payload; the seeds below give non-zero ones
    payloads = [out.payload for out in outputs if not out.is_zero]
    assert payloads
    for payload in payloads:
        assert is_primitive_by_wedge(payload), payload


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("fiber,rank", FIBERS)
def test_m1_m2_outputs_are_primitive(n, fiber, rank):
    rng = random.Random(900 + 10 * n + rank)

    def sample():
        return rand_prim_element(rng, n, fiber, rank, max_degree=2)

    assert_primitive_outputs(m1(sample()) for _ in range(20))
    assert_primitive_outputs(m2(sample(), sample()) for _ in range(20))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("fiber,rank", FIBERS)
def test_m3_outputs_are_primitive(n, fiber, rank):
    # m3 vanishes unless all three inputs are plus-side with degrees summing
    # to at least n + 2
    rng = random.Random(950 + 10 * n + rank)

    def sample():
        return rand_prim_element(rng, n, fiber, rank, side=PLUS,
                                 s=rng.randint((n + 1) // 2, n), max_degree=1)

    assert_primitive_outputs(m3(sample(), sample(), sample()) for _ in range(10))


@pytest.mark.parametrize("n", [1, 2])
def test_twisted_m1_on_gauged_connection_is_primitive(n):
    rng = random.Random(970 + n)
    conn = generate_flat(n, 2, [[1, 2], [0, -1]], gauge=rand_unipotent(rng, n, 2))
    outputs = [twisted_m1(conn, rand_element_at_grading(rng, n, grading, "vector", 2,
                                                        max_degree=2))
               for grading in range(2 * n + 2) for _ in range(3)]
    assert_primitive_outputs(outputs)


@pytest.mark.parametrize("n", [1, 2])
def test_map_f_outputs_are_primitive(n):
    rng = random.Random(980 + n)
    conn = generate_flat(n, 2, [[0, 1], [0, 0]], gauge=rand_unipotent(rng, n, 2))
    assert_primitive_outputs(map_f(conn, rand_cone_element(rng, conn, grading))
                             for grading in range(2 * n + 2) for _ in range(3))
