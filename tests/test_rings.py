import random
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chevalley.group import GroupElement, x_elem
from chevalley.rings import (
    _MAX_MODULUS,
    ExtRing,
    RingError,
    _is_prime,
    adjoin_root,
    is_unit,
    make_ring,
    radical_member,
    residue,
)
from chevalley.roots import system


def egcd_inverse(a, m):
    # independent extended-Euclid oracle
    g, x, _ = _egcd(a % m, m)
    assert g == 1
    return x % m


def _egcd(a, b):
    if a == 0:
        return b, 0, 1
    g, x, y = _egcd(b % a, a)
    return g, y - (b // a) * x, x


def test_make_ring_half_values():
    r = make_ring("zmod:3^3")
    assert r.from_int(2).inv() == r.from_int(egcd_inverse(2, 27))
    assert r.from_int(2).inv() == r.from_int(14)
    assert make_ring("gf:5").from_int(2).inv() == make_ring("gf:5").from_int(3)


def test_make_ring_rejects_oversized_modulus():
    with pytest.raises(RingError):
        make_ring("zmod:5^12")


def test_make_ring_rejects_even_and_composite():
    with pytest.raises(RingError):
        make_ring("zmod:2^3")
    with pytest.raises(RingError):
        make_ring("gf:2")
    with pytest.raises(RingError):
        make_ring("zmod:9^2")
    with pytest.raises(RingError):
        make_ring("trunc:2:3")
    with pytest.raises(RingError):
        make_ring("nosuch:3")


def reference_is_prime(n: int) -> bool:
    """The deleted Miller-Rabin `rings._is_prime`, verbatim."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    # deterministic Miller-Rabin, valid far beyond any modulus used here
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_is_prime_matches_miller_rabin():
    # every n to 20,000, 3,000 random n below the modulus cap, and the last
    # 1,000 up to the cap
    rng = random.Random(11)
    ns = list(range(20_001)) + [rng.randrange(_MAX_MODULUS) for _ in range(3000)]
    ns += list(range(_MAX_MODULUS - 1000, _MAX_MODULUS + 1))
    assert [n for n in ns if _is_prime(n) != reference_is_prime(n)] == []


def test_unit_xor_radical_exhaustive():
    for desc in ("zmod:3^3", "gf:5", "trunc:3:2"):
        ring = make_ring(desc)
        seen_unit = seen_rad = 0
        for vec in _all_vecs(ring):
            x = ring.elem(vec)
            u, rad = is_unit(x), radical_member(x)
            assert u != rad
            seen_unit += u
            seen_rad += rad
        assert seen_unit and seen_rad


def _all_vecs(ring):
    def rec(i):
        if i == ring.depth:
            yield ()
            return
        for rest in rec(i + 1):
            for v in range(ring.q):
                yield (v,) + rest

    yield from rec(0)


def test_unit_examples():
    z27 = make_ring("zmod:3^3")
    assert radical_member(z27.from_int(3))
    assert is_unit(z27.from_int(14))
    t53 = make_ring("trunc:5:3")
    assert radical_member(t53.eps)


def test_residue_map():
    z27 = make_ring("zmod:3^3")
    assert residue(z27.from_int(14)) == make_ring("gf:3").from_int(2)
    assert residue(z27.one) == make_ring("gf:3").one
    t53 = make_ring("trunc:5:3")
    assert residue(t53.eps) == make_ring("gf:5").zero
    # homomorphism on random pairs
    rng = random.Random(0)
    for ring in (z27, t53):
        for _ in range(50):
            a, b = ring.random_element(rng), ring.random_element(rng)
            assert residue(a * b) == residue(a) * residue(b)
            assert residue(a + b) == residue(a) + residue(b)


def test_radical_nilpotent_exhaustive():
    for desc in ("zmod:3^2", "trunc:3:3"):
        ring = make_ring(desc)
        k = ring.nilpotency
        rads = [ring.elem(v) for v in _all_vecs(ring) if radical_member(ring.elem(v))]
        # J^k = 0: every k-fold product of radical elements vanishes
        for a in rads[:12]:
            prod = ring.one
            for _ in range(k):
                prod = prod * a
            assert prod == ring.zero


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 10**6),
       st.sampled_from(["zmod:3^4", "gf:7", "trunc:5:3", "ext:zmod:5^2:6:2"]))
def test_ring_axioms(a, b, c, desc):
    ring = make_ring(desc)
    rng = random.Random(a * 7 + b * 3 + c)
    x = ring.random_element(rng)
    y = ring.random_element(rng)
    z = ring.random_element(rng)
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x * y == y * x
    assert x + (-x) == ring.zero
    assert x * ring.one == x


def test_adjoin_root_square_root_of_six():
    z25 = make_ring("zmod:5^2")
    S, s = adjoin_root(z25, z25.from_int(6), 2)
    assert s * s == S.embed(z25.from_int(6))
    inv6 = z25.from_int(egcd_inverse(6, 25))
    assert inv6 == z25.from_int(21)
    assert s * (s * S.embed(inv6)) == S.one
    assert s * s.inv() == S.one


def test_adjoin_root_trivial_and_errors():
    z27 = make_ring("zmod:3^3")
    S, s = adjoin_root(z27, z27.one, 2)
    assert s * s == S.one
    with pytest.raises(RingError):
        adjoin_root(z27, z27.from_int(3), 2)
    with pytest.raises(RingError):
        radical_member(S.one)
    with pytest.raises(RingError):
        residue(S.one)


def test_adjoin_root_embedding_commutes():
    base = make_ring("trunc:3:2")
    S, s = adjoin_root(base, base.one + base.eps, 3)
    rng = random.Random(4)
    for _ in range(40):
        a, b = base.random_element(rng), base.random_element(rng)
        assert S.embed(a * b) == S.embed(a) * S.embed(b)
        assert S.embed(a + b) == S.embed(a) + S.embed(b)
    assert s**3 == S.embed(base.one + base.eps)


def test_ext_unit_detection():
    z25 = make_ring("zmod:5^2")
    S, s = adjoin_root(z25, z25.from_int(2), 2)
    assert is_unit(s)
    assert is_unit(S.embed(z25.from_int(3)))
    assert not is_unit(S.embed(z25.from_int(5)))
    assert not is_unit(S.zero)


def test_matrix_kernels_match_scalar_products():
    rng = random.Random(11)
    for desc in ("zmod:3^4", "trunc:5:3", "ext:zmod:5^2:6:2"):
        ring = make_ring(desc)
        n = 4
        A = [[ring.random_element(rng) for _ in range(n)] for _ in range(n)]
        B = [[ring.random_element(rng) for _ in range(n)] for _ in range(n)]
        dataA = np.zeros((ring.depth, n, n), dtype=np.int64)
        dataB = np.zeros((ring.depth, n, n), dtype=np.int64)
        for i in range(n):
            for j in range(n):
                dataA[:, i, j] = A[i][j].vec
                dataB[:, i, j] = B[i][j].vec
        C = ring.mat_mul(dataA, dataB)
        for i in range(n):
            for j in range(n):
                want = ring.zero
                for k in range(n):
                    want = want + A[i][k] * B[k][j]
                assert tuple(int(v) for v in C[:, i, j]) == want.vec


def test_ext_descriptor_over_trunc_base():
    # the base descriptor carries its own colons; r is a coefficient list
    S = make_ring("ext:trunc:3:2:1,1:2")
    base = make_ring("trunc:3:2")
    assert S.depth == 4
    assert S.gen * S.gen == S.embed(base.one + base.eps)
    assert is_unit(S.gen)


def test_elem_parse_format_roundtrip():
    for desc in ("zmod:7^2", "trunc:3:3"):
        ring = make_ring(desc)
        rng = random.Random(2)
        for _ in range(20):
            x = ring.random_element(rng)
            assert ring.parse_elem(ring.format_elem(x)) == x
            assert ring.elem_from_json(ring.elem_to_json(x)) == x


# ---------------------------------------------------------------------------
# the one elimination over Z/q behind RingElem.inv, and inverses by word
# ---------------------------------------------------------------------------

SOLVER_RINGS = ["zmod:3^3", "gf:7", "trunc:3:3", "ext:zmod:5^2:2:3", "ext:trunc:3:2:1,1:2"]


def _unit_by_search(ring, x) -> bool:
    """Independent oracle: x is a unit iff its image modulo the radical of the
    (base) local ring is, decided by trying every element of that image ring."""
    if ring.kind == "ext":
        base = ring.base
        bar = ExtRing(base.residue_field(), base.residue_vec(ring.r.vec), ring.m)
        d = base.depth
        xbar = sum((base.residue_vec(x.vec[i:i + d]).vec for i in range(0, ring.depth, d)), ())
    else:
        bar, xbar = ring.residue_field(), ring.residue_vec(x.vec).vec
    return any(bar.mul_vec(xbar, z) == bar.one.vec
               for z in product(range(bar.q), repeat=bar.depth))


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(SOLVER_RINGS), st.integers(0, 2**32))
def test_inverse_exists_exactly_for_units(desc, seed):
    ring = make_ring(desc)
    x = ring.random_element(random.Random(seed))
    if _unit_by_search(ring, x):
        assert x * x.inv() == ring.one
    else:
        with pytest.raises(RingError):
            x.inv()


def test_mat_inv_over_ext_without_a_unit_pivot_in_some_column():
    """x_(0,-1)(t1) x_(-1,-1)(t2) x_(1,1)(t3) over ext:zmod:5^2:2:3: an
    elimination of its matrix on unit pivots of S, which is not local, finds
    no unit in column 6 and refuses it.  Its inverse word inverts it on both
    sides."""
    ring, sy = make_ring("ext:zmod:5^2:2:3"), system("A2")
    g = GroupElement.identity(sy, ring)
    for root, t in (((0, -1), (16, 8, 1)), ((-1, -1), (12, 20, 7)), ((1, 1), (7, 3, 22))):
        g = g @ x_elem(sy, ring, root, ring.elem(t))
    inv = g.inverse()
    assert (inv @ g).is_identity()
    assert (g @ inv).is_identity()
