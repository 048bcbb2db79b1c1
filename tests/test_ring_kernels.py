"""The tensor kernels of `chevalley.rings` against frozen per-kind references.

Every ring kind now multiplies through its multiplication tensor: one generic
`mul_vec`, `mat_mul` and `mat_elemmul` on `Ring`, and one fused column update
per generator term in `Mat.__matmul__`.  The references below are the
per-kind kernels these replaced, kept verbatim: `ModRing._conv3`,
`TruncRing._conv3` and `mul_vec`, `ExtRing._conv3` and `mul_vec`,
`_scale_stack`, the slotwise `Ring.mat_mod`, and the generator update that
reduced three times per term.  Only `self` became the reference object that
wraps a ring.  Also here: the int64 bounds the kernels rely on.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chevalley.group import x_elem
from chevalley.lie import SparseColumns, ad_x_tables, structure_constants
from chevalley.matrices import Mat
from chevalley.rings import _MAX_MODULUS, INT64_MAX, MAX_DIM, RingError, _is_prime, make_ring
from chevalley.roots import system

BIG_PRIME = max(p for p in range(_MAX_MODULUS - 100, _MAX_MODULUS + 1) if _is_prime(p))
RINGS = ["zmod:3^3", "gf:7", "trunc:3:3", "ext:zmod:5^2:2:3", "ext:trunc:3:2:1,1:2",
         f"gf:{BIG_PRIME}"]


# ---------------------------------------------------------------------------
# frozen references
# ---------------------------------------------------------------------------


class Reference:
    """The pre-tensor kernels of one ring; anything else is the ring's own."""

    def __init__(self, ring):
        self.ring = ring
        # the per-slot moduli the old kernels read
        self.moduli = (ring.q,) * ring.depth

    def __getattr__(self, name):
        return getattr(self.ring, name)

    def add_vec(self, a, b):
        return tuple((x + y) % m for x, y, m in zip(a, b, self.moduli))

    def mat_mod(self, data):
        return data % np.asarray(self.moduli, dtype=np.int64)[:, None, None]

    def mat_mul(self, a, b):
        return self._conv3(a, b, lambda x, y: x @ y)

    def mat_elemmul(self, a, b):
        return self._conv3(a, b, lambda x, y: x * y)


class ModReference(Reference):
    def mul_vec(self, a, b):
        return (a[0] * b[0] % self.q,)

    def _conv3(self, a, b, op):
        return op(a[0], b[0])[None, :, :] % self.q


class TruncReference(Reference):
    def mul_vec(self, a, b):
        p, k = self.p, self.k
        out = [0] * k
        for i, ai in enumerate(a):
            if ai:
                for j in range(k - i):
                    out[i + j] = (out[i + j] + ai * b[j]) % p
        return tuple(out)

    def _conv3(self, a, b, op):
        k, p = self.k, self.p
        out = np.zeros((k,) + op(a[0], b[0]).shape, dtype=np.int64)
        for i in range(k):
            for j in range(k - i):
                out[i + j] += op(a[i], b[j])
                out[i + j] %= p
        return out


class ExtReference(Reference):
    def __init__(self, ring):
        super().__init__(ring)
        self.base = reference(ring.base)

    def mul_vec(self, a, b):
        base, m = self.base, self.m
        ab, bb = self._blocks(a), self._blocks(b)
        out = [base.zero.vec for _ in range(m)]
        rvec = self.r.vec
        for i in range(m):
            for j in range(m):
                prod = base.mul_vec(ab[i], bb[j])
                if i + j < m:
                    out[i + j] = base.add_vec(out[i + j], prod)
                else:
                    out[i + j - m] = base.add_vec(out[i + j - m], base.mul_vec(rvec, prod))
        return self._join(out)

    def _conv3(self, a, b, op):
        base, m, d = self.base, self.m, self.base.depth
        shape = op(a[0], b[0]).shape
        out = np.zeros((self.depth,) + shape, dtype=np.int64)
        for i in range(m):
            for j in range(m):
                prod = base._conv3(a[i * d:(i + 1) * d], b[j * d:(j + 1) * d], op)
                if i + j < m:
                    k = i + j
                    out[k * d:(k + 1) * d] += prod
                else:
                    k = i + j - m
                    out[k * d:(k + 1) * d] += _scale_stack(base, self.r.vec, prod)
        return self.mat_mod(out)


def _scale_stack(ring, svec, data):
    """Multiply a (depth, r, c) stack over `ring` by one ring scalar."""
    one = np.ones(data.shape[1:], dtype=np.int64)
    svec3 = np.stack([c * one for c in svec])
    return ring.mat_elemmul(svec3, data)


def reference(ring) -> Reference:
    return {"zmod": ModReference, "gf": ModReference, "trunc": TruncReference,
            "ext": ExtReference}[ring.kind](ring)


def reference_generator_product(ref, M, terms):
    """M (I + sum s A) for (SparseColumns A, RingElem s) in `terms`, as the
    update reduced M A, then s (M A), then the sum."""
    out = M.copy()
    for A, s in terms:
        svec = np.asarray(s.vec, dtype=np.int64)[:, None, None]
        sMA = ref.mat_elemmul(svec, ref.mat_mod(A.right_mul(M)))
        out[..., A.cols] = ref.mat_mod(out[..., A.cols] + sMA)
    return out


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


def stack(ring, shape, seed, extreme=False):
    """Canonical int64 stack of shape (depth,) + shape; all entries q - 1 when
    `extreme`, the largest residues the kernels multiply."""
    if extreme:
        return np.full((ring.depth,) + shape, ring.q - 1, dtype=np.int64)
    return np.random.default_rng(seed).integers(0, ring.q, (ring.depth,) + shape)


case = st.tuples(st.sampled_from(RINGS), st.integers(0, 2**32 - 1), st.booleans())
dims = st.tuples(st.integers(1, 7), st.integers(1, 7), st.integers(1, 7))


@settings(max_examples=150, deadline=None)
@given(case)
def test_mul_vec_matches_reference(args):
    desc, seed, extreme = args
    ring = make_ring(desc)
    a, b = (tuple(stack(ring, (), seed + i, extreme).tolist()) for i in range(2))
    assert ring.mul_vec(a, b) == reference(ring).mul_vec(a, b)


@settings(max_examples=100, deadline=None)
@given(case, dims)
def test_mat_mul_matches_reference(args, shape):
    desc, seed, extreme = args
    ring = make_ring(desc)
    r, c, c2 = shape
    a, b = stack(ring, (r, c), seed, extreme), stack(ring, (c, c2), seed + 1, extreme)
    assert np.array_equal(ring.mat_mul(a, b), reference(ring).mat_mul(a, b))


@settings(max_examples=100, deadline=None)
@given(case, dims, st.sampled_from(["full", "row", "column", "scalar"]))
def test_mat_elemmul_matches_reference(args, shape, right):
    # the right operand broadcasts as a diagonal, a row or column scaling or
    # one scalar does in `Mat`
    desc, seed, extreme = args
    ring = make_ring(desc)
    r, c, _ = shape
    bshape = {"full": (r, c), "row": (1, c), "column": (r, 1), "scalar": (1, 1)}[right]
    a, b = stack(ring, (r, c), seed, extreme), stack(ring, bshape, seed + 1, extreme)
    assert np.array_equal(ring.mat_elemmul(a, b), reference(ring).mat_elemmul(a, b))


products = st.tuples(st.sampled_from(["A2", "D4", "E6"]), st.sampled_from(RINGS),
                     st.integers(0, 2**32 - 1), st.integers(0, 10**9), st.booleans())


@settings(max_examples=60, deadline=None)
@given(products)
def test_generator_update_matches_reference(args):
    token, desc, seed, pick, extreme = args
    sys, ring = system(token), make_ring(desc)
    root = sys.roots[pick % len(sys.roots)]
    t = ring.elem(tuple(stack(ring, (), seed + 1, extreme).tolist()))
    M = stack(ring, (sys.n, sys.n), seed, extreme)
    X, X2 = ad_x_tables(sys, structure_constants(sys), root)
    want = reference_generator_product(reference(ring), M, ((X, t), (X2, t * t * ring.half)))
    got = Mat(ring, M, reduce=False) @ x_elem(sys, ring, root, t).mat
    assert np.array_equal(got.data, want)


@settings(max_examples=60, deadline=None)
@given(products)
def test_diagonal_product_matches_reference(args):
    token, desc, seed, _, extreme = args
    sys, ring = system(token), make_ring(desc)
    M = stack(ring, (sys.n, sys.n), seed, extreme)
    dvec = stack(ring, (1, sys.n), seed + 1, extreme)
    D = Mat.diagonal(ring, [ring.elem(tuple(dvec[:, 0, j].tolist())) for j in range(sys.n)])
    got = Mat(ring, M, reduce=False) @ D
    assert np.array_equal(got.data, reference(ring).mat_elemmul(M, dvec))


@pytest.mark.parametrize("desc", RINGS)
def test_mat_mod_reduces_negative_and_large_entries(desc):
    ring = make_ring(desc)
    x = np.random.default_rng(3).integers(-INT64_MAX // 2, INT64_MAX // 2, (ring.depth, 5, 7))
    x[:, 0, :3] = (-ring.q, -1, ring.q)
    assert np.array_equal(ring.mat_mod(x), np.vectorize(lambda v: int(v) % ring.q)(x))


# ---------------------------------------------------------------------------
# int64 bounds
# ---------------------------------------------------------------------------


def test_ring_too_deep_for_exact_products_is_refused():
    # depth * 248 * (q - 1)^2 passes 2^63 between depth 14 and 15 at BIG_PRIME
    assert 14 * MAX_DIM * (BIG_PRIME - 1) ** 2 < 2**63 < 15 * MAX_DIM * (BIG_PRIME - 1) ** 2
    assert make_ring(f"trunc:{BIG_PRIME}:14").depth == 14
    for desc in (f"trunc:{BIG_PRIME}:15", f"ext:trunc:{BIG_PRIME}:5:2:3"):
        with pytest.raises(RingError, match="overflow int64"):
            make_ring(desc)


def test_mat_mul_refuses_an_inner_dimension_past_the_bound():
    ring = make_ring(f"gf:{BIG_PRIME}")
    n = INT64_MAX // (BIG_PRIME - 1) ** 2   # the largest exact inner dimension
    a = np.zeros((1, 1, n + 1), dtype=np.int64)
    b = np.zeros((1, n + 1, 1), dtype=np.int64)
    with pytest.raises(RingError, match="overflow int64"):
        ring.mat_mul(a, b)
    assert ring.mat_mul(a[..., :n], b[:, :n]).shape == (1, 1, 1)


def test_generator_update_refuses_a_table_past_the_bound():
    ring = make_ring(f"gf:{BIG_PRIME}")
    K = INT64_MAX // (BIG_PRIME - 1) ** 2 + 1
    M = Mat.identity(ring, 2)
    with pytest.raises(RingError, match="overflow int64"):
        Mat.unipotent(ring, 2, ((SparseColumns(2, [(0, 1, K)]), ring.one),))
    split = SparseColumns(2, [(0, 1, K // 2)])
    assert split.col_bound == K // 2
    assert (M @ Mat.unipotent(ring, 2, ((split, ring.one),))).get(1, 0) == ring.from_int(K // 2)


def test_col_bound_is_the_largest_column_sum_of_absolute_coefficients():
    table = SparseColumns(4, [(0, 1, 2), (0, 2, -3), (1, 3, 4), (2, 0, 0)])
    assert table.col_bound == 5
    for token in ("A2", "E7"):
        sys = system(token)
        for r in sys.roots[:5]:
            for A in ad_x_tables(sys, structure_constants(sys), r):
                assert A.col_bound == np.abs(A.dense()).sum(axis=0).max()
