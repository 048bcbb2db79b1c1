"""The tensor kernels of `chevalley.rings` against frozen per-kind references.

Every ring kind now multiplies through its multiplication tensor: one generic
`mul_vec`, `mat_mul` and `mat_elemmul` on `Ring`, and one fused column update
per generator term in `Mat.__matmul__`.  Every element inverse is one
elimination over Z/q, `solve_mod`, behind the generic `Ring.inv_vec`.  The
references below are the per-kind kernels these replaced, kept verbatim:
`ModRing._conv3` and `inv_vec`, `TruncRing._conv3`, `mul_vec` and `inv_vec`,
`ExtRing._conv3`, `mul_vec`, `_blocks`, `is_unit_vec` and `inv_vec`,
`_scale_stack`, the slotwise `Ring.mat_mod`, `Ring.solve` on ring-valued
tuples, and the generator update that reduced three times per term and
wrote each term back on its own, where `Mat` now updates one block of
columns per generator.  Only `self` became the reference object that wraps a
ring.  Also here: the int64 bounds the kernels rely on.
"""

import random
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chevalley.group import x_elem
from chevalley.lie import SparseColumns, ad_x_squared, ad_x_tables, structure_constants
from chevalley.matrices import Mat
from chevalley.rings import _MAX_MODULUS, INT64_MAX, MAX_DIM, RingError, _is_prime, make_ring, solve_mod
from chevalley.roots import system

BIG_PRIME = max(p for p in range(_MAX_MODULUS - 100, _MAX_MODULUS + 1) if _is_prime(p))
RINGS = ["zmod:3^3", "gf:7", "trunc:3:3", "ext:zmod:5^2:2:3", "ext:trunc:3:2:1,1:2",
         f"gf:{BIG_PRIME}"]
INVERSE_RINGS = RINGS[:5]


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

    def solve(self, A, B):
        """X with A X = B, by Gauss-Jordan elimination on unit pivots.

        A is n x n and B is n x k, both lists of rows of canonical vectors.
        Over a local ring this succeeds exactly when A is invertible; a column
        with no unit on or below the diagonal raises RingError.
        """
        n = len(A)
        mul, add, zero = self.mul_vec, self.add_vec, self.zero.vec
        rows = [list(a) + list(b) for a, b in zip(A, B)]
        width = len(rows[0])
        for c in range(n):
            piv = next((r for r in range(c, n) if self.is_unit_vec(rows[r][c])), None)
            if piv is None:
                raise RingError(f"no unit pivot in column {c} over {self.descriptor}")
            rows[c], rows[piv] = rows[piv], rows[c]
            top = rows[c]
            # columns up to c are final: only columns beyond c are updated
            f = self.inv_vec(top[c])
            for j in range(c + 1, width):
                if top[j] != zero:
                    top[j] = mul(f, top[j])
            for r, row in enumerate(rows):
                if r != c and row[c] != zero:
                    g = self.neg_vec(row[c])
                    for j in range(c + 1, width):
                        if top[j] != zero:
                            row[j] = add(row[j], mul(g, top[j]))
        return [row[n:] for row in rows]


class ModReference(Reference):
    def mul_vec(self, a, b):
        return (a[0] * b[0] % self.q,)

    def inv_vec(self, a):
        if a[0] % self.p == 0:
            raise RingError(f"{a[0]} is not a unit in {self.descriptor}")
        return (pow(a[0], -1, self.q),)

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

    def inv_vec(self, a):
        if a[0] % self.p == 0:
            raise RingError(f"{a} is not a unit in {self.descriptor}")
        p, k = self.p, self.k
        b = [pow(a[0], -1, p)] + [0] * (k - 1)
        for d in range(1, k):
            acc = sum(a[i] * b[d - i] for i in range(1, d + 1)) % p
            b[d] = (-b[0] * acc) % p
        return tuple(b)


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

    def _blocks(self, a):
        d = self.base.depth
        return [a[i * d:(i + 1) * d] for i in range(self.m)]

    def is_unit_vec(self, a):
        try:
            self.inv_vec(a)
            return True
        except RingError:
            return False

    def inv_vec(self, a):
        # a x = 1 is m linear equations over the base: column J of the matrix
        # of multiplication by a holds the blocks of a y^J
        base, y = self.base, self.gen.vec
        cols, col = [], a
        for _ in range(self.m):
            cols.append(self._blocks(col))
            col = self.mul_vec(col, y)
        A = [list(row) for row in zip(*cols)]
        rhs = [[base.one.vec]] + [[base.zero.vec]] * (self.m - 1)
        try:
            x = base.solve(A, rhs)
        except RingError:
            raise RingError("not a unit in the extension ring") from None
        return self._join(row[0] for row in x)


def _scale_stack(ring, svec, data):
    """Multiply a (depth, r, c) stack over `ring` by one ring scalar."""
    one = np.ones(data.shape[1:], dtype=np.int64)
    svec3 = np.stack([c * one for c in svec])
    return ring.mat_elemmul(svec3, data)


def reference(ring) -> Reference:
    return {"zmod": ModReference, "gf": ModReference, "trunc": TruncReference,
            "ext": ExtReference}[ring.kind](ring)


def sparse_table(A):
    """The SparseColumns of a dense integer matrix."""
    dst, src = np.nonzero(A)
    return SparseColumns(len(A), zip(src.tolist(), dst.tolist(), A[dst, src].tolist()))


def reference_right_mul(A, M):
    """The deleted `SparseColumns.right_mul`, verbatim: columns `cols` of
    M @ A over the last two axes of M, as exact unreduced integers."""
    if M.shape[-1] != A.n:
        raise ValueError(f"matrix with {M.shape[-1]} columns times a sparse {A.n} x {A.n} table")
    out = M[..., A.lead_dst] * A.lead_coeff
    if len(A.extra_dst):
        out[..., A.folded] += M[..., A.extra_dst] @ A.fold
    return out


def reference_generator_product(ref, M, terms):
    """M (I + sum s A) for (SparseColumns A, RingElem s) in `terms`, as the
    update reduced M A, then s (M A), then the sum."""
    out = M.copy()
    for A, s in terms:
        svec = np.asarray(s.vec, dtype=np.int64)[:, None, None]
        sMA = ref.mat_elemmul(svec, ref.mat_mod(reference_right_mul(A, M)))
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
    N = structure_constants(sys)
    # the series' X^2 / 2 term, with X^2 rebuilt from its dense matrix, so the
    # half-square table H of ad_x_tables is checked independently
    X, X2 = ad_x_tables(sys, N, root)[0], sparse_table(ad_x_squared(sys, N, root))
    want = reference_generator_product(reference(ring), M, ((X, t), (X2, t * t * ring.from_int(2).inv())))
    got = Mat(ring, M, reduce=False) @ x_elem(sys, ring, root, t).mat
    assert np.array_equal(got.data, want)


# two or three tables on 8 columns, several entries per column (the fold of
# `SparseColumns.right_mul_t`) and columns that overlap partly or not at all
small_tables = st.lists(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(-4, 4)),
                                 min_size=1, max_size=14), min_size=2, max_size=3)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(RINGS[:5]), small_tables, st.integers(0, 2**32 - 1), st.booleans())
def test_block_update_matches_per_term_reference(desc, entry_lists, seed, extreme):
    ring = make_ring(desc)
    terms = []
    for i, entries in enumerate(entry_lists):
        # distinct (src, dst) within one table
        table = SparseColumns(8, list({(s, d): (s, d, c) for s, d, c in entries}.values()))
        terms.append((table, ring.elem(tuple(stack(ring, (), seed + 1 + i, extreme).tolist()))))
    M = stack(ring, (8, 8), seed, extreme)
    want = reference_generator_product(reference(ring), M, terms)
    X = Mat.unipotent(ring, 8, terms)
    assert np.array_equal((Mat(ring, M, reduce=False) @ X).data, want)
    eye = Mat.identity(ring, 8).data
    assert np.array_equal(X.data, reference_generator_product(reference(ring), eye, terms))


@pytest.mark.parametrize("desc", RINGS[:5])
def test_block_update_of_partly_overlapping_columns(desc):
    # columns {0, 2, 5} and {2, 3, 5, 7}; column 5 of the first holds two
    # entries, and a third table covers exactly the first's columns
    ring = make_ring(desc)
    A = SparseColumns(8, [(0, 1, 2), (2, 4, -1), (5, 6, 3), (5, 0, -2)])
    B = SparseColumns(8, [(2, 2, 1), (3, 5, -3), (5, 5, 4), (7, 1, 1)])
    C = SparseColumns(8, [(0, 7, 1), (2, 3, 2), (5, 4, -1)])
    for terms in (((A, ring.from_int(5)), (B, -ring.one)), ((B, ring.one), (A, ring.from_int(2))),
                  ((A, ring.one), (C, ring.from_int(3)), (B, ring.from_int(4)))):
        X = Mat.unipotent(ring, 8, terms)
        cols, parts = X.factor[1]
        assert cols.tolist() == sorted(set().union(*(table.cols.tolist() for table, _ in terms)))
        for table, pos, _ in parts:
            assert cols[pos].tolist() == table.cols.tolist()
        for seed, extreme in ((0, False), (1, True)):
            M = stack(ring, (8, 8), seed, extreme)
            want = reference_generator_product(reference(ring), M, terms)
            assert np.array_equal((Mat(ring, M, reduce=False) @ X).data, want)


@settings(max_examples=60, deadline=None)
@given(products)
def test_diagonal_product_matches_reference(args):
    token, desc, seed, _, extreme = args
    sys, ring = system(token), make_ring(desc)
    M = stack(ring, (sys.n, sys.n), seed, extreme)
    dvec = stack(ring, (1, sys.n), seed + 1, extreme)
    D = Mat.diagonal(ring, [tuple(dvec[:, 0, j].tolist()) for j in range(sys.n)])
    got = Mat(ring, M, reduce=False) @ D
    assert np.array_equal(got.data, reference(ring).mat_elemmul(M, dvec))


@pytest.mark.parametrize("desc", RINGS)
def test_mat_mod_reduces_negative_and_large_entries(desc):
    ring = make_ring(desc)
    x = np.random.default_rng(3).integers(-INT64_MAX // 2, INT64_MAX // 2, (ring.depth, 5, 7))
    x[:, 0, :3] = (-ring.q, -1, ring.q)
    assert np.array_equal(ring.mat_mod(x), np.vectorize(lambda v: int(v) % ring.q)(x))


# ---------------------------------------------------------------------------
# inverses
# ---------------------------------------------------------------------------


def leibniz_terms(n):
    """(sign, permutation) for every term of an n x n determinant."""
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        yield (-1) ** inversions, perm


@settings(max_examples=150, deadline=None)
@given(case)
def test_regular_rows_match_regular(args):
    # the Python rows `inv_vec` solves and `Mat.unipotent` turns into T_s
    desc, seed, extreme = args
    ring = make_ring(desc)
    a = stack(ring, (), seed, extreme)
    assert np.array_equal(np.array(ring.regular_rows(tuple(a.tolist())), dtype=np.int64), ring.regular(a))


inverse_case = st.tuples(st.sampled_from(INVERSE_RINGS), st.integers(0, 2**32 - 1), st.booleans())


@settings(max_examples=200, deadline=None)
@given(inverse_case, st.booleans())
def test_inv_vec_matches_reference(args, scalar):
    # a scalar of Z/q (zero beyond slot 0) takes the shortcut past solve_mod
    desc, seed, extreme = args
    ring = make_ring(desc)
    a = tuple(stack(ring, (), seed, extreme).tolist())
    if scalar:
        a = a[:1] + (0,) * (ring.depth - 1)
    try:
        want = reference(ring).inv_vec(a)
    except RingError:
        assert not ring.is_unit_vec(a)
        with pytest.raises(RingError):
            ring.inv_vec(a)
    else:
        assert ring.is_unit_vec(a)
        assert ring.inv_vec(a) == want


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5), st.integers(0, 3), st.sampled_from([(3, 1), (3, 3), (5, 2), (7, 1)]),
       st.integers(0, 2**32 - 1))
def test_solve_mod_solves_or_refuses_a_singular_system(n, k, pq, seed):
    p, e = pq
    q, rng = p**e, random.Random(seed)
    A = [[rng.randrange(-q, 2 * q) for _ in range(n)] for _ in range(n)]
    B = [[rng.randrange(q) for _ in range(k)] for _ in range(n)]
    # Z/q is local, so A is invertible iff its determinant is prime to p
    det = 0
    for sign, perm in leibniz_terms(n):
        term = sign
        for i, j in enumerate(perm):
            term *= A[i][j]
        det += term
    try:
        X = solve_mod(A, B, q, p)
    except RingError:
        assert det % p == 0
        return
    assert det % p
    for i in range(n):
        for j in range(k):
            assert sum(A[i][t] * X[t][j] for t in range(n)) % q == B[i][j] % q


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


def test_block_update_bounds_the_sum_of_its_terms():
    # one block sums every term, so the bound is on sum(col_bound): two
    # tables that each pass alone are refused together, and two that sum to
    # the largest exact bound stay exact on the largest entries
    ring = make_ring(f"gf:{BIG_PRIME}")
    K = INT64_MAX // (BIG_PRIME - 1) ** 2 + 1
    c = K // 2 + 1
    A, B = SparseColumns(2, [(0, 1, c)]), SparseColumns(2, [(0, 0, c)])
    for table in (A, B):
        Mat.unipotent(ring, 2, ((table, ring.one),))
    with pytest.raises(RingError, match="overflow int64"):
        Mat.unipotent(ring, 2, ((A, ring.one), (B, ring.one)))
    c = (K - 1) // 2
    terms = ((SparseColumns(2, [(0, 1, c)]), -ring.one), (SparseColumns(2, [(0, 0, c)]), -ring.one))
    M = stack(ring, (2, 2), 0, extreme=True)
    want = reference_generator_product(reference(ring), M, terms)
    assert np.array_equal((Mat(ring, M, reduce=False) @ Mat.unipotent(ring, 2, terms)).data, want)


def test_col_bound_is_the_largest_column_sum_of_absolute_coefficients():
    table = SparseColumns(4, [(0, 1, 2), (0, 2, -3), (1, 3, 4), (2, 0, 0)])
    assert table.col_bound == 5
    for token in ("A2", "E7"):
        sys = system(token)
        for r in sys.roots[:5]:
            for A in ad_x_tables(sys, structure_constants(sys), r):
                assert A.col_bound == np.abs(A.dense()).sum(axis=0).max()
