"""Structured products must equal the dense ring kernel exactly.

`Mat.__matmul__` applies a right operand built by `x_elem` as a sparse column
update and one built by `Mat.diagonal` as a column scaling; two diagonals
multiply entrywise, and a diagonal on the left of any other matrix is a
dense operand.  Here each is
compared with `Ring.mat_mul` on the same data, for every ring kind, including
a prime modulus at the top of the int64-exact range.  A generator or a
diagonal forms its dense matrix only when it is read; that matrix is checked
against the dense scatter its constructor used to build.  The generator
update, which works on the column-major buffer M^T, is checked against the
row-major update it replaced, kept here verbatim.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chevalley import rings
from chevalley.decompose import compose, recover
from chevalley.group import _off_identity, x_elem
from chevalley.lie import SparseColumns, ad_x, ad_x_squared, ad_x_tables, structure_constants
from chevalley.matrices import Mat
from chevalley.rings import _MAX_MODULUS, RingError, _is_prime, make_ring
from chevalley.roots import neg, system
from chevalley.suites import random_factored
from test_ring_kernels import reference_right_mul

# the largest prime the int64 bound n * (q - 1)^2 < 2^63 admits for n <= 248
BIG_PRIME = max(p for p in range(_MAX_MODULUS - 100, _MAX_MODULUS + 1) if _is_prime(p))
RINGS = ["zmod:3^3", "gf:7", "trunc:3:3", "ext:zmod:5^2:2:3", "ext:trunc:3:2:1,1:2",
         f"gf:{BIG_PRIME}"]
SYSTEMS = ["A2", "D4", "E6"]


def random_mat(ring, n, seed) -> Mat:
    gen = np.random.default_rng(seed)
    data = np.stack([gen.integers(0, ring.q, (n, n)) for _ in range(ring.depth)])
    return Mat(ring, data, reduce=False)


def random_diagonal_elems(ring, n, seed):
    """The diagonal entries of a random matrix, as ring elements."""
    M = random_mat(ring, n, seed)
    return [M.get(i, i) for i in range(n)]


def dense(M: Mat, X: Mat) -> Mat:
    return Mat(M.ring, M.ring.mat_mul(M.data, X.data))


case = st.tuples(st.sampled_from(SYSTEMS), st.sampled_from(RINGS),
                 st.integers(0, 2**32 - 1), st.integers(0, 10**9))


@settings(max_examples=40, deadline=None)
@given(case)
def test_generator_product_equals_dense(args):
    token, desc, seed, pick = args
    sys, ring = system(token), make_ring(desc)
    root = sys.roots[pick % len(sys.roots)]
    t = random_mat(ring, 1, seed + 1).get(0, 0)
    M = random_mat(ring, sys.n, seed)
    X = x_elem(sys, ring, root, t).mat
    assert X.factor is not None
    P = M @ X
    assert P == dense(M, X)
    assert P.factor is None


@settings(max_examples=40, deadline=None)
@given(case)
def test_diagonal_product_equals_dense(args):
    token, desc, seed, _ = args
    sys, ring = system(token), make_ring(desc)
    D = Mat.diagonal(ring, [e.vec for e in random_diagonal_elems(ring, sys.n, seed + 1)])
    M = random_mat(ring, sys.n, seed)
    assert D.factor is not None
    assert M @ D == dense(M, D)


@pytest.mark.parametrize("desc", RINGS[:5])
@pytest.mark.parametrize("token", SYSTEMS)
def test_row_stack_products_are_rows_of_square_products(token, desc):
    # rows of M, as a left operand, times a generator, a diagonal or a dense
    # matrix: those rows of the square product, by the same kernels
    sys, ring = system(token), make_ring(desc)
    M, B = random_mat(ring, sys.n, 61), random_mat(ring, sys.n, 62)
    t = random_mat(ring, 1, 63).get(0, 0)
    D = Mat.diagonal(ring, [e.vec for e in random_diagonal_elems(ring, sys.n, 64)])
    for rows in ([0, 2, sys.n - 1], [sys.n - 1, 1, 1]):
        R = Mat(ring, M.data[:, rows], reduce=False)
        assert R.n == sys.n
        for root in (sys.roots[0], sys.maximal, neg(sys.maximal)):
            X = x_elem(sys, ring, root, t).mat
            assert np.array_equal((R @ X).data, (M @ X).data[:, rows])
        for right in (D, B):
            assert np.array_equal((R @ right).data, (M @ right).data[:, rows])
        # a row stack is a left operand only
        with pytest.raises(RingError):
            B @ R


@pytest.mark.parametrize("desc", RINGS)
def test_extreme_entries_stay_exact(desc):
    # every entry q - 1 and t = -1: the largest int64 intermediates the
    # structured path forms
    sys, ring = system("E6"), make_ring(desc)
    M = Mat(ring, np.stack([np.full((sys.n, sys.n), ring.q - 1) for _ in range(ring.depth)]), reduce=False)
    minus_one = -ring.one
    for root in (sys.maximal, sys.simple[0], tuple(-c for c in sys.maximal)):
        X = x_elem(sys, ring, root, minus_one).mat
        assert M @ X == dense(M, X)
    D = Mat.diagonal(ring, [minus_one.vec] * sys.n)
    assert M @ D == dense(M, D)


@pytest.mark.parametrize("token", SYSTEMS + ["E7"])
def test_sparse_square_equals_dense_square(token):
    sys = system(token)
    N = structure_constants(sys)
    for r in sys.roots:
        X = ad_x(sys, N, r)
        assert np.array_equal(ad_x_squared(sys, N, r), X @ X)
        table, _ = ad_x_tables(sys, N, r)
        assert np.array_equal(table.dense(), X)


def test_size_mismatch_raises():
    ring = make_ring("zmod:3^3")
    a2, d4 = system("A2"), system("D4")
    M = random_mat(ring, d4.n, 0)
    with pytest.raises(RingError):
        M @ x_elem(a2, ring, a2.maximal, ring.one).mat
    with pytest.raises(RingError):
        M @ Mat.diagonal(ring, [ring.one.vec] * a2.n)
    with pytest.raises(RingError):
        M @ Mat.identity(ring, a2.n)
    table, _ = ad_x_tables(a2, structure_constants(a2), a2.maximal)
    with pytest.raises(RingError):
        Mat.unipotent(ring, d4.n, ((table, ring.one),))
    with pytest.raises(ValueError):
        table.right_mul_t(M.data)


def test_ring_mismatch_raises():
    sys = system("A2")
    M = random_mat(make_ring("zmod:3^3"), sys.n, 0)
    with pytest.raises(RingError):
        M @ x_elem(sys, make_ring("gf:3"), sys.maximal, make_ring("gf:3").one).mat


def test_only_generator_and_diagonal_constructors_carry_a_factor():
    sys, ring = system("A2"), make_ring("trunc:3:3")
    X = x_elem(sys, ring, sys.maximal, ring.one).mat
    D = Mat.diagonal(ring, [ring.one.vec] * sys.n)
    for M in (X @ X, Mat(ring, X.data + D.data), X.with_entry(0, 0, ring.one), Mat.from_json(ring, X.to_json()),
              Mat.identity(ring, sys.n)):
        assert M.factor is None


def test_sparse_columns_of_zero_matrix():
    table = SparseColumns(4, [(1, 2, 0)])
    assert table.right_mul_t(np.ones((2, 4, 3), dtype=np.int64)).shape == (2, 0, 3)


def reference_unipotent_data(ring, n, terms):
    """The deleted dense scatter of `Mat.unipotent`, verbatim: I + sum s * A
    for the (SparseColumns A, ring element s) in `terms`."""
    data = np.zeros((ring.depth, n, n), dtype=np.int64)
    np.fill_diagonal(data[0], 1)
    for A, s in terms:
        svec = np.asarray(s.vec, dtype=np.int64)
        # (dst, src) pairs are distinct within one table, so each cell is
        # read and written once per term
        cells = (slice(None), A.dst, A.src)
        data[cells] = ring.mat_mod(data[cells] + svec[:, None] * A.coeff)
    return data


GENERATOR_RINGS = ["zmod:3^3", "gf:7", "trunc:3:3", "ext:zmod:5^2:2:3", "ext:trunc:3:2:1,1:2"]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SYSTEMS), st.sampled_from(GENERATOR_RINGS), st.integers(0, 2**32 - 1),
       st.integers(0, 10**9))
def test_lazy_generator_data_equals_dense_scatter(token, desc, seed, pick):
    sys, ring = system(token), make_ring(desc)
    root = sys.roots[pick % len(sys.roots)]
    t = random_mat(ring, 1, seed).get(0, 0)
    N = structure_constants(sys)
    # the series' X^2 / 2 term, with X^2 rebuilt from its dense matrix, so the
    # half-square table H of ad_x_tables is checked independently
    X2 = ad_x_squared(sys, N, root)
    dst, src = np.nonzero(X2)
    X2 = SparseColumns(sys.n, zip(src.tolist(), dst.tolist(), X2[dst, src].tolist()))
    want = reference_unipotent_data(ring, sys.n, ((ad_x_tables(sys, N, root)[0], t), (X2, t * t * ring.from_int(2).inv())))
    assert np.array_equal(x_elem(sys, ring, root, t).mat.data, want)


def test_generator_data_is_built_once_and_read_only():
    sys, ring = system("A2"), make_ring("trunc:3:3")
    X = x_elem(sys, ring, sys.maximal, ring.one).mat
    assert X._data is None
    data = X.data
    assert X.data is data
    assert not data.flags.writeable
    with pytest.raises(ValueError):
        data[0, 0, 0] = 2


def test_generators_used_as_right_factors_are_never_made_dense(monkeypatch):
    built = []
    unipotent = Mat.unipotent.__func__

    def recording(cls, ring, n, terms):
        M = unipotent(cls, ring, n, terms)
        built.append(M)
        return M

    monkeypatch.setattr(Mat, "unipotent", classmethod(recording))
    sys, ring = system("D4"), make_ring("trunc:3:3")
    random_mat(ring, sys.n, 0) @ x_elem(sys, ring, sys.maximal, ring.one).mat
    f = random_factored(sys, ring, random.Random(0))
    g = compose(sys, f)
    assert recover(sys, g) == f
    # one for the product, 2m for compose, 2m for its exactness check in
    # recover and 2m per recovery sweep after the first, which reads the input
    assert len(built) > 1 + 4 * sys.m
    assert all(M._data is None for M in built)


def reference_unipotent_right(ring, M, update):
    """`matrices._unipotent_right` before it worked on the column-major
    buffer M^T, verbatim: the row-major block update of M (I + sum s A)."""
    cols, parts = update
    block = M[..., cols]
    for A, pos, Ts in parts:
        block[..., pos] += np.einsum("ki,inc->knc", Ts, reference_right_mul(A, M))
    out = M.copy()
    out[..., cols] = ring.mat_mod(block)
    return out


def reference_update(ring, sys, root, t):
    """The update the reference reads for x_root(t): the sorted union of the
    columns of ad x_root and of its half square, each table's positions in
    it, and the (depth, depth) regular representations T_s of t and t^2."""
    terms = tuple(zip(ad_x_tables(sys, structure_constants(sys), root), (t, t * t)))
    cols = sorted(set().union(*(A.cols.tolist() for A, _ in terms)))
    at = {c: i for i, c in enumerate(cols)}
    parts = tuple((A, np.array([at[c] for c in A.cols.tolist()]), np.array(ring.regular_rows(s.vec)))
                  for A, s in terms)
    return np.array(cols), parts


def column_major(data):
    """The same stack with each matrix stored column by column."""
    return np.ascontiguousarray(data.transpose(0, 2, 1)).transpose(0, 2, 1)


@pytest.mark.parametrize("desc", GENERATOR_RINGS)
@pytest.mark.parametrize("token", SYSTEMS)
def test_column_major_kernel_equals_row_major_reference(token, desc):
    # square matrices and row stacks, stored by rows or by columns, times one
    # generator and times a chain of compose's 2m generators; every result is
    # read-only, and feeds the next product as it is
    sys, ring = system(token), make_ring(desc)
    rng = random.Random(73)
    M = random_mat(ring, sys.n, 71).data
    lefts = [M, column_major(M)]
    for rows in ([0, 2, sys.n - 1], [sys.n - 1, 1, 1]):
        lefts += [np.ascontiguousarray(M[:, rows]), column_major(M[:, rows])]
    assert lefts[1].transpose(0, 2, 1).flags.c_contiguous and not lefts[1].flags.c_contiguous
    for root in (sys.roots[0], sys.maximal, neg(sys.maximal), rng.choice(sys.roots)):
        t = ring.random_element(rng)
        X = x_elem(sys, ring, root, t).mat
        for left in lefts:
            got = (Mat(ring, left, reduce=False) @ X).data
            assert np.array_equal(got, reference_unipotent_right(ring, left, reference_update(ring, sys, root, t)))
            assert not got.flags.writeable
        for A in ad_x_tables(sys, structure_constants(sys), root):
            assert np.array_equal(A.right_mul_t(M.transpose(0, 2, 1)), reference_right_mul(A, M).transpose(0, 2, 1))
    word = [(r, ring.random_element(rng)) for r in sys.positive + tuple(neg(p) for p in sys.positive)]
    assert len(word) == 2 * sys.m
    for left in (M, lefts[2], Mat.identity(ring, sys.n).data, Mat.identity(ring, sys.n, [1, 0]).data):
        got, want = Mat(ring, left, reduce=False), left
        for root, t in word:
            got = got @ x_elem(sys, ring, root, t).mat
            want = reference_unipotent_right(ring, want, reference_update(ring, sys, root, t))
            assert not got.data.flags.writeable
        assert np.array_equal(got.data, want)
    # a row stack is still a left operand only, whatever is on its left
    R = Mat(ring, lefts[3], reduce=False)
    with pytest.raises(RingError):
        x_elem(sys, ring, sys.maximal, ring.one).mat @ R


def test_oversized_ring_is_refused_before_any_array(monkeypatch):
    # a ring too deep for its multiplication tensor never reaches numpy
    class NoArrays:
        def __getattr__(self, name):
            raise AssertionError(f"np.{name} reached")

    monkeypatch.setattr(rings, "np", NoArrays())
    with pytest.raises(RingError, match="at most"):
        make_ring("trunc:3:100000")


def reference_diagonal_data(ring, elems):
    """The deleted eager scatter of `Mat.diagonal`, verbatim."""
    dvec = np.array([e.vec for e in elems], dtype=np.int64).T
    n = dvec.shape[1]
    data = np.zeros((ring.depth, n, n), dtype=np.int64)
    data[:, np.arange(n), np.arange(n)] = dvec
    return data


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SYSTEMS), st.sampled_from(GENERATOR_RINGS), st.integers(0, 2**32 - 1))
def test_lazy_diagonal_data_equals_dense_scatter(token, desc, seed):
    sys, ring = system(token), make_ring(desc)
    elems = random_diagonal_elems(ring, sys.n, seed)
    D = Mat.diagonal(ring, [e.vec for e in elems])
    pi, m = D.monomial()
    assert D._data is None
    assert np.array_equal(pi, np.arange(sys.n)) and np.array_equal(m, np.array([x.vec for x in elems]).T)
    data = D.data
    assert np.array_equal(data, reference_diagonal_data(ring, elems))
    assert D.data is data
    assert not data.flags.writeable
    with pytest.raises(ValueError):
        data[0, 0, 0] = 1


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SYSTEMS), st.sampled_from(GENERATOR_RINGS), st.integers(0, 2**32 - 1),
       st.integers(0, 10**9))
def test_diagonal_on_the_left_equals_dense(token, desc, seed, pick):
    sys, ring = system(token), make_ring(desc)
    d, e = random_diagonal_elems(ring, sys.n, seed), random_diagonal_elems(ring, sys.n, seed + 1)
    ref = reference_diagonal_data(ring, d)
    D, E = Mat.diagonal(ring, [x.vec for x in d]), Mat.diagonal(ring, [x.vec for x in e])
    M = random_mat(ring, sys.n, seed + 2)
    X = x_elem(sys, ring, sys.roots[pick % len(sys.roots)], random_mat(ring, 1, seed + 3).get(0, 0)).mat

    DE = D @ E
    assert DE.factor[0] == "diag" and DE._data is None
    assert DE == Mat(ring, ring.mat_mul(ref, reference_diagonal_data(ring, e)))
    assert D @ M == Mat(ring, ring.mat_mul(ref, M.data))
    assert D @ X == Mat(ring, ring.mat_mul(ref, X.data))


@settings(max_examples=40, deadline=None)
@given(case)
def test_off_identity_is_the_support_of_x_minus_identity(args):
    # the entries `conjugation_holds` reads from the tables of ad x_r and
    # its square, for two roots side by side, against the dense x_r(t) - I,
    # for two parameter lists
    token, desc, seed, pick = args
    sys, ring = system(token), make_ring(desc)
    roots = [sys.roots[pick % len(sys.roots)], sys.roots[(pick // 7) % len(sys.roots)]]
    params = [[random_mat(ring, 1, seed + 2 * i + j).get(0, 0) for j in range(2)] for i in range(2)]
    for ts in params:
        ids, rows, cols, vals = _off_identity(sys, ring, roots, ts)
        assert len(ids) == len(rows) == len(cols) == vals.shape[1] and vals.any(axis=0).all()
        for j, root in enumerate(roots):
            part = ids == j
            rest = ring.mat_mod(x_elem(sys, ring, root, ts[j]).mat.data - Mat.identity(ring, sys.n).data)
            assert np.array_equal(rest[:, rows[part], cols[part]], vals[:, part])
            rest[:, rows[part], cols[part]] = 0
            assert not rest.any()
    # a generator with a unit t has columns of two nonzero entries
    with pytest.raises(RingError, match="not monomial"):
        x_elem(sys, ring, roots[0], ring.one).mat.monomial()
