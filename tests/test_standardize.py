import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chevalley import group, standardize
from chevalley.decompose import RecoveryError, _solve_cells, compose, designated_positions
from chevalley.group import GroupElement, congruence_member, graph_matrix, word_to_json, word_to_matrix, x_elem
from chevalley.lie import SparseColumns, ad_x, ad_x_tables, structure_constants, t_matrix
from chevalley.matrices import Mat
from chevalley.rings import RingError, make_ring
from chevalley.roots import neg, system
from chevalley.standardize import (
    Certificate,
    build_commutation_system,
    build_linearized_system,
    kernel_dimension,
    rank_mod_p,
    standardness_certificate,
)
from chevalley.suites import eq3_element, random_factored

A2 = system("A2")
Z27 = make_ring("zmod:3^3")


def gauge_reference(sys, C):
    """(D, C') with D in normal form, C' = D^-1 C and C' matching the
    identity at every designated cell: the cells are solved as in `recover`,
    without its check that D = C, C' is formed in full once, as the matrix
    of D's inverse word times C, and RecoveryError is raised when its
    designated cells do not match the identity.  The reference for the
    certificate, which decides by D == C' without forming C'."""
    D = compose(sys, _solve_cells(sys, C.mat))
    resid = D.inverse().mat @ C.mat
    for c in designated_positions(sys).cells:
        if resid.get(c.row, c.col) != (1 if c.kind == "diag" else 0):
            raise RecoveryError("cannot gauge: a designated cell of D^-1 C is not the identity's")
    return D, GroupElement(sys, C.ring, resid, None)


def conjugation_defect(sys, C, alpha):
    """g_a with C x_a(1) C^{-1} = x_a(1) g_a, and whether g_a = I mod radical."""
    xa = x_elem(sys, C.ring, tuple(alpha), C.ring.one)
    g = xa.inverse() @ C @ xa @ C.inverse()
    return g, congruence_member(g)


def coo(M):
    """Integer COO (3, nnz) of a dense matrix: row, column, value."""
    i, j = np.nonzero(M)
    return np.array([i, j, M[i, j]], dtype=np.int64).reshape(3, -1)


def dense(lin):
    A = np.zeros((lin.equations, lin.unknowns), dtype=np.int64)
    A[lin.matrix[0], lin.matrix[1]] = lin.matrix[2]
    return A


def assert_canonical(lin):
    rows, cols, vals = lin.matrix
    assert lin.matrix.dtype == np.int64 and lin.matrix.shape[0] == 3
    key = rows * lin.unknowns + cols
    assert (np.diff(key) > 0).all()  # sorted by (row, column), no duplicates
    assert ((vals >= 1) & (vals < lin.p)).all()
    assert ((rows >= 0) & (rows < lin.equations)).all() and ((cols >= 0) & (cols < lin.unknowns)).all()


def dense_rank_mod_p(matrix, p):
    """Row-echelon rank over F_p of a dense int64 array; the first nonzero
    at or below the current row pivots.  Reference for the sparse rank."""
    A = (matrix % p).astype(np.int64, copy=True)
    rows, cols = A.shape
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if A[i, c]:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            A[[r, piv]] = A[[piv, r]]
        A[r] = A[r] * pow(int(A[r, c]), -1, p) % p
        colv = A[r + 1:, c]
        mask = colv != 0
        if mask.any():
            A[r + 1:][mask] = (A[r + 1:][mask] - np.outer(colv[mask], A[r])) % p
        r += 1
        if r == rows:
            break
    return r


def echelon_rank_mod_p(matrix, p):
    """The sparse dict echelon alone, without the singleton peel: the rank
    `rank_mod_p` gave before it peeled.  Reference for the peeled rank."""
    rows, cols, vals = standardize._coo(*np.asarray(matrix, dtype=np.int64), p)
    bounds = [0, *(np.flatnonzero(np.diff(rows)) + 1).tolist(), len(rows)]
    cols, vals = cols.tolist(), vals.tolist()
    full = len(set(cols))
    pivots = {}
    for s, e in zip(bounds, bounds[1:]):
        if len(pivots) == full:
            break
        row = dict(zip(cols[s:e], vals[s:e]))
        while row:
            lead = min(row)
            piv = pivots.get(lead)
            if piv is None:
                inv = pow(row[lead], -1, p)
                pivots[lead] = {c: v * inv % p for c, v in row.items()}
                break
            f = row[lead]
            for c, v in piv.items():
                x = (row.get(c, 0) - f * v) % p
                if x:
                    row[c] = x
                else:
                    del row[c]
    return len(pivots)


def naive_block_assembly(sys, p):
    """Independent loop-built copy of the linearized system (oracle)."""
    table = designated_positions(sys)
    zeros = table.cell_set()
    n = sys.n
    N = structure_constants(sys)
    zidx = {}
    for i in range(n):
        for j in range(n):
            if (i, j) not in zeros:
                zidx[(i, j)] = len(zidx)
    blocks = [s for s in sys.simple] + [neg(s) for s in sys.simple]
    cols_per_block = []
    rows = []
    for e in blocks:
        X = ad_x(sys, N, e)
        xe = np.eye(n, dtype=np.int64) + X + (X @ X) // 2
        mats = [t_matrix(sys, i) for i in range(sys.rank)]
        mats += [ad_x(sys, N, r) for r in sys.positive if r != e]
        mats += [ad_x(sys, N, neg(r)) for r in sys.positive if neg(r) != e]
        cols_per_block.append(len(mats))
        blk = np.zeros((n * n, len(zidx) + len(mats)), dtype=np.int64)
        for r in range(n):
            for c in range(n):
                eq = r * n + c
                for q in range(n):
                    if xe[q, c] and (r, q) in zidx:
                        blk[eq, zidx[(r, q)]] += xe[q, c]
                    if xe[r, q] and (q, c) in zidx:
                        blk[eq, zidx[(q, c)]] -= xe[r, q]
        for k, M in enumerate(mats):
            blk[:, len(zidx) + k] -= (xe @ M).reshape(-1)
        rows.append(blk)
    total_abc = sum(cols_per_block)
    A = np.zeros((len(blocks) * n * n, len(zidx) + total_abc), dtype=np.int64)
    off = len(zidx)
    for bi, blk in enumerate(rows):
        A[bi * n * n:(bi + 1) * n * n, : len(zidx)] = blk[:, : len(zidx)]
        nab = blk.shape[1] - len(zidx)
        A[bi * n * n:(bi + 1) * n * n, off:off + nab] = blk[:, len(zidx):]
        off += nab
    return A % p


def test_linearized_system_census_a2():
    lin = build_linearized_system(A2, 3)
    assert lin.z_unknowns == 64 - 9 == 55
    # per block: 2 torus + 3 + 3 unipotent coefficients, one dropped
    assert lin.abc_unknowns == 4 * 7
    assert lin.unknowns == 83
    assert lin.equations == 4 * 64


def test_linearized_system_census_a3_d4():
    a3 = build_linearized_system(system("A3"), 5)
    assert a3.z_unknowns == 15 * 15 - 16
    assert len(a3.blocks) == 6
    d4 = build_linearized_system(system("D4"), 3)
    assert len(d4.blocks) == 8
    assert d4.equations == 8 * 28 * 28


@pytest.mark.parametrize("token,p", [("A2", 3), ("A2", 5), ("A3", 3), ("D4", 3)])
def test_matrix_assembly_matches_naive_oracle(token, p):
    lin = build_linearized_system(system(token), p)
    assert_canonical(lin)
    oracle = naive_block_assembly(system(token), p)
    assert np.array_equal(dense(lin), oracle)


@pytest.mark.parametrize("token,p", [("A2", 3), ("A2", 5), ("A3", 3), ("A3", 5), ("E6", 3)])
def test_kernel_dimension_zero(token, p):
    lin = build_linearized_system(system(token), p)
    assert kernel_dimension(lin) == 0


@pytest.mark.parametrize("p", [3, 5])
def test_commutation_control_kernel_is_scalars(p):
    for token in ("A2", "A3"):
        sy = system(token)
        lin = build_commutation_system(sy, p)
        assert lin.z_unknowns == sy.n ** 2
        assert kernel_dimension(lin) == 1
        assert_canonical(lin)
        # independent cross-checks via numpy kron: the row-major system
        # itself, and the rank in the column-major convention
        n = sy.n
        N = structure_constants(sy)
        eye = np.eye(n, dtype=np.int64)
        row_major, col_major = [], []
        for r in sy.roots:
            X = ad_x(sy, N, r)
            xe = eye + X + (X @ X) // 2
            row_major.append(np.kron(eye, xe.T) - np.kron(xe, eye))
            col_major.append(np.kron(xe.T, eye) - np.kron(eye, xe))
        assert np.array_equal(dense(lin), np.vstack(row_major) % p)
        M = np.vstack(col_major) % p
        assert n * n - rank_mod_p(coo(M), p) == 1
        assert n * n - dense_rank_mod_p(M, p) == 1


def reference_x_unit_int(sys, r) -> np.ndarray:
    """The deleted `standardize._x_unit_int`, verbatim: x_r(1) = I + X + H
    over the integers, from the tables of `ad_x_tables`."""
    N = structure_constants(sys)
    return np.eye(sys.n, dtype=np.int64) + ad_x(sys, N, r) + ad_x_tables(sys, N, r)[1].dense()


def reference_commutator_entries(xe: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The dense `standardize._commutator_entries`, verbatim: it read the
    nonzeros of x_e(1) - I from a dense x_e(1).

    (row, cell, value) triples of vec(Z xe - xe Z), row-major on both sides.

    Row (i, j) gets +xe[k, j] on cell (i, k) and -xe[i, k] on cell (k, j).
    The identity part of xe commutes with Z, so only the nonzeros of
    xe - I are read, each once per value of the free index.
    """
    n = xe.shape[0]
    a, b = np.nonzero(xe - np.eye(n, dtype=np.int64))
    v = xe[a, b]
    f = np.arange(n)[:, None]
    rows = np.concatenate([(f * n + b).ravel(), (a * n + f).ravel()])
    cells = np.concatenate([(f * n + a).ravel(), (b * n + f).ravel()])
    vals = np.concatenate([np.tile(v, n), np.tile(-v, n)])
    return rows, cells, vals


def reference_commutation_coo(sys, p) -> np.ndarray:
    """The control COO as `build_commutation_system` made it before it made
    each block canonical on its own, and with x_r(1) over the integers:
    every block's raw entries concatenated, then one `_coo` over the whole
    concatenation."""
    n = sys.n
    rows, cols, vals = [], [], []
    for bi, r in enumerate(sys.roots):
        eq, cell, v = reference_commutator_entries(reference_x_unit_int(sys, r))
        rows.append(bi * n * n + eq)
        cols.append(cell)
        vals.append(v)
    return standardize._coo(np.concatenate(rows), np.concatenate(cols), np.concatenate(vals), p)


def reference_linearized_coo(sys, p) -> np.ndarray:
    """The normalizer COO of `build_linearized_system`, its body verbatim
    from when each block's x_e(1) was `reference_x_unit_int` over the
    integers."""
    table = designated_positions(sys)
    n = sys.n
    zeros = table.cell_set()
    keep = np.array([i * n + j for i in range(n) for j in range(n) if (i, j) not in zeros])
    z_cols = len(keep)
    column = np.full(n * n, -1, dtype=np.int64)
    column[keep] = np.arange(z_cols)
    N = structure_constants(sys)
    torus = [SparseColumns(n, [(c, c, int(d)) for c, d in enumerate(t_matrix(sys, i).diagonal())])
             for i in range(sys.rank)]
    gens = {r: ad_x_tables(sys, N, r)[0] for r in sys.roots}
    blocks = [s for s in sys.simple] + [neg(s) for s in sys.simple]
    rows, cols, vals = [], [], []
    off = z_cols
    for bi, e in enumerate(blocks):
        base = bi * n * n
        xe = reference_x_unit_int(sys, e)
        eq, cell, v = reference_commutator_entries(xe)
        kept = column[cell] >= 0
        rows.append(base + eq[kept])
        cols.append(column[cell[kept]])
        vals.append(v[kept])
        mats = torus + [gens[r] for r in sys.positive if r != e]
        mats += [gens[neg(r)] for r in sys.positive if neg(r) != e]
        for k, M in enumerate(mats):
            P = M.right_mul_t(xe.T).T
            i, c = np.nonzero(P)
            rows.append(base + i * n + M.cols[c])
            cols.append(np.full(len(i), off + k, dtype=np.int64))
            vals.append(-P[i, c])
        off += len(mats)
    return standardize._coo(np.concatenate(rows), np.concatenate(cols), np.concatenate(vals), p)


@pytest.mark.parametrize("token,p", [("A2", 5), ("A3", 5), ("D5", 3), ("E6", 3), ("E7", 3), ("E8", 3)])
def test_linearized_system_matches_the_integer_reference(token, p):
    # x_e(1) over F_p: entries reduced mod p before any product, which the
    # canonical COO reduces mod p anyway
    sys = system(token)
    lin, want = build_linearized_system(sys, p), reference_linearized_coo(sys, p)
    assert lin.matrix.dtype == want.dtype and lin.matrix.shape == want.shape
    assert np.array_equal(lin.matrix, want)


@pytest.mark.parametrize("p", [1, 2, 9])
def test_systems_refuse_a_p_that_is_no_odd_prime(p):
    # p = 1 and p = 9 have no field F_p, and p = 2 has no 1/2
    for build in (build_linearized_system, build_commutation_system):
        with pytest.raises(RingError):
            build(A2, p)


@pytest.mark.parametrize("token,p", [*((token, p) for token in ("A2", "D4", "D5") for p in (3, 5)), ("E6", 3)])
def test_commutation_blocks_made_canonical_one_at_a_time(token, p):
    lin = build_commutation_system(system(token), p)
    want = reference_commutation_coo(system(token), p)
    assert lin.matrix.dtype == want.dtype and lin.matrix.shape == want.shape
    assert np.array_equal(lin.matrix, want)
    assert_canonical(lin)


@pytest.mark.parametrize("token", ["A2", "D4", "E6"])
def test_only_the_linearized_products_build_a_generator(token, monkeypatch):
    # both systems read their commutator rows off the generator tables: the
    # control builds no x_e(1), and the linearized system one per block, for
    # its -x_e(1) M columns alone
    sys, built = system(token), []

    def counting(inner):
        def call(*args):
            built.append(tuple(args[2]))
            return inner(*args)
        return call

    for module in (group, standardize):
        monkeypatch.setattr(module, "x_elem", counting(module.x_elem))
    build_commutation_system(sys, 3)
    assert built == []
    lin = build_linearized_system(sys, 3)
    assert len(built) == 2 * sys.rank and tuple(built) == lin.blocks


def test_rank_mod_p_small_cases():
    M = np.array([[1, 2], [2, 4]])
    assert rank_mod_p(coo(M), 5) == 1
    assert rank_mod_p(coo(np.eye(3, dtype=np.int64)), 3) == 3
    assert rank_mod_p(coo(np.zeros((2, 2), dtype=np.int64)), 3) == 0


@st.composite
def sparse_integer_matrices(draw):
    """Up to 12 x 12, mostly zeros, with zero rows, repeated rows and
    combinations of two rows inserted anywhere (rank-deficient cases)."""
    cols = draw(st.integers(1, 12))
    entry = st.one_of(st.just(0), st.just(0), st.just(0), st.integers(-9, 9))
    M = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=1, max_size=12))
    for _ in range(draw(st.integers(0, 12 - len(M)))):
        i, j = draw(st.integers(0, len(M) - 1)), draw(st.integers(0, len(M) - 1))
        a, b = draw(st.integers(-4, 4)), draw(st.sampled_from([0, 0, 1, -2]))
        derived = [a * x + b * y for x, y in zip(M[i], M[j])]
        M.insert(draw(st.integers(0, len(M))), derived)
    return np.array(M, dtype=np.int64)


@settings(max_examples=200, deadline=None)
@given(sparse_integer_matrices(), st.sampled_from([2, 3, 5, 7]))
def test_sparse_rank_matches_dense_reference(M, p):
    assert rank_mod_p(coo(M), p) == dense_rank_mod_p(M, p) == echelon_rank_mod_p(coo(M), p)
    # the rank does not depend on how the entries are listed, nor on entries
    # split into duplicates that sum to them
    perm = np.random.default_rng(0).permutation(coo(M).shape[1])
    assert rank_mod_p(coo(M)[:, perm], p) == dense_rank_mod_p(M, p)
    rows, cols, vals = coo(M)
    split = np.concatenate([[rows, cols, vals + p + 1], [rows, cols, -np.ones_like(vals)]], axis=1)
    shuffle = np.random.default_rng(1).permutation(split.shape[1])
    assert rank_mod_p(split[:, shuffle], p) == dense_rank_mod_p(M, p)


@pytest.mark.parametrize("token,build,p", [
    *((token, build, p) for token in ("A2", "D4") for build in ("linearized", "commutation") for p in (3, 5)),
    ("D5", "linearized", 3),
])
def test_peeled_rank_matches_echelon_on_the_systems(token, build, p):
    builder = build_linearized_system if build == "linearized" else build_commutation_system
    lin = builder(system(token), p)
    assert rank_mod_p(lin.matrix, p) == echelon_rank_mod_p(lin.matrix, p)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_rank_peels_no_false_pivot_from_a_non_canonical_coo(p):
    # row 0: one entry equal to p; row 1: duplicates summing to 0 mod p;
    # row 2: duplicates that cancel beside a live entry; row 3: a true
    # singleton.  A peel of the entries before they are summed and reduced
    # would pivot column 0, and one of each row's distinct columns column 1.
    entries = [(0, 0, p), (1, 1, 2), (1, 1, -2), (1, 1, p), (2, 2, 1), (2, 3, 1), (2, 3, -1), (3, 4, 1)]
    M = np.zeros((4, 5), dtype=np.int64)
    for r, c, v in entries:
        M[r, c] += v
    rows, cols, vals = np.array(entries, dtype=np.int64).T
    for order in (np.arange(len(entries)), np.arange(len(entries))[::-1]):
        matrix = np.stack([rows[order], cols[order], vals[order]])
        assert rank_mod_p(matrix, p) == echelon_rank_mod_p(matrix, p) == dense_rank_mod_p(M, p) == 2


def test_rank_does_not_sort_a_canonical_coo_again(monkeypatch):
    lin = build_linearized_system(A2, 3)
    rank = rank_mod_p(lin.matrix, 3)
    monkeypatch.setattr(standardize, "_coo", lambda *args: pytest.fail("canonical COO sorted again"))
    assert rank_mod_p(lin.matrix, 3) == rank


def test_conjugation_defect_identity_cases():
    g = GroupElement.identity(A2, Z27)
    for a in A2.simple:
        defect, cong = conjugation_defect(A2, g, a)
        assert defect.is_identity()
        assert cong
    # same root subgroup commutes
    x = x_elem(A2, Z27, (1, 0), Z27.from_int(3))
    defect, cong = conjugation_defect(A2, x, (1, 0))
    assert defect.is_identity() and cong


def test_conjugation_defect_of_congruence_elements():
    rng = random.Random(0)
    for _ in range(5):
        g = eq3_element(A2, Z27, rng)
        for a in list(A2.simple) + [neg(s) for s in A2.simple]:
            _, cong = conjugation_defect(A2, g, a)
            assert cong


def test_certificate_identity_is_standard():
    cert = standardness_certificate(A2, GroupElement.identity(A2, Z27))
    assert cert.standard
    # the witness word is the all-trivial factorization
    assert all(f.get("param", f.get("value", 1)) in (0, 1) for f in cert.d_word
               if f["kind"] in ("x", "scalar"))


def test_gauge_residual_over_dual_numbers():
    ring = make_ring("trunc:3:2")
    rng = random.Random(5)
    g = eq3_element(A2, ring, rng)
    j = ring.eps  # j^2 = 0
    pert = Mat.identity(ring, A2.n).with_entry(0, 2, j)
    _, resid = gauge_reference(A2, GroupElement(A2, ring, g.mat @ pert, None))
    assert not resid.is_identity()
    assert resid.mat == pert


def test_certificate_standard_for_eq3_elements():
    rng = random.Random(1)
    for _ in range(10):
        g = eq3_element(A2, Z27, rng)
        cert = standardness_certificate(A2, g)
        assert cert.standard
        assert cert.residual_zero
        assert cert.d_word is not None


def test_certificate_rejects_off_group_perturbation():
    rng = random.Random(2)
    g = eq3_element(A2, Z27, rng)
    j = Z27.from_int(9)
    pert = Mat.identity(Z27, A2.n).with_entry(0, 2, j)
    cert = standardness_certificate(A2, GroupElement(A2, Z27, g.mat @ pert, None))
    assert not cert.standard
    assert cert.verdict == "nonstandard-or-outside-scope"


def test_certificate_rejects_non_congruence_without_residue_data():
    g = x_elem(A2, Z27, (1, 0), Z27.one)
    cert = standardness_certificate(A2, g)
    assert not cert.standard


def test_certificate_with_supplied_residue_data():
    rng = random.Random(3)
    f = random_factored(A2, Z27, rng)
    inner = compose(A2, f)
    delta = "flip"
    a_delta = graph_matrix(A2, Z27, delta)
    # residue-level witness: a unipotent word lifted to the ring
    word = (("x", (1, 0), Z27.one), ("x", (0, 1), Z27.from_int(2)))
    gp = GroupElement(A2, Z27, word_to_matrix(A2, Z27, word), None)
    C = a_delta @ gp @ inner
    cert = standardness_certificate(A2, C, delta=delta, residue_word=word)
    assert cert.standard
    assert cert.delta == "flip"
    obj = cert.to_json()
    assert obj["verdict"] == "standard"
    assert obj["residual_norm_zero"] is True


@pytest.mark.parametrize("sys_name,delta", [("A2", "flip"), ("D4", "triality")])
def test_certificate_inverts_residue_data_by_word(sys_name, delta):
    sy = system(sys_name)
    rng = random.Random(7)
    inner = compose(sy, random_factored(sy, Z27, rng))
    # a residue-level word that is not congruent to the identity
    word = tuple(("x", s, Z27.from_int(i + 1)) for i, s in enumerate(sy.simple))
    C = graph_matrix(sy, Z27, delta) @ GroupElement(sy, Z27, word_to_matrix(sy, Z27, word), None) @ inner
    cert = standardness_certificate(sy, C, delta=delta, residue_word=list(word))
    assert cert.standard
    assert cert.delta == delta


def reference_certificate(sys, C, delta, residue_word):
    """The certificate that multiplied g' out and inverted g' and A_delta one
    by one, work = g'^-1 A_delta^-1 C (C itself without residue data), and
    decided by forming C' = D^-1 work with `gauge_reference`."""
    ring = C.ring
    work = C
    if delta is not None or residue_word is not None:
        word = tuple(residue_word or ())
        lifted = GroupElement(sys, ring, word_to_matrix(sys, ring, word), word)
        a_delta = graph_matrix(sys, ring, delta or "identity")
        work = lifted.inverse() @ a_delta.inverse() @ C
    if not congruence_member(work):
        return Certificate("nonstandard-or-outside-scope", delta, None, False)
    try:
        D, resid = gauge_reference(sys, work)
    except RecoveryError:
        return Certificate("nonstandard-or-outside-scope", delta, None, False)
    ok = resid.is_identity()
    return Certificate("standard" if ok else "nonstandard-or-outside-scope", delta,
                       word_to_json(ring, D.word) if ok else None, ok)


@pytest.mark.parametrize("desc", ["zmod:3^3", "trunc:3:3"])
@pytest.mark.parametrize("sys_name,delta", [("A2", "flip"), ("D4", "triality"), ("E6", "flip")])
def test_certificate_residue_data_matches_reference(sys_name, delta, desc):
    sy, ring = system(sys_name), make_ring(desc)
    rng = random.Random(8)
    inner = compose(sy, random_factored(sy, ring, rng))
    # a residue-level word of every factor kind but the diagram one
    two = ring.from_int(2)
    word = tuple(("x", s, ring.from_int(i + 1)) for i, s in enumerate(sy.simple))
    word += (("h", (two,) + (ring.one,) * (sy.rank - 1)), ("scalar", two), ("x", neg(sy.maximal), ring.one))
    C = graph_matrix(sy, ring, delta) @ GroupElement(sy, ring, word_to_matrix(sy, ring, word), None) @ inner
    pert = GroupElement(sy, ring, Mat.identity(ring, sy.n).with_entry(0, 2, ring.eps), None)
    # standard; off the group by a radical entry; the diagram left out
    for X, d, standard in ((C, delta, True), (C @ pert, delta, False), (C, None, False)):
        cert = standardness_certificate(sy, X, delta=d, residue_word=word)
        assert cert.standard == standard
        assert cert.to_json() == reference_certificate(sy, X, d, word).to_json()


@pytest.mark.parametrize("desc", ["zmod:3^3", "trunc:3:3"])
@pytest.mark.parametrize("sys_name", ["A2", "D4", "E6"])
def test_certificate_matches_gauge_reference(sys_name, desc):
    # the verdict by D == C against the one by forming C' = D^-1 C
    sy, ring = system(sys_name), make_ring(desc)
    rng = random.Random(9)
    j = ring.eps ** (ring.k - 1)
    g = eq3_element(sy, ring, rng)
    cell = next(c for c in designated_positions(sy).cells if c.kind == "u")
    suite_pert = g.mat @ Mat.identity(ring, sy.n).with_entry(0, 2, j)
    at_cell = g.mat.with_entry(cell.row, cell.col, g.mat.get(cell.row, cell.col) + j)
    cases = (
        (g, True),
        (GroupElement(sy, ring, suite_pert, None), False),
        (GroupElement(sy, ring, at_cell, None), False),
        (x_elem(sy, ring, sy.simple[0], ring.one) @ g, False),
    )
    for C, standard in cases:
        cert = standardness_certificate(sy, C)
        assert cert.standard == standard
        assert cert.to_json() == reference_certificate(sy, C, None, None).to_json()


def test_certificate_over_truncated_polynomials():
    from chevalley.suites import suite_certificate

    rep = suite_certificate("A2", "trunc:3:2", count=10, seed=6)
    assert rep["ok"], rep["failures"]


def test_certificate_certified_elements_have_congruent_defects():
    rng = random.Random(4)
    g = eq3_element(A2, Z27, rng)
    cert = standardness_certificate(A2, g)
    assert cert.standard
    for a in list(A2.simple) + [neg(s) for s in A2.simple]:
        _, cong = conjugation_defect(A2, g, a)
        assert cong




def test_odd_square_is_refused_not_floored():
    # x_r(1) = I + X + X^2 / 2 is integral because X^2 is even; an odd entry
    # must raise instead of being floored away, in both systems' x_e(1) over
    # F_p and in the integer reference
    from test_lie import odd_square_a2

    sys, _, a = odd_square_a2()
    for build in (build_linearized_system, build_commutation_system):
        with pytest.raises(ArithmeticError, match="odd entry"):
            build(sys, 3)
    with pytest.raises(ArithmeticError, match="odd entry"):
        reference_x_unit_int(sys, a)
