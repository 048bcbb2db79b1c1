import dataclasses
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chevalley import decompose
from chevalley.decompose import (
    EntryFormula,
    FactoredElement,
    RecoveryError,
    compose,
    designated_positions,
    entry_formula,
    recover,
)
from chevalley.group import GroupElement, _x_mat, scalar_elem, t_k, torus_diagonal, x_elem
from chevalley.lie import ad_x, h_index, root_index, structure_constants
from chevalley.matrices import Mat
from chevalley.rings import RingError, is_unit, make_ring
from chevalley.roots import Root, RootSystem, add, neg, system
from chevalley.suites import eq3_element, random_factored
from test_standardize import gauge_reference

A2 = system("A2")
Z81 = make_ring("zmod:3^4")


def random_congruence_word(sys: RootSystem, ring, rng, length: int = 30) -> GroupElement:
    """A product of `length` generators x_r(t) with random roots r and t in the radical."""
    g = GroupElement.identity(sys, ring)
    for _ in range(length):
        r = sys.roots[rng.randrange(len(sys.roots))]
        g = g @ x_elem(sys, ring, r, ring.random_radical(rng))
    return g


def test_compose_trivial_is_identity():
    f = FactoredElement.trivial(A2, Z81)
    assert compose(A2, f).is_identity()


def test_compose_word_multiplies_out():
    rng = random.Random(0)
    f = random_factored(A2, Z81, rng)
    g = compose(A2, f)
    from chevalley.group import word_to_matrix

    assert word_to_matrix(A2, Z81, g.word) == g.mat


def test_a2_displayed_cells():
    rng = random.Random(1)
    f = random_factored(A2, Z81, rng)
    X = compose(A2, f).mat
    lam, (s1, s2) = f.lam, f.s
    t1, t2, t3 = f.t
    u1, u2, u3 = f.u
    one = Z81.one
    # diagonal block values along the chain
    assert X.get(5, 5) == lam * (s1 * s2).inv()
    assert X.get(3, 3) == lam * (one + t1 * u1) * s2.inv()
    assert X.get(1, 1) == lam * (one + t2 * u2) * s1.inv()
    # unipotent reads (signs fixed by this package's structure constants)
    assert X.get(7, 5) == lam * t3
    assert X.get(1, 5) == -(lam * t2 * s1.inv())
    assert X.get(3, 5) == lam * t1 * s2.inv()
    assert X.get(5, 1) == -(lam * u2 * (s1 * s2).inv())
    assert X.get(5, 3) == lam * u1 * (s1 * s2).inv()


def test_designated_positions_a2_golden():
    table = designated_positions(A2)
    got = sorted((c.row + 1, c.col + 1) for c in table.cells)
    assert got == sorted(
        [(2, 2), (2, 6), (4, 4), (4, 6), (6, 2), (6, 4), (6, 6), (6, 8), (8, 6)]
    )


@pytest.mark.parametrize("token,count", [("A2", 9), ("A3", 16), ("D4", 29), ("E8", 249)])
def test_designated_positions_counts(token, count):
    sys = system(token)
    table = designated_positions(sys)
    assert len(table.cells) == count == sys.n + 1
    # each parameter pinned exactly once
    seen = {("diag", c.index) if c.kind == "diag" else (c.kind, c.index) for c in table.cells}
    assert len(seen) == count
    kinds = [c.kind for c in table.cells]
    assert kinds.count("diag") == sys.rank + 1
    assert kinds.count("t") == kinds.count("u") == sys.m


def test_designated_positions_e8_exception_cells():
    sys = system("E8")
    table = designated_positions(sys)
    exc_stage = max(c.stage for c in table.cells)
    exc_cells = [c for c in table.cells if c.stage == exc_stage and c.kind != "diag"]
    # two cells per classified exception root
    assert len(exc_cells) == 30


def reference_lead_coefficient(sys: RootSystem, cell) -> int:
    """The deleted `decompose._lead_coefficient`, verbatim: the lead read
    from the dense ad x table on every call."""
    if cell.kind == "diag":
        return 1
    r = cell.root if cell.kind == "t" else neg(cell.root)
    N = structure_constants(sys)
    return int(ad_x(sys, N, r)[cell.row, cell.col])


@pytest.mark.parametrize("token", ["A2", "A3", "D4", "D5", "E6", "E7", "E8"])
def test_position_table_records_lead_coefficients(token):
    sys = system(token)
    cells = designated_positions(sys).cells
    leads = [c.lead for c in cells]
    assert leads == [reference_lead_coefficient(sys, c) for c in cells]
    # units over every ring with 1/2: +-1, and one 2 at E8
    assert set(leads) == ({-1, 1, 2} if token == "E8" else {-1, 1})


def torus_diag(sys: RootSystem, f: FactoredElement) -> list:
    """The diagonal of lam * t_1(s_1) ... t_l(s_l), as `decompose._torus_diag`
    formed it before `EntryFormula.evaluate` read one character value
    instead: lam times `group.torus_diagonal` of s, read as ring elements."""
    return [f.lam * f.ring.elem(d) for d in torus_diagonal(sys, f.ring, f.s)]


def reference_torus_diag(sys: RootSystem, f: FactoredElement) -> list:
    """The deleted `decompose._torus_diag`, verbatim: chi(p) by powers and
    its inverse by one `inv` per positive root."""
    ring = f.ring
    svals = list(f.s)
    diag = []
    for p in sys.positive:
        v = f.lam
        for sv, c in zip(svals, p):
            if c:
                v = v * sv**c
        diag += [v, v.inv() * f.lam * f.lam]
    diag += [f.lam] * sys.rank
    return diag


TORUS_RINGS = ["zmod:3^3", "gf:7", "trunc:3:3", "ext:zmod:5^2:2:3", "ext:trunc:3:2:1,1:2"]


def random_units_factored(sys: RootSystem, ring, rng) -> FactoredElement:
    """Unit lam and s, and arbitrary t and u: every ring kind, ext included."""
    return FactoredElement(ring=ring, lam=ring.random_unit(rng),
                           s=tuple(ring.random_unit(rng) for _ in range(sys.rank)),
                           t=tuple(ring.random_element(rng) for _ in range(sys.m)),
                           u=tuple(ring.random_element(rng) for _ in range(sys.m)))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["A2", "A3", "D4", "E6"]), st.sampled_from(TORUS_RINGS), st.integers(0, 2**32 - 1))
def test_torus_diag_matches_reference(token, desc, seed):
    sys, ring = system(token), make_ring(desc)
    f = random_units_factored(sys, ring, random.Random(seed))
    diag = torus_diag(sys, f)
    assert diag == reference_torus_diag(sys, f)
    assert compose(sys, dataclasses.replace(f, t=(ring.zero,) * sys.m, u=(ring.zero,) * sys.m)).mat \
        == Mat.diagonal(ring, [d.vec for d in diag])


@pytest.mark.parametrize("token", ["A2", "D4", "E6"])
def test_compose_returns_normal_form_word(token):
    # the scalar, the l torus factors t_k(s_k), then the generators: the word
    # compose assembled from its factors' elements
    sys, ring = system(token), make_ring("trunc:3:3")
    f = random_units_factored(sys, ring, random.Random(token))
    want = (scalar_elem(sys, ring, f.lam).word + tuple(t_k(sys, ring, k, x).word[0] for k, x in enumerate(f.s))
            + decompose._unipotent_word(sys, f))
    assert decompose.normal_form_word(sys, f) == want
    assert compose(sys, f).word == want


@pytest.mark.parametrize("desc", TORUS_RINGS)
@pytest.mark.parametrize("token", ["A2", "D4", "E6", "E7", "E8"])
def test_inverse_torus_diag_matches_reference(token, desc):
    # the first sweep's row scale and the last factor of each inverse word:
    # the diagonal of the torus of lam^-1 and the inverted s
    sys, ring = system(token), make_ring(desc)
    rng = random.Random(f"{token}/{desc}")
    for _ in range(3):
        f = random_units_factored(sys, ring, rng)
        inv = dataclasses.replace(f, lam=f.lam.inv(), s=tuple(x.inv() for x in f.s))
        want = [d.vec for d in reference_torus_diag(sys, inv)]
        assert decompose._inverse_torus_diag(sys, f.lam, f.s) == want


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(["A2", "A3", "D4"]), st.sampled_from(TORUS_RINGS), st.integers(0, 2**32 - 1))
def test_compose_inverse_inverts_compose(token, desc, seed):
    sys, ring = system(token), make_ring(desc)
    f = random_units_factored(sys, ring, random.Random(seed))
    assert (decompose._compose_inverse_mat(sys, f, range(sys.n)) @ compose(sys, f).mat).is_identity()


def reference_compose_inverse_mat(sys: RootSystem, f: FactoredElement) -> Mat:
    """compose(f)^-1 with compose's generators reversed and negated by hand,
    and the inverse torus as a factored element of its own, verbatim."""
    ring = f.ring
    out = Mat.identity(ring, sys.n)
    for i in reversed(range(sys.m)):
        out = out @ _x_mat(sys, ring, neg(sys.positive[i]), -f.u[i])
    for i in reversed(range(sys.m)):
        out = out @ _x_mat(sys, ring, sys.positive[i], -f.t[i])
    inv = FactoredElement(
        ring=ring,
        lam=f.lam.inv(),
        s=tuple(x.inv() for x in f.s),
        t=(ring.zero,) * sys.m,
        u=(ring.zero,) * sys.m,
    )
    return out @ Mat.diagonal(ring, [d.vec for d in torus_diag(sys, inv)])


@pytest.mark.parametrize("ring_desc", ["zmod:3^3", "trunc:3:3", "gf:7"])
@pytest.mark.parametrize("sys_name", ["A2", "D4", "E6"])
def test_compose_inverse_by_word_matches_reference(sys_name, ring_desc, monkeypatch):
    # the inverse word of compose's generators and one inverse torus
    # diagonal: the same matrix from the same 2m + 1 products
    sy, ring = system(sys_name), make_ring(ring_desc)
    rng = random.Random(48)
    for _ in range(1 if sys_name == "E6" else 3):
        f = random_units_factored(sy, ring, rng)
        got, products, _ = counted_products(monkeypatch, decompose._compose_inverse_mat, sy, f, range(sy.n))
        want, products_ref, _ = counted_products(monkeypatch, reference_compose_inverse_mat, sy, f)
        assert got == want
        assert products == products_ref == 2 * sy.m + 1


@pytest.mark.parametrize("ring_desc", TORUS_RINGS)
@pytest.mark.parametrize("sys_name", ["A2", "D4", "E6"])
def test_compose_inverse_rows_are_rows_of_the_inverse(sys_name, ring_desc, monkeypatch):
    # the designated rows, and a few unsorted rows with a repeat: the row
    # stack is those rows of the square inverse, from the same 2m + 1 products
    sy, ring = system(sys_name), make_ring(ring_desc)
    rng = random.Random(51)
    f = random_units_factored(sy, ring, rng)
    full = reference_compose_inverse_mat(sy, f)
    for rows in (designated_positions(sy).rows, (sy.n - 1, 0, 3, 0)):
        got, products, _ = counted_products(monkeypatch, decompose._compose_inverse_mat, sy, f, rows)
        assert got.data.shape == (ring.depth, len(rows), sy.n)
        assert np.array_equal(got.data, full.data[:, list(rows)])
        assert products == 2 * sy.m + 1


@pytest.mark.parametrize(
    "token,ring_desc,count",
    [
        ("A2", "zmod:3^4", 30),
        ("A2", "trunc:5:3", 30),
        ("A3", "zmod:3^4", 10),
        ("D4", "trunc:5:3", 5),
        ("D5", "zmod:3^2", 3),
        ("E6", "trunc:5:3", 1),
        ("E7", "zmod:3^2", 1),
    ],
)
def test_recover_round_trip(token, ring_desc, count):
    sys = system(token)
    ring = make_ring(ring_desc)
    rng = random.Random(42)
    for _ in range(count):
        f = random_factored(sys, ring, rng)
        X = compose(sys, f)
        g = recover(sys, X)
        assert (g.lam, g.s, g.t, g.u) == (f.lam, f.s, f.t, f.u)
        assert compose(sys, g) == X


def test_recover_round_trip_e8():
    # full-scale run: all 120 parameter pairs, including the 15 anchored
    # exception roots, recovered exactly at n = 248
    sy = system("E8")
    ring = make_ring("zmod:3^2")
    rng = random.Random(49)
    f = random_factored(sy, ring, rng)
    X = compose(sy, f)
    assert recover(sy, X) == f


def test_recover_over_field_is_pure_torus():
    # zero radical: the congruence normal form degenerates to the identity part
    ring = make_ring("gf:5")
    rng = random.Random(50)
    sy = system("A3")
    for _ in range(5):
        f = random_factored(sy, ring, rng)
        assert all(t == ring.zero for t in f.t)
        g = recover(sy, compose(sy, f))
        assert g == f


def test_recover_identity():
    f = recover(A2, GroupElement.identity(A2, Z81))
    assert f.lam == Z81.one
    assert all(s == Z81.one for s in f.s)
    assert all(t == Z81.zero for t in f.t)
    assert all(u == Z81.zero for u in f.u)


def test_recover_congruence_words_factor_exactly():
    rng = random.Random(43)
    for _ in range(10):
        g = random_congruence_word(A2, Z81, rng, length=25)
        f = recover(A2, g)
        assert compose(A2, f) == g


def test_recover_rejects_non_unit_diagonal():
    bad = GroupElement.identity(A2, Z81).mat.with_entry(5, 5, Z81.from_int(3))
    with pytest.raises(RecoveryError):
        recover(A2, bad)


def test_recover_rejects_outside_normal_form():
    # a matrix fixing all designated cells but off the factored image
    g = eq3_element(A2, Z81, random.Random(44))
    j = Z81.from_int(27)  # j^2 = 0
    bad = g.mat @ GroupElement.identity(A2, Z81).mat.with_entry(0, 2, j)
    with pytest.raises(RecoveryError):
        recover(A2, bad)


def reference_solve_cells(sys: RootSystem, mat: Mat) -> tuple[FactoredElement, list[Mat]]:
    """The sweep loop run to its fixed point, with W = compose(f)^-1 mat
    formed in full on every sweep, so its first sweep multiplies out the
    identity.  Its first update solves the torus from the diagonal cells and
    divides each t/u cell by that torus's value on the cell's row; it stops
    only when a sweep finds every designated cell equal to the identity's,
    one confirmation sweep after the parameters are exact.  Returns f and
    every sweep's W."""
    ring = mat.ring
    if not ring.local:
        raise RecoveryError("recovery needs a local ring")
    table = designated_positions(sys)
    l = sys.rank

    for cell in table.cells:
        if cell.kind == "diag" and not is_unit(mat.get(cell.row, cell.col)):
            raise RecoveryError("not in normal form: designated diagonal entry is not a unit")

    f = FactoredElement.trivial(sys, ring)
    dvals = [ring.one] * (l + 1)
    eye, Ws = Mat.identity(ring, sys.n), []
    for sweep in range(ring.nilpotency + 2):
        W = reference_compose_inverse_mat(sys, f) @ mat
        Ws.append(W)
        if all(W.get(c.row, c.col) == eye.get(c.row, c.col) for c in table.cells):
            return f, Ws
        for cell in table.cells[: l + 1]:
            dvals[cell.index] = dvals[cell.index] * W.get(cell.row, cell.col)
        lam_s = []
        for row in table.exponent_inverse:
            v = ring.one
            for d, e in zip(dvals, row):
                v = v * d**e
            lam_s.append(v)
        torus = FactoredElement(ring=ring, lam=lam_s[0], s=tuple(lam_s[1:]), t=f.t, u=f.u)
        row_value = torus_diag(sys, torus) if sweep == 0 else [ring.one] * sys.n
        tnew, unew = list(f.t), list(f.u)
        for cell in table.cells[l + 1:]:
            incr = W.get(cell.row, cell.col) * row_value[cell.row].inv() * ring.from_int(cell.lead).inv()
            if cell.kind == "t":
                tnew[cell.index] = tnew[cell.index] + incr
            else:
                unew[cell.index] = unew[cell.index] + incr
        f = dataclasses.replace(torus, t=tuple(tnew), u=tuple(unew))
    raise RecoveryError("recovery did not converge; not in normal form")


def counted_products(monkeypatch, fn, *args):
    """fn(*args), the number of `Mat.__matmul__` calls it made and the last
    product (None when there was none)."""
    products, last = [], [None]
    matmul = Mat.__matmul__

    def counting(a, b):
        products.append(1)
        last[0] = matmul(a, b)
        return last[0]

    with monkeypatch.context() as patch:
        patch.setattr(Mat, "__matmul__", counting)
        result = fn(*args)
    return result, len(products), last[0]


def counted_sweeps(monkeypatch, sys: RootSystem, solve, mat: Mat):
    """solve(sys, mat), the number of product sweeps it made, each 2m + 2
    `Mat.__matmul__` calls (2m generators, the torus and the input), and the
    last product: the last sweep's W when there was a product sweep."""
    result, products, last = counted_products(monkeypatch, solve, sys, mat)
    sweeps, rest = divmod(products, 2 * sys.m + 2)
    assert rest == 0
    return result, sweeps, last


@pytest.mark.parametrize("ring_desc", ["zmod:3^1", "zmod:3^2", "zmod:3^3", "zmod:3^4", "trunc:3:3"])
@pytest.mark.parametrize("sys_name", ["A2", "D4", "E6"])
def test_sweeps_start_from_the_input(sys_name, ring_desc, monkeypatch):
    sy, ring = system(sys_name), make_ring(ring_desc)
    k = ring.nilpotency
    rng = random.Random(46)
    rows = list(designated_positions(sy).rows)
    for _ in range(1 if sys_name == "E6" else 3):
        mat = compose(sy, random_factored(sy, ring, rng)).mat
        f, sweeps, W = counted_sweeps(monkeypatch, sy, decompose._solve_cells, mat)
        (f_ref, Ws), _, _ = counted_sweeps(monkeypatch, sy, reference_solve_cells, mat)
        # the sweeps stop at the nilpotency bound with the fixed point that
        # the reference confirms, at the latest one sweep later
        assert f == f_ref
        assert sweeps == max(k - 2, 0)
        assert len(Ws) <= sweeps + 2
        # the last sweep's W is formed on the designated rows only, and they
        # are those rows of the reference's square W from the same sweep;
        # with no product sweep it is the input's
        assert np.array_equal(W.data if sweeps else mat.data[:, rows], Ws[sweeps].data[:, rows])
    # designated cells that already match the identity: no product at all
    gen = np.random.default_rng(47)
    data = gen.integers(0, ring.q, (ring.depth, sy.n, sy.n))
    for c in designated_positions(sy).cells:
        data[:, c.row, c.col] = (ring.one if c.kind == "diag" else ring.zero).vec
    mat = Mat(ring, data)
    f, sweeps, last = counted_sweeps(monkeypatch, sy, decompose._solve_cells, mat)
    assert sweeps == 0 and last is None
    assert f == FactoredElement.trivial(sy, ring)


@pytest.mark.parametrize("ring_desc", ["zmod:3^3", "gf:3", "trunc:3:3"])
@pytest.mark.parametrize("sys_name", ["A2", "D4"])
def test_gauge_matches_designated_cells(sys_name, ring_desc):
    sy, ring = system(sys_name), make_ring(ring_desc)
    rng = random.Random(45)
    g = eq3_element(sy, ring, rng)
    D, resid = gauge_reference(sy, g)
    assert resid.is_identity()
    assert D.mat == g.mat
    # perturb outside the designated cells: the gauge residual is exactly
    # the perturbation, and designated cells of the residual stay identity;
    # j is a nonzero element of J^(k - 1), so j J = 0 (j = 1 over gf:p)
    j = ring.eps ** (ring.k - 1)
    pert = Mat.identity(ring, sy.n).with_entry(0, 2, j)
    C2 = GroupElement(sy, ring, g.mat @ pert, None)
    D2, resid2 = gauge_reference(sy, C2)
    assert not resid2.is_identity()
    assert resid2.mat == pert
    table = designated_positions(sy)
    eye = Mat.identity(ring, sy.n)
    for c in table.cells:
        assert resid2.mat.get(c.row, c.col) == eye.get(c.row, c.col)
    # C' is exactly D^-1 C, and D C' = C
    for C, D_, resid_ in ((g, D, resid), (C2, D2, resid2)):
        f = recover(sy, D_)
        assert resid_.mat == decompose._compose_inverse_mat(sy, f, range(sy.n)) @ C.mat
        assert D_.mat @ resid_.mat == C.mat


@pytest.mark.parametrize("ring_desc", ["zmod:3^3", "zmod:3^4", "trunc:3:3", "gf:7"])
@pytest.mark.parametrize("sys_name", ["A2", "D4", "E6"])
def test_recover_round_trip_arbitrary_units(sys_name, ring_desc, monkeypatch):
    # lam and s any units, not only 1 mod J: the first sweep divides the
    # t/u cells by the torus value of their row, so the parameters are
    # still exact after at most max(k - 2, 0) product sweeps
    sy, ring = system(sys_name), make_ring(ring_desc)
    rng = random.Random(52)
    for _ in range(1 if sys_name == "E6" else 4):
        f = FactoredElement(ring=ring, lam=ring.random_unit(rng),
                            s=tuple(ring.random_unit(rng) for _ in range(sy.rank)),
                            t=tuple(ring.random_radical(rng) for _ in range(sy.m)),
                            u=tuple(ring.random_radical(rng) for _ in range(sy.m)))
        X = compose(sy, f)
        got, sweeps, _ = counted_sweeps(monkeypatch, sy, decompose._solve_cells, X.mat)
        assert got == f
        assert sweeps <= max(ring.nilpotency - 2, 0)
        assert recover(sy, X) == f


@pytest.mark.parametrize("ring_desc", ["zmod:3^2", "trunc:3:2", "zmod:3^3"])
@pytest.mark.parametrize("sys_name", ["A2", "D4"])
def test_gauge_raises_when_the_cells_cannot_be_gauged(sys_name, ring_desc):
    # a unit t and u on one root: the cells' fixed point is out of reach of
    # the sweeps.  With k = 2 there is no product sweep and D^-1 C's cells
    # decide; with k = 3 the product sweep's cells already fail the rate
    sy, ring = system(sys_name), make_ring(ring_desc)
    C = x_elem(sy, ring, sy.simple[0], ring.one) @ x_elem(sy, ring, neg(sy.simple[0]), ring.one)
    C = GroupElement(sy, ring, C.mat, None)
    with pytest.raises(RecoveryError, match="cannot gauge" if ring.nilpotency == 2 else "outside J"):
        gauge_reference(sy, C)
    with pytest.raises(RecoveryError):
        recover(sy, C)


def test_factored_element_json_round_trip():
    rng = random.Random(46)
    f = random_factored(A2, Z81, rng)
    assert FactoredElement.from_json(Z81, f.to_json()) == f


def test_factored_element_json_is_validated():
    good = random_factored(A2, Z81, random.Random(46)).to_json()
    bad = [[], "f", None, {k: v for k, v in good.items() if k != "t"},
           dict(good, s=3), dict(good, u={"0": 1}), dict(good, t="123")]
    for obj in bad:
        with pytest.raises(RingError):
            FactoredElement.from_json(Z81, obj)


def test_compose_checks_parameter_counts():
    f = random_factored(A2, Z81, random.Random(47))
    for field, extra in (("s", 0), ("s", 1), ("t", 0), ("t", 1), ("u", 0), ("u", 1)):
        vals = getattr(f, field)
        wrong = vals[:-1] if extra == 0 else vals + (Z81.zero,)
        with pytest.raises(RingError, match="parameters"):
            compose(A2, dataclasses.replace(f, **{field: wrong}))


# ---------------------------------------------------------------------------
# entry formulas
# ---------------------------------------------------------------------------


def test_entry_formula_matches_compose_a2_exhaustive():
    rng = random.Random(47)
    labels = list(A2.roots) + [("h", 0), ("h", 1)]
    for _ in range(3):
        f = random_factored(A2, Z81, rng)
        X = compose(A2, f).mat
        for mu in labels:
            for nu in labels:
                ef = entry_formula(A2, mu, nu)
                assert ef.evaluate(A2, f) == X.get(ef.row, ef.col), (mu, nu)


def test_entry_formula_matches_compose_d4_sampled():
    sys = system("D4")
    ring = make_ring("zmod:3^2")
    rng = random.Random(48)
    f = random_factored(sys, ring, rng)
    X = compose(sys, f).mat
    for _ in range(40):
        mu = sys.roots[rng.randrange(len(sys.roots))]
        nu = sys.roots[rng.randrange(len(sys.roots))]
        ef = entry_formula(sys, mu, nu)
        assert ef.evaluate(sys, f) == X.get(ef.row, ef.col)


def termwise_evaluate(ef: EntryFormula, sys: RootSystem, f: FactoredElement):
    """Each term multiplied out on its own, in the order listed: the
    reference for `EntryFormula.evaluate`'s shared prefix products."""
    ring = f.ring
    total = ring.zero
    for coeff, factors in ef.terms:
        v = ring.from_int(coeff)
        for kind, idx in factors:
            v = v * (f.t[idx] if kind == "t" else f.u[idx])
        total = total + v
    return torus_diag(sys, f)[ef.row] * total


@pytest.mark.parametrize("desc", ["zmod:3^4", "gf:10007", "trunc:3:3", "ext:zmod:5^2:2:3"])
def test_entry_formula_evaluate_matches_termwise_reference(desc, monkeypatch):
    sys, ring = system("D4"), make_ring(desc)
    rng = random.Random(49)
    # the product is a polynomial identity, so the parameters are arbitrary
    f = FactoredElement(
        ring=ring,
        lam=ring.random_unit(rng),
        s=tuple(ring.random_unit(rng) for _ in range(sys.rank)),
        t=tuple(ring.random_element(rng) for _ in range(sys.m)),
        u=tuple(ring.random_element(rng) for _ in range(sys.m)),
    )
    products = []
    mul_vec = ring.mul_vec
    monkeypatch.setattr(ring, "mul_vec", lambda a, b: products.append(1) or mul_vec(a, b))

    def evaluate_counted(ef):
        products.clear()
        value = ef.evaluate(sys, f)
        return value, len(products)

    labels = list(sys.roots) + [("h", i) for i in range(sys.rank)]
    cells = [(labels[rng.randrange(len(labels))], labels[rng.randrange(len(labels))]) for _ in range(8)]
    cells += [(neg(sys.positive[-1]), sys.positive[-1]), (("h", 1), ("h", 1))]
    for mu, nu in cells:
        ef = entry_formula(sys, mu, nu)
        _, fixed = evaluate_counted(dataclasses.replace(ef, terms=()))
        # out of lexicographic order, with repeated factor tuples and one
        # term's factors a prefix of another's
        shuffled = list(ef.terms) + [(5, (("u", 1), ("t", 0))), (-3, (("t", 0),)), (2, ()), (1, (("t", 0),))]
        rng.shuffle(shuffled)
        for formula in (ef, dataclasses.replace(ef, terms=tuple(shuffled))):
            value, count = evaluate_counted(formula)
            assert value == termwise_evaluate(formula, sys, f), (mu, nu)
            # one product per distinct nonempty prefix, beside the torus
            # diagonal and the final product that every formula makes
            prefixes = {fs[:i] for _, fs in formula.terms for i in range(1, len(fs) + 1)}
            assert count == fixed + len(prefixes), (mu, nu)


def test_entry_formula_shapes():
    # the chain-top diagonal cell is the bare torus value
    g1 = (1, 1)
    ef = entry_formula(A2, neg(g1), neg(g1))
    assert ef.terms == ((1, ()),)
    # one step below the chain top: a single unipotent parameter
    ef = entry_formula(A2, neg((0, 1)), neg(g1))
    assert len(ef.terms) == 1
    coeff, factors = ef.terms[0]
    assert coeff in (1, -1)
    assert factors == (("t", 0),)
    # the second diagonal carries 1 +- u t corrections
    ef = entry_formula(A2, neg((0, 1)), neg((0, 1)))
    factor_sets = [tuple(sorted(fs)) for _, fs in ef.terms]
    assert () in factor_sets
    assert (("t", 0), ("u", 0)) in factor_sets


def test_entry_formula_quadratic_terms_are_integral():
    # the Cartan column of the lowest root carries the u3 + 2 u1 u2 pattern
    ef = entry_formula(A2, neg((1, 1)), ("h", 1))
    by_factors = {tuple(sorted(fs)): c for c, fs in ef.terms}
    assert abs(by_factors[(("u", 2),)]) == 1
    assert abs(by_factors[(("u", 0), ("u", 1))]) == 2


# Reference: the path-enumeration DFS that entry_formula replaced.  It walks
# every path of brackets through the factors, re-deriving each bracket from
# root sums, structure constants and Cartan pairings, so it shares no code
# with the generator tables entry_formula pushes states through.
def dfs_entry_formula(sys: RootSystem, mu, nu) -> EntryFormula:
    """Formal description of the compose entry at (row mu, column nu).

    mu and nu are roots, or ("h", i) for a Cartan row/column.  A path starts
    at the column's basis vector and applies the unipotent factors right to
    left, each step a bracket with one factor's generator; only paths ending
    on the row's basis vector contribute.  Steps through the Cartan subspace
    carry the bracket's integer coefficients, so such terms are not just +-1.
    """
    N = structure_constants(sys)
    mu_l = ("h", mu[1]) if isinstance(mu[0], str) else ("x", tuple(mu))
    nu_l = ("h", nu[1]) if isinstance(nu[0], str) else ("x", tuple(nu))
    row = h_index(sys, mu_l[1]) if mu_l[0] == "h" else root_index(sys, mu_l[1])
    col = h_index(sys, nu_l[1]) if nu_l[0] == "h" else root_index(sys, nu_l[1])

    # factors in the order they act on a column vector (rightmost first)
    applied: list[tuple[str, int, Root]] = []
    for i in reversed(range(sys.m)):
        applied.append(("u", i, neg(sys.positive[i])))
    for i in reversed(range(sys.m)):
        applied.append(("t", i, sys.positive[i]))

    # state: ("x", root) or ("h", coefficient vector over h_1..h_l)
    if nu_l[0] == "h":
        start = ("h", tuple(1 if q == nu_l[1] else 0 for q in range(sys.rank)))
    else:
        start = ("x", nu_l[1])

    terms: list[tuple[int, tuple[tuple[str, int], ...]]] = []

    def final_coeff(state) -> int:
        if mu_l[0] == "h":
            return state[1][mu_l[1]] if state[0] == "h" else 0
        return 1 if state == mu_l else 0

    def step(state, r: Root):
        """One application of X_r: yields (new state, integer coefficient)."""
        if state[0] == "x":
            src = state[1]
            s = add(src, r)
            if sys.is_root(s):
                yield ("x", s), N.n(r, src)
            elif all(c == 0 for c in s):
                # [x_r, x_{-r}] = h_r; coroot coefficients = the coefficients of r
                yield ("h", tuple(r)), 1
        else:
            hv = state[1]
            c = -sum(h * sys.pairing(tuple(r), sys.simple[q]) for q, h in enumerate(hv))
            if c:
                yield ("x", tuple(r)), c

    def dfs(pos: int, state, coeff: int, used: list) -> None:
        if pos == len(applied):
            c = coeff * final_coeff(state)
            if c:
                terms.append((c, tuple(used)))
            return
        kind, idx, r = applied[pos]
        dfs(pos + 1, state, coeff, used)
        for st1, c1 in step(state, r):
            used.append((kind, idx))
            dfs(pos + 1, st1, coeff * c1, used)
            # quadratic term of the same factor: only the route through the
            # Cartan subspace survives, with an even product, so the series'
            # one half cancels to an integer
            for st2, c2 in step(st1, r):
                if c1 * c2 % 2:
                    raise ArithmeticError(f"odd quadratic coefficient {c1 * c2} at {r}: "
                                          "the series' one half does not cancel")
                used.append((kind, idx))
                dfs(pos + 1, st2, coeff * (c1 * c2 // 2), used)
                used.pop()
            used.pop()

    dfs(0, start, 1, [])
    merged: dict[tuple, int] = {}
    for c, fs in terms:
        merged[fs] = merged.get(fs, 0) + c
    final = tuple(
        (c, fs) for fs, c in sorted(merged.items(), key=lambda kv: (len(kv[0]), kv[0])) if c
    )
    return EntryFormula(
        system=sys.name,
        row=row,
        col=col,
        row_label=mu_l,
        col_label=nu_l,
        terms=final,
    )


def _cells(token):
    sys = system(token)
    labels = list(sys.roots) + [("h", i) for i in range(sys.rank)]
    return st.tuples(st.just(sys), st.sampled_from(labels), st.sampled_from(labels))


@settings(max_examples=60, deadline=None)
@given(st.one_of(_cells("A2"), _cells("A3"), _cells("D4")))
def test_entry_formula_equals_path_dfs(cell):
    sys, mu, nu = cell
    assert entry_formula(sys, mu, nu) == dfs_entry_formula(sys, mu, nu)




def test_entry_formula_rejects_odd_quadratic_coefficient():
    # the t^2 coefficient of an entry is X^2 / 2; an odd X^2 raises, it is
    # not floored
    from test_lie import odd_square_a2

    sys, _, _ = odd_square_a2()
    with pytest.raises(ArithmeticError, match="odd entry"):
        entry_formula(sys, neg((1, 1)), (1, 1))


@pytest.mark.parametrize("mu,nu,count", [
    ((-1, -2, -2, -3, -2, -1), (1, 2, 2, 3, 2, 1), 614),
    (("h", 0), ("h", 0), 4198),
])
def test_entry_formula_e6_matches_compose(mu, nu, count):
    sys = system("E6")
    ef = entry_formula(sys, mu, nu)
    assert len(ef.terms) == count
    ring = make_ring("gf:10007")
    rng = random.Random(50)
    f = FactoredElement(
        ring=ring,
        lam=ring.random_unit(rng),
        s=tuple(ring.random_unit(rng) for _ in range(sys.rank)),
        t=tuple(ring.random_element(rng) for _ in range(sys.m)),
        u=tuple(ring.random_element(rng) for _ in range(sys.m)),
    )
    assert ef.evaluate(sys, f) == compose(sys, f).mat.get(ef.row, ef.col)
