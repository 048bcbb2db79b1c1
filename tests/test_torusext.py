import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chevalley.group import GroupElement, h_alpha, torus_diagonal, word_to_matrix, x_elem
from chevalley.lie import ad_x_tables, structure_constants
from chevalley.matrices import Mat
from chevalley.rings import RingError, make_ring
from chevalley.torusext import (LiftCheck, LiftReport, build_lift, coweight_exponents, lift_exponents,
                                verify_lift)
from chevalley.roots import system

Z125 = make_ring("zmod:5^3")


def reference_conjugate_by_diagonal(self, diag, inv=None):
    """The deleted `Mat.conjugate_by_diagonal`, verbatim: D self D^-1 for
    D = diag(diag), with `inv` the entries' inverses when given."""
    ring = self.ring
    if inv is None:
        inv = [e.inv() for e in diag]
    dvecs = np.stack([np.asarray(e.vec, dtype=np.int64) for e in diag], axis=1)
    dinv = np.stack([np.asarray(e.vec, dtype=np.int64) for e in inv], axis=1)
    left = ring.mat_elemmul(self.data, dvecs[:, :, None])
    return Mat(ring, ring.mat_elemmul(left, dinv[:, None, :]))


def diagonal_elems(M: Mat) -> list:
    """The diagonal entries of M, read from its dense stack."""
    return [M.get(i, i) for i in range(M.n)]


def is_diagonal(M: Mat) -> bool:
    """True iff every entry of M off the diagonal is zero."""
    off = M.data.copy()
    for d in range(off.shape[0]):
        np.fill_diagonal(off[d], 0)
    return not off.any()


def conjugate(t: Mat, X: Mat) -> Mat:
    """t X t^-1 as dense products, the way `reference_verify_lift` forms it."""
    return t @ X @ Mat.diagonal(t.ring, [e.inv().vec for e in diagonal_elems(t)])


@pytest.mark.parametrize("token,m,exps", [
    ("A2", 3, (2, 1)),
    ("A3", 4, (3, 2, 1)),
    ("D4", 2, (2, 2, 1, 1)),
    ("D5", 2, (2, 2, 2, 1, 1)),
    ("E6", 3, (4, 3, 5, 6, 4, 2)),
    ("E7", 1, (2, 2, 3, 4, 3, 2, 1)),
    ("E8", 1, (4, 5, 7, 10, 8, 6, 4, 2)),
])
def test_lift_exponent_tables(token, m, exps):
    sys = system(token)
    assert lift_exponents(sys) == (m, exps)
    # independent derivation: the first fundamental coweight cleared of denominators
    assert coweight_exponents(sys) == (m, exps)


def test_lift_with_r_one_is_identity():
    sys = system("A3")
    lift = build_lift(sys, Z125, Z125.one)
    assert lift.element.is_identity()


def test_lift_rejects_non_unit():
    with pytest.raises(RingError):
        build_lift(system("A3"), Z125, Z125.from_int(5))


@pytest.mark.parametrize("token", ["A3", "D4", "E6"])
def test_lift_verifies(token):
    sys = system(token)
    rng = random.Random(0)
    lift = build_lift(sys, Z125, Z125.from_int(2))
    report = verify_lift(lift, sys, rng)
    assert report.ok
    simple_checks = [c for c in report.checks if c.root in sys.simple]
    assert len(simple_checks) == sys.rank
    assert simple_checks[0].expected_power == 1
    assert all(c.expected_power == 0 for c in simple_checks[1:])


def test_lift_diagonal_and_unit_entries():
    sys = system("D4")
    lift = build_lift(sys, Z125, Z125.from_int(3))
    assert is_diagonal(lift.element.mat)
    S = lift.ring
    for e in diagonal_elems(lift.element.mat):
        assert S.is_unit_vec(e.vec)
    assert lift.gen ** lift.root_power == S.embed(lift.r)


def test_lift_action_telescopes_to_first_root_only():
    # conjugation multiplies the first simple-root generator by r and fixes the rest
    sys = system("D5")
    lift = build_lift(sys, Z125, Z125.from_int(7))
    S = lift.ring
    u = Z125.from_int(4)
    for i, s in enumerate(sys.simple):
        x = x_elem(sys, S, s, lift.embed(u))
        expected = lift.embed(u * Z125.from_int(7)) if i == 0 else lift.embed(u)
        assert conjugate(lift.element.mat, x.mat) == x_elem(sys, S, s, expected).mat


@pytest.mark.parametrize("token,base", [("A2", "zmod:5^3"), ("A3", "zmod:3^4"), ("D4", "trunc:3:3"),
                                        ("E6", "zmod:5^2"), ("E7", "gf:7")])
def test_lift_is_a_torus_diagonal(token, base):
    # chi(p) and chi(p)^-1 on each root pair and 1 on the Cartan rows: the
    # inverse is the pair swap, which `verify_lift` does not assume
    sys, ring = system(token), make_ring(base)
    lift = build_lift(sys, ring, ring.random_unit(random.Random(4)))
    diag, one = diagonal_elems(lift.element.mat), lift.ring.one
    assert all(diag[2 * k] * diag[2 * k + 1] == one for k in range(sys.m))
    assert diag[2 * sys.m:] == [one] * sys.rank


TORUS_RINGS = ["zmod:3^3", "gf:7", "trunc:3:3", "ext:zmod:5^2:2:3", "ext:trunc:3:2:1,1:2"]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["A2", "D4", "E6"]), st.sampled_from(TORUS_RINGS), st.integers(0, 2**32 - 1),
       st.booleans())
def test_diagonal_conjugation_matches_reference(token, desc, seed, generator):
    # any unit diagonal, with a generator (structured step) or a dense middle factor
    sys, ring = system(token), make_ring(desc)
    rng = random.Random(seed)
    diag = [ring.random_unit(rng) for _ in range(sys.n)]
    if generator:
        X = x_elem(sys, ring, rng.choice(sys.roots), ring.random_element(rng)).mat
    else:
        data = np.random.default_rng(seed).integers(0, ring.q, (ring.depth, sys.n, sys.n))
        X = Mat(ring, data, reduce=False)
    assert conjugate(Mat.diagonal(ring, [e.vec for e in diag]), X) == reference_conjugate_by_diagonal(X, diag)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["A2", "A3", "D4", "E6"]), st.sampled_from(["zmod:5^2", "gf:7", "trunc:3:2"]),
       st.integers(0, 2**32 - 1))
def test_lift_conjugation_matches_reference(token, base, seed):
    # the lift over R or over an extension, against the pair-swap inverse the
    # deleted `torusext._torus_diagonals` passed
    sys, ring = system(token), make_ring(base)
    rng = random.Random(seed)
    lift = build_lift(sys, ring, ring.random_unit(rng))
    diag = diagonal_elems(lift.element.mat)
    swap = [diag[k ^ 1] for k in range(2 * sys.m)] + diag[2 * sys.m:]
    x = x_elem(sys, lift.ring, rng.choice(sys.roots), lift.embed(ring.random_element(rng)))
    assert conjugate(lift.element.mat, x.mat) == reference_conjugate_by_diagonal(x.mat, diag, swap)


@pytest.mark.parametrize("token", ["A2", "D4"])
def test_lift_over_z81(token):
    ring = make_ring("zmod:3^4")
    sys = system(token)
    rng = random.Random(5)
    for _ in range(3):
        lift = build_lift(sys, ring, ring.random_unit(rng))
        assert verify_lift(lift, sys, rng, general_roots=6).ok


def test_e7_lift_needs_no_extension():
    sys = system("E7")
    lift = build_lift(sys, Z125, Z125.from_int(2))
    assert lift.ring is Z125
    rng = random.Random(2)
    assert verify_lift(lift, sys, rng, general_roots=5).ok


def test_e8_lift_reaches_power_two():
    sys = system("E8")
    lift = build_lift(sys, Z125, Z125.from_int(2))
    rng = random.Random(3)
    report = verify_lift(lift, sys, rng, general_roots=5)
    assert report.ok
    assert max(abs(c.expected_power) for c in report.checks) == 2


@pytest.mark.parametrize("token", ["A3", "D4", "E6", "E7"])
@pytest.mark.parametrize("base", ["zmod:5^2", "trunc:3:2"])
def test_lift_equals_product_of_h_alpha_and_its_word(token, base):
    # root powers 4, 2, 3 and 1: the product the lift was built as before its
    # characters were multiplied value by value
    sys, ring = system(token), make_ring(base)
    lift = build_lift(sys, ring, ring.random_unit(random.Random(6)))
    S, s = lift.ring, lift.gen
    old = GroupElement.identity(sys, S)
    for alpha, e in zip(sys.simple, lift.exponents):
        old = old @ h_alpha(sys, S, alpha, s**e)
    assert lift.element.word == old.word
    assert lift.element.mat == old.mat
    assert lift.element.mat == word_to_matrix(sys, S, lift.element.word)
    assert lift.character == (lift.embed(lift.r),) + (S.one,) * (sys.rank - 1)


def reference_verify_lift(lift, sys, rng, *, general_roots=20):
    """The deleted dense `verify_lift`, verbatim: t x_a(u) t^-1 formed by n x n
    products and compared with x_a(r^k u) in full."""
    S, base = lift.ring, lift.base
    t = lift.element.mat
    t_inv = Mat.diagonal(S, torus_diagonal(sys, S, tuple(v.inv() for v in lift.character)))
    checks: list[LiftCheck] = []
    sample = list(sys.simple)
    others = [r for r in sys.roots if r not in sys.simple]
    kmax = max(others, key=lambda r: r[0])
    sample.append(kmax)
    for _ in range(max(0, general_roots - 1)):
        sample.append(others[rng.randrange(len(others))])
    for root in sample:
        k = root[0]
        u = base.random_element(rng)
        x = x_elem(sys, S, root, lift.embed(u))
        lhs = t @ x.mat @ t_inv
        rhs = x_elem(sys, S, root, lift.embed((lift.r**k) * u))
        checks.append(LiftCheck(root=root, expected_power=k, ok=lhs == rhs.mat))
    return LiftReport(system=sys.name, checks=tuple(checks))


def corrupted_lifts(lift, sys):
    """The lift itself and three broken copies: a wrong r; t and its
    character both off by 2 on alpha_2; and a character that is not t's."""
    S = lift.ring
    chi = list(lift.character)
    chi[1] = chi[1] * S.from_int(2)
    chi = tuple(chi)
    t = GroupElement(sys, S, Mat.diagonal(S, torus_diagonal(sys, S, chi)), (("h", chi),))
    return {
        "good": lift,
        "wrong r": replace(lift, r=lift.r * lift.base.from_int(2)),
        "perturbed character": replace(lift, character=chi, element=t),
        "mismatched character": replace(lift, character=chi),
    }


# lifts into an extension over zmod, gf and trunc bases (m = 4, 3, 2, 2)
# and one in the base ring (E7, m = 1)
@pytest.mark.parametrize("token,base", [("A3", "gf:7"), ("E6", "zmod:5^2"), ("D4", "trunc:3:2"),
                                        ("D5", "zmod:3^2"), ("E7", "zmod:5^2")])
def test_support_check_agrees_with_dense_reference(token, base):
    sys, ring = system(token), make_ring(base)
    lift = build_lift(sys, ring, ring.random_unit(random.Random(token)))
    for name, case in corrupted_lifts(lift, sys).items():
        got = verify_lift(case, sys, random.Random(11), general_roots=8)
        want = reference_verify_lift(case, sys, random.Random(11), general_roots=8)
        assert [c.root for c in got.checks] == [c.root for c in want.checks]
        assert [c.ok for c in got.checks] == [c.ok for c in want.checks], name
        oks = {c.ok for c in got.checks}
        # a wrong r shows on roots with an alpha_1 coefficient, a perturbed
        # character on those with an alpha_2 one, a mismatched one everywhere
        assert oks == {"good": {True}, "mismatched character": {False}}.get(name, {True, False}), name


@pytest.mark.parametrize("token", ["A2", "A4", "A8", "D4", "D6", "D8", "E6", "E7", "E8"])
def test_generator_tables_stay_off_the_diagonal_and_apart(token):
    # so the entries `torusext._off_identity` reads from x_a(t)'s two tables are
    # off the diagonal and never need summing
    sys = system(token)
    N = structure_constants(sys)
    for r in sys.roots:
        X, X2 = ad_x_tables(sys, N, r)
        cells = [set(zip(A.dst.tolist(), A.src.tolist())) for A in (X, X2)]
        assert len(cells[0]) == len(X.dst) and len(cells[1]) == len(X2.dst)
        assert not cells[0] & cells[1]
        assert all(i != j for i, j in cells[0] | cells[1])
