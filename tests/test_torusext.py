import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chevalley.group import x_elem
from chevalley.matrices import Mat
from chevalley.rings import RingError, make_ring
from chevalley.torusext import build_lift, coweight_exponents, lift_exponents, verify_lift
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


def conjugate(t: Mat, X: Mat) -> Mat:
    """t X t^-1 as `verify_lift` forms it."""
    return t @ X @ Mat.diagonal(t.ring, [e.inv() for e in t.diagonal_elems()])


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
    assert lift.element.mat.is_diagonal()
    S = lift.ring
    for e in lift.element.mat.diagonal_elems():
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
    diag, one = lift.element.mat.diagonal_elems(), lift.ring.one
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
    assert conjugate(Mat.diagonal(ring, diag), X) == reference_conjugate_by_diagonal(X, diag)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["A2", "A3", "D4", "E6"]), st.sampled_from(["zmod:5^2", "gf:7", "trunc:3:2"]),
       st.integers(0, 2**32 - 1))
def test_lift_conjugation_matches_reference(token, base, seed):
    # the lift over R or over an extension, against the pair-swap inverse the
    # deleted `torusext._torus_diagonals` passed
    sys, ring = system(token), make_ring(base)
    rng = random.Random(seed)
    lift = build_lift(sys, ring, ring.random_unit(rng))
    diag = lift.element.mat.diagonal_elems()
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
