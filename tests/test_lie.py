import itertools
import random

import numpy as np
import pytest

from chevalley.group import x_elem
from chevalley.lie import (
    StructureConstants,
    ad_x,
    ad_x_tables,
    basis_elements,
    index_of,
    jacobi_defect,
    root_index,
    structure_constants,
    t_matrix,
)
from chevalley.rings import make_ring
from chevalley.roots import add, build_root_system, height, neg, system
from chevalley.torusext import _off_identity


def brackets_match_ad(sys, N, a, b):
    """[ad x_a, ad x_b] equals the ad of the bracket table's [x_a, x_b]."""
    A, B = ad_x(sys, N, a), ad_x(sys, N, b)
    lhs = A @ B - B @ A
    rhs = np.zeros_like(lhs)
    for t, c in N.bracket(("x", a), ("x", b)).items():
        if t[0] == "x":
            rhs = rhs + c * ad_x(sys, N, t[1])
        else:
            d = np.zeros(sys.n, dtype=np.int64)
            for k, p in enumerate(sys.positive):
                d[2 * k] = sys.pairing(p, sys.simple[t[1]])
                d[2 * k + 1] = -d[2 * k]
            rhs = rhs + c * np.diag(d)
    return np.array_equal(lhs, rhs)


@pytest.mark.parametrize("token", ["A2", "A3", "D4"])
def test_structure_constant_signs(token):
    sys = system(token)
    N = structure_constants(sys)
    for a in sys.roots:
        for b in sys.roots:
            if sys.is_root(add(a, b)):
                assert N.n(a, b) in (1, -1)
                assert N.n(a, b) == -N.n(b, a)
                assert N.n(neg(a), neg(b)) == -N.n(a, b)


@pytest.mark.parametrize("token", ["A2", "A3", "D4"])
def test_jacobi_exhaustive_on_full_basis(token):
    sys = system(token)
    N = structure_constants(sys)
    basis = basis_elements(sys)
    for u, v, w in itertools.product(basis, repeat=3):
        assert not jacobi_defect(N, u, v, w), (u, v, w)


@pytest.mark.parametrize("token", ["E6", "E7", "E8"])
def test_jacobi_sampled_on_e_types(token):
    sys = system(token)
    N = structure_constants(sys)
    rng = random.Random(0)
    for _ in range(300):
        u, v, w = (("x", sys.roots[rng.randrange(len(sys.roots))]) for _ in range(3))
        assert not jacobi_defect(N, u, v, w)


@pytest.mark.parametrize("token", ["A2", "A3"])
def test_ad_is_a_representation(token):
    sys = system(token)
    N = structure_constants(sys)
    for a in sys.roots:
        for b in sys.roots:
            assert brackets_match_ad(sys, N, a, b)


def test_ad_is_a_representation_sampled_d4_e6():
    rng = random.Random(1)
    for token in ("D4", "E6"):
        sys = system(token)
        N = structure_constants(sys)
        for _ in range(40):
            a = sys.roots[rng.randrange(len(sys.roots))]
            b = sys.roots[rng.randrange(len(sys.roots))]
            assert brackets_match_ad(sys, N, a, b)


@pytest.mark.parametrize("token", ["A2", "D4", "E6"])
def test_ad_nilpotent_cube(token):
    sys = system(token)
    N = structure_constants(sys)
    for r in sys.roots[:16]:
        X = ad_x(sys, N, r)
        assert not (X @ X @ X).any()


@pytest.mark.parametrize("token", ["A2", "A3", "D4"])
def test_opposite_root_bracket_is_cartan(token):
    sys = system(token)
    N = structure_constants(sys)
    for r in sys.roots:
        A, B = ad_x(sys, N, r), ad_x(sys, N, neg(r))
        H = A @ B - B @ A
        # H_r scales x_beta by <beta, r>, so x_-beta by -<beta, r>
        pairings = [sign * sys.pairing(p, r) for p in sys.positive for sign in (1, -1)]
        assert np.array_equal(np.diag(H), pairings + [0] * sys.rank)
        assert np.array_equal(H, np.diag(np.diag(H)))


@pytest.mark.parametrize("token", ["A2", "A3", "D4"])
def test_torus_weight_commutation(token):
    sys = system(token)
    N = structure_constants(sys)
    for i in range(sys.rank):
        T = t_matrix(sys, i)
        assert np.trace(T) == 0
        for r in sys.roots:
            X = ad_x(sys, N, r)
            assert np.array_equal(T @ X - X @ T, r[i] * X)


def test_t_matrix_a2_displays():
    sys = system("A2")
    T1, T2 = t_matrix(sys, 0), t_matrix(sys, 1)
    def units(*pairs):
        M = np.zeros((8, 8), dtype=np.int64)
        for i, j, v in pairs:
            M[i - 1, j - 1] = v
        return M
    assert np.array_equal(T1, units((1, 1, 1), (2, 2, -1), (5, 5, 1), (6, 6, -1)))
    assert np.array_equal(T2, units((3, 3, 1), (4, 4, -1), (5, 5, 1), (6, 6, -1)))


def test_ad_sparsity_bound():
    sys = system("D4")
    N = structure_constants(sys)
    for r in sys.roots:
        X = ad_x(sys, N, r)
        assert np.count_nonzero(X) <= 2 * (sys.m + sys.rank)


def test_general_x_formula_structure():
    # X_a = e_{h_a, -a-col} - sum_q <a, a_q> e_{a-row, h_q-col} + root-to-root part
    sys = system("D4")
    N = structure_constants(sys)
    for a in sys.positive:
        X = ad_x(sys, N, a)
        arow = root_index(sys, a)
        nacol = root_index(sys, neg(a))
        for q in range(sys.rank):
            h = 2 * sys.m + q
            assert X[arow, h] == -sys.pairing(a, sys.simple[q])
            assert X[h, nacol] == a[q]  # coroot coefficients = root coefficients


# ---------------------------------------------------------------------------
# independent sl_{l+1} oracle for type A structure constants
# ---------------------------------------------------------------------------


def sl4_bracket_constants():
    """N-table for A_3 from raw 4x4 elementary-matrix brackets."""
    sys = system("A3")
    mats = {}
    for i in range(4):
        for j in range(4):
            if i != j:
                E = np.zeros((4, 4), dtype=np.int64)
                E[i, j] = 1
                # e_i - e_j in alpha coordinates
                root = tuple(
                    (1 if i <= q < j else 0) - (1 if j <= q < i else 0) for q in range(3)
                )
                coeffs = np.zeros(3, dtype=np.int64)
                for q in range(min(i, j), max(i, j)):
                    coeffs[q] = 1 if i < j else -1
                mats[tuple(int(c) for c in coeffs)] = E
    table = {}
    for a, Ea in mats.items():
        for b, Eb in mats.items():
            s = add(a, b)
            if s in mats:
                C = Ea @ Eb - Eb @ Ea
                coeff = int(C[np.nonzero(mats[s])][0])
                table[(a, b)] = coeff
    return table


def test_a3_constants_match_sl4_up_to_rescaling():
    sys = system("A3")
    N = structure_constants(sys)
    oracle = sl4_bracket_constants()
    # find a +-1 rescaling eps with eps(a)eps(-a) = 1 mapping one table to the other
    eps = {}
    for s in sys.simple:
        eps[s] = 1
        eps[neg(s)] = 1
    for g in sorted(sys.positive, key=height):
        if g in eps:
            continue
        for s in sys.simple:
            rest = tuple(x - y for x, y in zip(g, s))
            if rest in eps and sys.is_root(rest):
                eps[g] = eps[s] * eps[rest] * N.n(s, rest) * oracle[(s, rest)]
                eps[neg(g)] = eps[g]
                break
    for (a, b), val in oracle.items():
        s = add(a, b)
        assert N.n(a, b) * eps[a] * eps[b] == val * eps[s], (a, b)


def test_index_maps_round_trip():
    sys = system("D4")
    for k, el in enumerate(basis_elements(sys)):
        assert index_of(sys, el) == k


def test_a2_reference_display_relationship():
    """Pin this package's exact relation to the verbatim reference display.

    In this package's convention: the reference X_{+a3} coincides exactly;
    X_{+a1} coincides after moving one term to its transposed cell; X_{+a2}
    differs by the sign of its two root-to-root entries (the product
    N(a1, -a1-a2) N(a2, -a1-a2) = -1 in every Chevalley basis, while the
    reference shows + for both); and the reference negative-root matrices are
    the exact negatives of the adjoint matrices, the display's convention.
    These are the errata that acceptance criterion 1 proves forced before it
    compares against the corrected display; if the sign convention ever
    changes, this test localizes the difference.
    """
    from test_acceptance import REFERENCE_A2

    sys = system("A2")
    N = structure_constants(sys)
    assert N.n((1, 0), (-1, -1)) * N.n((0, 1), (-1, -1)) == -1

    mine = ad_x(sys, N, (1, 1))
    assert np.array_equal(mine, REFERENCE_A2["X+a3"])

    mine = ad_x(sys, N, (1, 0)).copy()
    mine[2, 4], mine[4, 2] = mine[4, 2], mine[2, 4]
    assert np.array_equal(mine, REFERENCE_A2["X+a1"])

    mine = ad_x(sys, N, (0, 1)).copy()
    mine[1, 5] *= -1
    mine[4, 0] *= -1
    assert np.array_equal(mine, REFERENCE_A2["X+a2"])

    for name, r in {"X-a1": (-1, 0), "X-a2": (0, -1), "X-a3": (-1, -1)}.items():
        assert np.array_equal(-ad_x(sys, N, r), REFERENCE_A2[name]), name


def odd_square_a2():
    """A2 with a bracket table skewed so that (ad x_a)^2 has an odd entry.

    x_r(t) = I + t X + t^2 X^2 / 2 is integral because X^2 is even.  A
    bracket table with [x_a, x_-a] = h_1 + h_2 at a = a_1 of A2 makes X^2
    send x_-a to -2 x_a + x_a, an odd entry.  Returns (sys, N, a) with N
    installed as the fresh system's structure constants.
    """
    a = (1, 0)

    class SkewedN(StructureConstants):
        def bracket(self, u, v):
            out = super().bracket(u, v)
            if (u, v) == (("x", a), ("x", neg(a))):
                out[("h", 1)] = 1
            return out

    sys = build_root_system.__wrapped__("A", 2)   # a fresh system, caches empty
    N = sys._ad_cache["N"] = SkewedN(sys)
    return sys, N, a


def test_odd_square_is_refused_once_in_ad_x_tables():
    # ad_x_tables refuses an odd square, and every user of the tables raises
    # rather than floor the half away
    sys, N, a = odd_square_a2()
    ring = make_ring("zmod:3^2")
    with pytest.raises(ArithmeticError, match="odd entry -1"):
        ad_x_tables(sys, N, a)
    users = [lambda: x_elem(sys, ring, a, ring.one),
             lambda: _off_identity(sys, ring, [a], [ring.one])]
    for use in users:
        with pytest.raises(ArithmeticError, match="odd entry"):
            use()
