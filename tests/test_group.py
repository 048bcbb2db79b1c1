import random
import re
from functools import lru_cache

import numpy as np
import pytest

from chevalley import group, lie
from chevalley.group import (
    Character,
    GroupElement,
    _char_mat,
    _factor_matrix,
    _x_mat,
    apply_diagram,
    check_torus_conjugation,
    commutator_check,
    congruence_member,
    diagram_automorphisms,
    graph_matrix,
    h_alpha,
    h_elem,
    scalar_elem,
    t_k,
    torus_diagonal,
    word_to_json,
    word_to_matrix,
    x_elem,
)
from chevalley.lie import StructureConstants, ad_x, ad_x_tables, h_index, root_index, structure_constants
from chevalley.matrices import Mat
from chevalley.rings import Ring, RingError, make_ring
from chevalley.roots import add, build_root_system, neg, sub, system
from chevalley.suites import suite_graph

A2 = system("A2")
Z81 = make_ring("zmod:3^4")


def test_x_at_zero_is_identity():
    assert x_elem(A2, Z81, (1, 0), Z81.zero).is_identity()


def test_one_parameter_subgroup():
    rng = random.Random(0)
    for _ in range(20):
        t, u = Z81.random_element(rng), Z81.random_element(rng)
        r = A2.roots[rng.randrange(6)]
        assert x_elem(A2, Z81, r, t) @ x_elem(A2, Z81, r, u) == x_elem(A2, Z81, r, t + u)
        assert x_elem(A2, Z81, r, t).inverse() == x_elem(A2, Z81, r, -t)


def test_x_elem_cartan_entry():
    # x_{a_1}(1) reaches h_1 from the negative-root column with coefficient 1
    g = x_elem(A2, Z81, (1, 0), Z81.one)
    assert g.mat.get(h_index(A2, 0), root_index(A2, (-1, 0))) == Z81.one


def test_torus_trivial_character():
    chi = Character(Z81, (Z81.one, Z81.one))
    assert h_elem(A2, chi).is_identity()


def test_torus_diagonal_values():
    rng = random.Random(1)
    s1, s2 = Z81.random_unit(rng), Z81.random_unit(rng)
    g = t_k(A2, Z81, 0, s1) @ t_k(A2, Z81, 1, s2)
    assert g.mat.get(root_index(A2, (-1, 0)), root_index(A2, (-1, 0))) == s1.inv()
    assert g.mat.get(root_index(A2, (-1, -1)), root_index(A2, (-1, -1))) == (s1 * s2).inv()
    assert g.mat.get(h_index(A2, 0), h_index(A2, 0)) == Z81.one


def test_torus_conjugation_hand_case():
    # chi = chi_{alpha_1, u} conjugates x_{alpha_2}(xi) to x_{alpha_2}(u^{-1} xi)
    rng = random.Random(2)
    u, xi = Z81.random_unit(rng), Z81.random_element(rng)
    h = h_alpha(A2, Z81, (1, 0), u)
    lhs = h @ x_elem(A2, Z81, (0, 1), xi) @ h.inverse()
    assert A2.pairing((0, 1), (1, 0)) == -1
    assert lhs == x_elem(A2, Z81, (0, 1), u.inv() * xi)


@pytest.mark.parametrize("token,ring_desc", [("A2", "zmod:3^4"), ("A3", "zmod:3^2"), ("D4", "gf:5")])
def test_torus_conjugation_all_roots(token, ring_desc):
    sys = system(token)
    ring = make_ring(ring_desc)
    rng = random.Random(3)
    for _ in range(5):
        chi = Character(ring, tuple(ring.random_unit(rng) for _ in range(sys.rank)))
        xi = ring.random_element(rng)
        for beta in sys.roots:
            assert check_torus_conjugation(sys, chi, beta, xi)


def test_torus_conjugation_sampled_e6():
    sys = system("E6")
    ring = make_ring("zmod:3^2")
    rng = random.Random(12)
    for _ in range(3):
        chi = Character(ring, tuple(ring.random_unit(rng) for _ in range(sys.rank)))
        xi = ring.random_element(rng)
        for _ in range(10):
            beta = sys.roots[rng.randrange(len(sys.roots))]
            assert check_torus_conjugation(sys, chi, beta, xi)


def test_character_rejects_non_units():
    with pytest.raises(RingError):
        Character(Z81, (Z81.from_int(3), Z81.one))


def reference_t_k(sys, ring, k, x):
    """The deleted walk of `t_k`, verbatim: the torus element of the character
    that is x on alpha_k and 1 on the other simples."""
    values = tuple(x if i == k else ring.one for i in range(sys.rank))
    return h_elem(sys, Character(ring, values))


TORUS_RINGS = ["zmod:3^3", "gf:7", "trunc:3:3", "ext:zmod:5^2:2:3", "ext:trunc:3:2:1,1:2"]


@pytest.mark.parametrize("desc", TORUS_RINGS)
@pytest.mark.parametrize("token", ["A2", "A5", "D4", "D6", "E6", "E7", "E8"])
def test_t_k_matches_character_walk(token, desc):
    # E8's root coefficients reach 6, so its power tables are the longest
    sys, ring = system(token), make_ring(desc)
    rng = random.Random(f"{token}/{desc}")
    for k in range(sys.rank):
        x = ring.random_unit(rng)
        got, want = t_k(sys, ring, k, x), reference_t_k(sys, ring, k, x)
        assert got.word == want.word
        assert got.mat == want.mat
        assert got.mat.factor[0] == "diag"
    with pytest.raises(RingError):
        t_k(sys, ring, sys.rank - 1, ring.random_radical(rng))


@lru_cache(maxsize=None)
def reference_root_splits(kind, rank):
    """The deleted `group._root_splits`, verbatim: p -> (q, i) with
    p = q + a_i and q a root, for every non-simple positive root p."""
    sys = build_root_system(kind, rank)
    return {p: next((sub(p, s), i) for i, s in enumerate(sys.simple) if p[i] and sys.is_root(sub(p, s)))
            for p in sys.positive if p not in sys.simple}


def reference_torus_diagonal(sys, ring, values):
    """The deleted `group.torus_diagonal` walk on ring elements, verbatim."""
    splits = reference_root_splits(sys.kind, sys.rank)
    pairs = {s: (v, v.inv()) for s, v in zip(sys.simple, values)}
    diag = []
    for p in sys.positive:
        if p not in pairs:
            q, i = splits[p]
            (v, w), (vi, wi) = pairs[q], pairs[sys.simple[i]]
            pairs[p] = (v * vi, w * wi)
        diag += pairs[p]
    return diag + [ring.one] * sys.rank


@lru_cache(maxsize=None)
def reference_t_k_powers(kind, rank, k):
    """The deleted `group._t_k_powers`, verbatim."""
    sys = build_root_system(kind, rank)
    return tuple(e for p in sys.positive for e in (p[k], -p[k])) + (0,) * rank


def reference_power_table_t_k(sys, ring, k, x):
    """The deleted body of `t_k`, verbatim but for the `.vec` that
    `Mat.diagonal` now takes: the diagonal read from a table of the powers
    of x and of x^-1."""
    if not 0 <= k < sys.rank:
        raise ValueError(f"simple-root index {k} out of range")
    powers = reference_t_k_powers(sys.kind, sys.rank, k)
    x_inv = x.inv()  # the unit check: RingError when x is no unit
    table = {0: ring.one}
    for e in range(1, max(powers) + 1):
        table[e], table[-e] = table[e - 1] * x, table[1 - e] * x_inv
    values = tuple(x if i == k else ring.one for i in range(sys.rank))
    return GroupElement(sys, ring, Mat.diagonal(ring, [table[e].vec for e in powers]), (("h", values),))


def sample_characters(sys, ring, rng):
    """Characters on the simple roots: all values 1; one value other than 1
    on each simple root in turn; general units; and general units with
    every other value 1."""
    one, l = ring.one, sys.rank
    out = [(one,) * l]
    out += [tuple(ring.random_unit(rng) if i == k else one for i in range(l)) for k in range(l)]
    out += [tuple(ring.random_unit(rng) for _ in range(l)) for _ in range(3)]
    out.append(tuple(ring.random_unit(rng) if i % 2 else one for i in range(l)))
    return out


@pytest.mark.parametrize("desc", TORUS_RINGS)
@pytest.mark.parametrize("token", ["A2", "D4", "E6", "E7", "E8"])
def test_torus_diagonal_matches_element_walk(token, desc):
    sys, ring = system(token), make_ring(desc)
    rng = random.Random(f"walk/{token}/{desc}")
    for values in sample_characters(sys, ring, rng):
        want = reference_torus_diagonal(sys, ring, values)
        assert torus_diagonal(sys, ring, values) == [e.vec for e in want]
        assert _char_mat(sys, ring, values) == Mat.diagonal(ring, [e.vec for e in want])
    # a non-unit value: the same RingError, with the same message
    values = tuple(ring.random_radical(rng) if i == sys.rank - 1 else ring.random_unit(rng)
                   for i in range(sys.rank))
    with pytest.raises(RingError) as want:
        reference_torus_diagonal(sys, ring, values)
    with pytest.raises(RingError, match=f"^{re.escape(str(want.value))}$"):
        torus_diagonal(sys, ring, values)


@pytest.mark.parametrize("desc", TORUS_RINGS)
@pytest.mark.parametrize("token", ["A2", "D4", "E6", "E7", "E8"])
def test_t_k_matches_power_table(token, desc):
    sys, ring = system(token), make_ring(desc)
    rng = random.Random(f"table/{token}/{desc}")
    for k in range(sys.rank):
        for x in (ring.random_unit(rng), ring.one):
            got, want = t_k(sys, ring, k, x), reference_power_table_t_k(sys, ring, k, x)
            assert got.word == want.word
            assert got.mat.factor[0] == "diag"
            assert np.array_equal(got.mat.factor[1], want.mat.factor[1])
        x = ring.random_radical(rng)
        with pytest.raises(RingError) as want:
            reference_power_table_t_k(sys, ring, k, x)
        with pytest.raises(RingError, match=f"^{re.escape(str(want.value))}$"):
            t_k(sys, ring, k, x)


@pytest.mark.parametrize("k", [-1, 2, 5])
def test_t_k_rejects_an_index_out_of_range(k):
    ring = make_ring("zmod:3^3")
    with pytest.raises(ValueError, match="out of range"):
        t_k(A2, ring, k, ring.from_int(2))


def commutator(g, h):
    """The deleted `group.commutator`, verbatim."""
    return g @ h @ g.inverse() @ h.inverse()


def reference_commutator_check(sys, ring, a, b, t, u):
    """The deleted dense `group.commutator_check`, verbatim: the commutator
    of two whole generator elements, compared with x_{a+b}(N t u) or the
    identity formed in full."""
    a, b = tuple(a), tuple(b)
    if a == neg(b):
        raise ValueError("opposite roots are outside the commutator identity")
    c = commutator(x_elem(sys, ring, a, t), x_elem(sys, ring, b, u))
    s = add(a, b)
    if sys.is_root(s):
        N = structure_constants(sys)
        return c == x_elem(sys, ring, s, ring.from_int(N.n(a, b)) * t * u)
    return c.is_identity()


COMMUTATOR_RINGS = ["zmod:3^3", "gf:3", "gf:7", "trunc:3:3", "ext:zmod:5^2:2:3"]


def commutator_pairs(token):
    """Every ordered pair a != +-b at A2 and D4, a seeded sample of 200 at E6."""
    sys = system(token)
    pairs = [(a, b) for a in sys.roots for b in sys.roots if a != b and a != neg(b)]
    return sys, pairs if sys.n < 78 else random.Random(23).sample(pairs, 200)


@pytest.mark.parametrize("desc", COMMUTATOR_RINGS)
@pytest.mark.parametrize("token", ["A2", "D4", "E6"])
def test_commutator_check_equals_the_dense_reference(token, desc):
    sys, pairs = commutator_pairs(token)
    ring = make_ring(desc)
    rng = random.Random(31)
    for a, b in pairs:
        u = ring.random_element(rng)
        for t in (ring.random_element(rng), ring.zero):
            got = commutator_check(sys, ring, a, b, t, u)
            assert got == reference_commutator_check(sys, ring, a, b, t, u)
            assert got


@pytest.mark.parametrize("desc", COMMUTATOR_RINGS)
@pytest.mark.parametrize("token", ["A2", "D4", "E6"])
def test_a_wrong_structure_constant_sign_is_rejected(token, desc, monkeypatch):
    # every table is built before N(a, b) is flipped, so only the law's
    # x_{a+b}(N t u) sees the wrong sign; with units t and u, 2 N t u != 0
    sys, pairs = commutator_pairs(token)
    ring = make_ring(desc)
    N = structure_constants(sys)
    for r in sys.roots:
        ad_x_tables(sys, N, r)
    n = StructureConstants.n
    monkeypatch.setattr(StructureConstants, "n", lambda self, a, b: -n(self, a, b))
    rng = random.Random(37)
    for a, b in pairs:
        t, u = ring.random_unit(rng), ring.random_unit(rng)
        want = not sys.is_root(add(a, b))
        assert commutator_check(sys, ring, a, b, t, u) is want
        assert reference_commutator_check(sys, ring, a, b, t, u) is want


def test_commutator_check_multiplies_row_stacks_only(monkeypatch):
    # at E6 every product inside the check has a row stack of fewer than n
    # rows on its left and an unformed generator on its right, and every
    # identity is built on rows
    sys, pairs = commutator_pairs("E6")
    ring = make_ring("zmod:3^2")
    identities, products = [], []
    identity, matmul = Mat.identity.__func__, Mat.__matmul__

    def recording_identity(cls, ring, n, rows=None):
        identities.append(rows)
        return identity(cls, ring, n, rows)

    def recording_matmul(self, other):
        products.append((self.n if self._data is None else self._data.shape[1], other._data is None,
                         other.factor is not None and other.factor[0]))
        return matmul(self, other)

    monkeypatch.setattr(Mat, "identity", classmethod(recording_identity))
    monkeypatch.setattr(Mat, "__matmul__", recording_matmul)
    N, rng = structure_constants(sys), random.Random(41)
    for a, b in pairs[:40]:
        identities.clear()
        assert commutator_check(sys, ring, a, b, ring.random_element(rng), ring.random_element(rng))
        # the rows kept cover every row a factor of the word moves
        roots = [a, b, add(a, b)] if sys.is_root(add(a, b)) else [a, b]
        moved = {i for r in roots for A in ad_x_tables(sys, N, r) for i in A.dst.tolist()}
        assert identities and all(rows is not None and moved <= set(rows.tolist()) for rows in identities)
        assert all(len(rows) < sys.n for rows in identities)
    assert len(products) >= 4 * 40
    assert all(rows < sys.n and unformed and kind == "unipotent" for rows, unformed, kind in products)


def test_commutator_identities_a2():
    rng = random.Random(4)
    t = Z81.random_element(rng)
    # [x_{a1}(t), x_{a2}(1)] = x_{a1+a2}(N t)
    assert commutator_check(A2, Z81, (1, 0), (0, 1), t, Z81.one)
    assert commutator(x_elem(A2, Z81, (1, 0), t), x_elem(A2, Z81, (0, 1), Z81.zero)).is_identity()


def test_commutator_orthogonal_pair_is_identity():
    sys = system("A3")
    ring = make_ring("zmod:3^2")
    rng = random.Random(5)
    a, b = (1, 0, 0), (0, 0, 1)
    assert sys.pairing(a, b) == 0
    assert commutator_check(sys, ring, a, b, ring.random_element(rng), ring.random_element(rng))


def test_commutator_all_pairs_a3():
    sys = system("A3")
    ring = make_ring("zmod:3^2")
    rng = random.Random(6)
    for a in sys.roots:
        for b in sys.roots:
            if a == b or a == neg(b):
                continue
            assert commutator_check(sys, ring, a, b, ring.random_element(rng), ring.random_element(rng))


def test_congruence_membership():
    assert congruence_member(GroupElement.identity(A2, Z81))
    assert congruence_member(x_elem(A2, Z81, (1, 0), Z81.from_int(3)))
    assert not congruence_member(x_elem(A2, Z81, (1, 0), Z81.one))


def test_word_matrix_consistency_random_words():
    rng = random.Random(7)
    sys = system("A3")
    ring = make_ring("trunc:3:2")
    for _ in range(10):
        g = GroupElement.identity(sys, ring)
        for _ in range(rng.randrange(1, 20)):
            kind = rng.randrange(3)
            if kind == 0:
                g = g @ x_elem(sys, ring, sys.roots[rng.randrange(len(sys.roots))], ring.random_element(rng))
            elif kind == 1:
                g = g @ h_elem(sys, Character(ring, tuple(ring.random_unit(rng) for _ in range(sys.rank))))
            else:
                g = g @ scalar_elem(sys, ring, ring.random_unit(rng))
        assert word_to_matrix(sys, ring, g.word) == g.mat
        assert (g @ g.inverse()).is_identity()
        assert_same_element(g.inverse(), reference_inverse(g))


def reference_factor_inverse(sys, ring, f):
    """One factor's inverse as an element of its own, its matrix built beside
    `_factor_matrix`: the rule before words were inverted as data."""
    if f[0] == "x":
        return GroupElement(sys, ring, _x_mat(sys, ring, f[1], -f[2]), (("x", f[1], -f[2]),))
    if f[0] == "h":
        vals = tuple(v.inv() for v in f[1])
        return GroupElement(sys, ring, _char_mat(sys, ring, vals), (("h", vals),))
    if f[0] == "scalar":
        lam = f[1].inv()
        return GroupElement(sys, ring, Mat.diagonal(ring, [lam.vec] * sys.n), (("scalar", lam),))
    # signed permutation: the inverse is the transpose
    data = dict(f[2])
    data["inv"] = not f[2].get("inv")
    return GroupElement(sys, ring, _factor_matrix(sys, ring, ("perm", f[1], data)), (("perm", f[1], data),))


def reference_inverse(g):
    inv = GroupElement.identity(g.sys, g.ring)
    for f in reversed(g.word):
        inv = inv @ reference_factor_inverse(g.sys, g.ring, f)
    return inv


def assert_same_element(g, h):
    assert g.mat == h.mat
    assert word_to_json(g.ring, g.word) == word_to_json(h.ring, h.word)
    # and each permutation factor holds the same integer arrays
    perms = [[f[2] for f in e.word if f[0] == "perm"] for e in (g, h)]
    assert all(a["pi"] is b["pi"] and a["sigma"] is b["sigma"] for a, b in zip(*perms))


@pytest.mark.parametrize("token,name", [("D4", "triality"), ("E6", "flip")])
@pytest.mark.parametrize("desc", ["zmod:3^3", "gf:7", "trunc:3:3", "ext:zmod:5^2:2:3"])
def test_inverse_word_matches_the_factor_by_factor_reference(token, name, desc):
    # words that mix every factor kind, a diagram factor and its inverse too
    rng = random.Random(11)
    sys, ring = system(token), make_ring(desc)
    A = graph_matrix(sys, ring, name)
    for _ in range(3):
        g = GroupElement.identity(sys, ring)
        for _ in range(rng.randrange(1, 10)):
            kind = rng.randrange(5)
            if kind == 0:
                g = g @ x_elem(sys, ring, sys.roots[rng.randrange(len(sys.roots))], ring.random_element(rng))
            elif kind == 1:
                g = g @ h_elem(sys, Character(ring, tuple(ring.random_unit(rng) for _ in range(sys.rank))))
            elif kind == 2:
                g = g @ scalar_elem(sys, ring, ring.random_unit(rng))
            else:
                g = g @ (A if kind == 3 else reference_inverse(A))
        assert_same_element(g.inverse(), reference_inverse(g))
        assert (g @ g.inverse()).is_identity()


def test_wordless_inverse_is_refused():
    # an element with no word has no inverse here: words are the one path
    g = x_elem(A2, Z81, (1, 1), Z81.from_int(3)) @ x_elem(A2, Z81, (-1, 0), Z81.from_int(6))
    with pytest.raises(RingError, match="no generator word"):
        GroupElement(A2, Z81, g.mat, None).inverse()


def one_factor_elements(sys, ring, rng):
    """(element, factor kind) for one element of each one-factor constructor."""
    root = sys.roots[rng.randrange(len(sys.roots))]
    return [
        (x_elem(sys, ring, root, ring.random_element(rng)), "unipotent"),
        (t_k(sys, ring, rng.randrange(sys.rank), ring.random_unit(rng)), "diag"),
        (h_elem(sys, Character(ring, tuple(ring.random_unit(rng) for _ in range(sys.rank)))), "diag"),
        (scalar_elem(sys, ring, ring.random_unit(rng)), "diag"),
    ]


@pytest.mark.parametrize("token", ["A2", "D4", "E6"])
@pytest.mark.parametrize("desc", ["zmod:3^3", "gf:7", "trunc:3:3", "ext:zmod:5^2:2:3"])
def test_one_factor_inverse_keeps_its_factor(token, desc):
    # the inverse of a one-factor word is that factor's own matrix, not the
    # identity times it, and equals the identity-times-factor reference
    rng = random.Random(12)
    sys, ring = system(token), make_ring(desc)
    for g, kind in one_factor_elements(sys, ring, rng):
        inv = g.inverse()
        assert inv.mat.factor is not None and inv.mat.factor[0] == kind
        want = Mat.identity(ring, sys.n) @ _factor_matrix(sys, ring, inv.word[0])
        assert want.factor is None
        assert inv.mat == want
        assert (g @ inv).is_identity() and (inv @ g).is_identity()


def test_scalar_elements():
    rng = random.Random(9)
    lam = Z81.random_unit(rng)
    g = scalar_elem(A2, Z81, lam)
    assert g.mat.get(0, 0) == lam
    with pytest.raises(RingError):
        scalar_elem(A2, Z81, Z81.from_int(3))


# ---------------------------------------------------------------------------
# diagram automorphisms
# ---------------------------------------------------------------------------


def test_identity_graph_matrix_is_identity_permutation():
    g = graph_matrix(A2, Z81, "identity")
    assert (g @ g.inverse()).is_identity()
    for r in A2.roots:
        x = x_elem(A2, Z81, r, Z81.one)
        assert g @ x @ g.inverse() == x


def test_a3_flip_acts_on_generators():
    sys = system("A3")
    ring = make_ring("zmod:3^2")
    A = graph_matrix(sys, ring, "flip")
    rng = random.Random(10)
    t = ring.random_element(rng)
    lhs = A @ x_elem(sys, ring, (1, 0, 0), t) @ A.inverse()
    assert lhs == x_elem(sys, ring, (0, 0, 1), t)
    # applying the flip twice fixes every generator
    AA = A @ A
    for r in sys.roots:
        x = x_elem(sys, ring, r, ring.one)
        assert AA @ x @ AA.inverse() == x


@pytest.mark.parametrize("token,name", [("A2", "flip"), ("A3", "flip"), ("D4", "swap"),
                                        ("D4", "triality"), ("E6", "flip"), ("D5", "swap")])
def test_graph_conjugation_permutes_generators(token, name):
    sys = system(token)
    ring = make_ring("zmod:3^2")
    perm = diagram_automorphisms(sys)[name]
    A = graph_matrix(sys, ring, name)
    Ainv = A.inverse()
    for r in sys.roots:
        conj = A @ x_elem(sys, ring, r, ring.one) @ Ainv
        img = apply_diagram(perm, r)
        assert conj in (x_elem(sys, ring, img, ring.one), x_elem(sys, ring, img, -ring.one))
        if r in sys.simple:
            assert conj == x_elem(sys, ring, img, ring.one)


def test_graph_rejects_non_symmetry():
    with pytest.raises(ValueError):
        graph_matrix(system("A3"), Z81, (1, 0, 2))
    with pytest.raises(ValueError):
        graph_matrix(A2, Z81, "triality")


def reference_graph_int_matrix(sys, perm):
    """The deleted dense build of the diagram matrix, verbatim but for the
    cache: the integer signed permutation, checked by dense products
    A X_r A^T = eps(r) X_{delta r}."""
    group._check_diagram_symmetry(sys, perm)
    eps = group._graph_signs(sys, perm)
    n = sys.n
    A = np.zeros((n, n), dtype=np.int64)
    for r in sys.roots:
        A[root_index(sys, apply_diagram(perm, r)), root_index(sys, r)] = eps[r]
    for i in range(sys.rank):
        A[h_index(sys, perm[i]), h_index(sys, i)] = 1
    N = structure_constants(sys)
    for r in sys.roots:
        lhs = A @ ad_x(sys, N, r) @ A.T
        if not np.array_equal(lhs, eps[r] * ad_x(sys, N, apply_diagram(perm, r))):
            raise RuntimeError(f"diagram matrix fails on {r}")
    return A


def reference_lift(ring, intmat) -> Mat:
    """The deleted `Ring.lift_int_matrix`: the integers in slot 0, reduced."""
    out = np.zeros((ring.depth,) + intmat.shape, dtype=np.int64)
    out[0] = intmat
    return Mat(ring, out)


def test_graph_matrix_is_built_and_checked_once(monkeypatch):
    # the signed permutation is cached per system and symmetry: repeated
    # calls, over any ring, run its conjugation check on the tables once,
    # and its matrix, or the transpose for the inverse, is the dense
    # integer build lifted to the ring
    group._graph_signed_perm.cache_clear()
    checks = []
    tables = group.ad_x_tables
    monkeypatch.setattr(group, "ad_x_tables", lambda *args: checks.append(args[2]) or tables(*args))
    sys, trunc = system("D4"), make_ring("trunc:3:3")
    first = graph_matrix(sys, Z81, "triality")
    assert len(checks) == 2 * len(sys.roots)
    f = first.word[0][2]
    assert not f["pi"].flags.writeable and not f["sigma"].flags.writeable
    A = reference_graph_int_matrix(sys, diagram_automorphisms(sys)["triality"])
    for desc in ["zmod:3^4", "gf:3", "gf:7", "trunc:3:3", "ext:zmod:5^2:2:3", "zmod:3^4"]:
        ring = make_ring(desc)
        again = graph_matrix(sys, ring, "triality")
        assert again.word[0][2]["pi"] is f["pi"] and again.word[0][2]["sigma"] is f["sigma"]
        assert again.mat == reference_lift(ring, A)
        assert again.inverse().mat == reference_lift(ring, A.T)
    assert graph_matrix(sys, Z81, (2, 1, 3, 0)).mat == first.mat
    assert len(checks) == 2 * len(sys.roots)
    # another symmetry of the same system is built and checked on its own
    graph_matrix(sys, trunc, "swap")
    assert len(checks) == 4 * len(sys.roots)


def test_graph_check_forms_no_dense_product(monkeypatch):
    # the diagram matrix's self-check and the graph suite read the
    # generator tables: no dense ad x_r and no ring matrix product
    def refuse(*args):
        raise AssertionError("dense product")

    monkeypatch.setattr(lie, "ad_x", refuse)
    monkeypatch.setattr(group, "ad_x", refuse, raising=False)
    monkeypatch.setattr(Ring, "mat_mul", refuse)
    for token, desc in [("D4", "zmod:3^2"), ("E6", "trunc:3:3"), ("A3", "ext:zmod:5^2:2:3")]:
        group._graph_signed_perm.cache_clear()
        graph_matrix(system(token), make_ring(desc), "identity")
        assert suite_graph(token, desc)["ok"]


def reference_mat_from_json(ring, obj) -> Mat:
    """`Mat.from_json` before its plain-integer rows were reduced in one
    comprehension: every entry through `Ring.vec_from_json`, verbatim but
    for the checks of n and the ring."""
    n, rows = obj["n"], obj["rows"]
    vecs = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise RingError(f"matrix row {i} is not a list of n = {n} entries")
        vecs += [ring.vec_from_json(e) for e in row]
    data = np.array(vecs, dtype=np.int64).reshape(n, n, ring.depth).transpose(2, 0, 1)
    return Mat(ring, np.ascontiguousarray(data), reduce=False)


@pytest.mark.parametrize("desc", ["zmod:3^4", "gf:7", "trunc:3:3", "ext:zmod:5^2:2:3"])
def test_matrix_from_json_matches_entrywise_reference(desc):
    ring = make_ring(desc)
    rng = random.Random(53)
    n, d, big = 6, ring.depth, 2**70 + 5
    vec = lambda: [rng.randrange(-big, big) for _ in range(d)]
    rows = [
        [rng.randrange(-ring.q, 2 * ring.q) for _ in range(n)],   # plain integers, out of range
        [big, -big, 2**63, -(2**63) - 1, 0, ring.q],              # beyond int64
        [vec() if j % 2 else rng.randrange(99) for j in range(n)],  # integers and lists
        [vec() for _ in range(n)],                                # lists only
        [0] * n,
        [rng.randrange(-ring.q, ring.q) for _ in range(n)],
    ]
    obj = {"n": n, "ring": desc, "rows": rows}
    got = Mat.from_json(ring, obj)
    assert got == reference_mat_from_json(ring, obj)
    assert got.data.flags.c_contiguous and not got.data.flags.writeable
    # an integer row lifts into slot 0, the other slots stay zero
    assert got.data[0, 0].tolist() == [e % ring.q for e in rows[0]]
    assert not got.data[1:, 0].any()
    # a bool is no integer entry, in a row of integers or of lists
    for bad in ([True] + rows[0][1:], [vec(), False] + [vec() for _ in range(n - 2)]):
        for parse in (Mat.from_json, reference_mat_from_json):
            with pytest.raises(RingError, match="bad"):
                parse(ring, dict(obj, rows=[bad] + rows[1:]))


def test_matrix_json_round_trip():
    g = x_elem(A2, Z81, (1, 1), Z81.from_int(5))
    obj = g.mat.to_json()
    assert obj["ring"] == "zmod:3^4"
    assert Mat.from_json(Z81, obj) == g.mat
    w = word_to_json(g.ring, g.word)
    assert w[0]["kind"] == "x"
