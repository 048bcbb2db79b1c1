import random

import pytest

from chevalley.group import (
    Character,
    GroupElement,
    _char_mat,
    _factor_matrix,
    _x_mat,
    apply_diagram,
    check_torus_conjugation,
    commutator,
    commutator_check,
    congruence_member,
    diagram_automorphisms,
    graph_matrix,
    h_alpha,
    h_elem,
    scalar_elem,
    t_k,
    word_to_matrix,
    x_elem,
)
from chevalley.lie import h_index, root_index
from chevalley.matrices import Mat
from chevalley.rings import RingError, make_ring
from chevalley.roots import neg, system

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


@pytest.mark.parametrize("k", [-1, 2, 5])
def test_t_k_rejects_an_index_out_of_range(k):
    ring = make_ring("zmod:3^3")
    with pytest.raises(ValueError, match="out of range"):
        t_k(A2, ring, k, ring.from_int(2))


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
        return GroupElement(sys, ring, Mat.diagonal(ring, [lam] * sys.n), (("scalar", lam),))
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
    assert g.word_to_json() == h.word_to_json()
    # and each permutation factor holds the same integer matrix
    perms = [[f[2]["matrix"] for f in e.word if f[0] == "perm"] for e in (g, h)]
    assert all(a is b for a, b in zip(*perms))


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


def test_inverse_without_word_paths():
    rng = random.Random(8)
    # with no word every element is inverted by Mat.inv: a congruence element,
    g = x_elem(A2, Z81, (1, 1), Z81.from_int(3)) @ x_elem(A2, Z81, (-1, 0), Z81.from_int(6))
    bare = GroupElement(A2, Z81, g.mat, None)
    assert (bare @ bare.inverse()).is_identity()
    # a diagonal one
    h = h_alpha(A2, Z81, (1, 0), Z81.random_unit(rng))
    bare = GroupElement(A2, Z81, h.mat, None)
    assert (bare @ bare.inverse()).is_identity()
    # and a generic unit matrix
    w = x_elem(A2, Z81, (1, 0), Z81.one) @ h
    bare = GroupElement(A2, Z81, w.mat, None)
    assert (bare @ bare.inverse()).is_identity()


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


def test_matrix_json_round_trip():
    g = x_elem(A2, Z81, (1, 1), Z81.from_int(5))
    obj = g.mat.to_json()
    assert obj["ring"] == "zmod:3^4"
    assert Mat.from_json(Z81, obj) == g.mat
    w = g.word_to_json()
    assert w[0]["kind"] == "x"
