"""Conjugation by monomial matrices, decided on the generator tables.

`group.conjugation_holds` is the one check of A x_r(t) B = x_s(u) for
monomial A and B: torus elements in `verify eq1` and `verify lemma3`, diagram
automorphisms in `verify graph`.  Here it is compared with the dense product
A @ x_r(t) @ B on every ring kind, on cases that must hold and on cases that
must fail, and the suites are compared with their deleted dense bodies, kept
here verbatim as references.
"""

import random
import re

import numpy as np
import pytest

from chevalley import suites
from chevalley.group import (
    Character,
    GroupElement,
    apply_diagram,
    check_torus_conjugation,
    conjugation_holds,
    diagram_automorphisms,
    graph_matrix,
    h_elem,
    word_to_matrix,
    x_elem,
)
from chevalley.lie import ad_x, ad_x_tables, structure_constants
from chevalley.rings import make_ring
from chevalley.roots import system

RINGS = ["zmod:3^3", "gf:3", "gf:7", "trunc:3:3", "ext:zmod:5^2:2:3"]


def dense_verdicts(sys, A, B, roots, ts, images, image_ts):
    """A x_r(t) B == x_s(u) for each k, by n x n products."""
    ring = A.ring
    return [A @ x_elem(sys, ring, r, t).mat @ B == x_elem(sys, ring, s, u).mat
            for r, t, s, u in zip(roots, ts, images, image_ts)]


def reference_check_torus_conjugation(sys, chi, beta, xi):
    """The deleted dense `check_torus_conjugation`, verbatim."""
    ring = chi.ring
    h = h_elem(sys, chi)
    lhs = h @ x_elem(sys, ring, beta, xi) @ h.inverse()
    rhs = x_elem(sys, ring, beta, chi.value(tuple(beta)) * xi)
    return lhs == rhs


def reference_suite_eq1(system_token, ring_desc, count, seed):
    """The deleted per-root `suite_eq1` body, verbatim but for the dense
    check above."""
    sys = system(system_token)
    ring = make_ring(ring_desc)
    rng = random.Random(seed)
    failures, total = [], 0
    for _ in range(count):
        chi = Character(ring, tuple(ring.random_unit(rng) for _ in range(sys.rank)))
        xi = ring.random_element(rng)
        for beta in sys.roots:
            total += 1
            if not reference_check_torus_conjugation(sys, chi, beta, xi):
                failures.append({"beta": list(beta)})
    rep = suites._report("eq1", sys.name, ring.descriptor, seed, characters=count)
    return suites._finish(rep, failures, total)


def reference_suite_graph(system_token, ring_desc):
    """The deleted dense `suite_graph` body, verbatim but for reading
    `graph_matrix` from the suites module, so a test can replace it."""
    sys = system(system_token)
    ring = make_ring(ring_desc)
    failures, total = [], 0
    autos = diagram_automorphisms(sys)
    for name, perm in autos.items():
        A = suites.graph_matrix(sys, ring, name)
        Ainv = A.inverse()
        for r in sys.roots:
            total += 1
            conj = A @ x_elem(sys, ring, r, ring.one) @ Ainv
            img = apply_diagram(perm, r)
            plus = x_elem(sys, ring, img, ring.one)
            minus = x_elem(sys, ring, img, -ring.one)
            if conj == plus:
                sign = 1
            elif conj == minus:
                sign = -1
            else:
                failures.append({"delta": name, "root": list(r), "error": "not a generator"})
                continue
            if r in sys.simple and sign != 1:
                failures.append({"delta": name, "root": list(r), "error": "sign on simple root"})
        order = 1
        q = perm
        ident = tuple(range(sys.rank))
        while q != ident:
            q = tuple(perm[i] for i in q)
            order += 1
        power = GroupElement.identity(sys, ring)
        for _ in range(order):
            power = power @ A
        total += 1
        for r in sys.simple:
            g = x_elem(sys, ring, r, ring.one)
            if power @ g @ power.inverse() != g:
                failures.append({"delta": name, "error": f"order-{order} power not central on generators"})
                break
    rep = suites._report("graph", sys.name, ring.descriptor, None, automorphisms=sorted(autos))
    return suites._finish(rep, failures, total)


def perm_element(sys, ring, name, pi, sigma):
    word = (("perm", name, {"pi": pi, "sigma": sigma, "inv": False}),)
    return GroupElement(sys, ring, word_to_matrix(sys, ring, word), word)


@pytest.mark.parametrize("token", ["A2", "D4", "E6"])
@pytest.mark.parametrize("desc", RINGS)
def test_conjugation_holds_matches_dense_product(token, desc):
    sys, ring = system(token), make_ring(desc)
    rng = random.Random(f"{token} {desc}")
    roots, R = sys.roots, len(sys.roots)
    ones, zeros = [ring.one] * R, [ring.zero] * R
    ts = [ring.random_element(rng) for _ in roots]
    units = [ring.random_unit(rng) for _ in roots]

    def agree(A, B, images, image_ts, roots=roots, ts=ts):
        got = conjugation_holds(sys, A.mat, B.mat, roots, ts, images, image_ts)
        assert got == dense_verdicts(sys, A.mat, B.mat, roots, ts, images, image_ts)
        return got

    # the torus, and B = A for a non-involution: rejected throughout
    chi = Character(ring, tuple(ring.random_unit(rng) for _ in range(sys.rank)))
    h = h_elem(sys, chi)
    assert all(agree(h, h.inverse(), roots, [chi.value(r) * t for r, t in zip(roots, ts)]))
    # over gf:3 every torus element is an involution
    u = next((u for u in (ring.random_unit(rng) for _ in range(50)) if u * u != ring.one), None)
    if u is not None:
        h2 = h_elem(sys, Character(ring, (u,) * sys.rank))
        assert not any(agree(h2, h2, roots, ts))
    assert check_torus_conjugation(sys, chi, roots[-1], ts[-1])

    for name, perm in diagram_automorphisms(sys).items():
        A = graph_matrix(sys, ring, name)
        Ainv = A.inverse()
        images = [apply_diagram(perm, r) for r in roots]
        plus = agree(A, Ainv, images, ones, ts=ones)
        minus = agree(A, Ainv, images, [-ring.one] * R, ts=ones)
        assert all(p or m for p, m in zip(plus, minus))
        # t = 0 is the identity whatever the image
        assert all(agree(A, Ainv, roots[::-1], zeros, ts=zeros))
        # a wrong image root is rejected
        assert not any(agree(A, Ainv, images[1:] + images[:1], units, ts=units))
        # one flipped sign is rejected somewhere
        f = A.word[0][2]
        sigma = f["sigma"].copy()
        sigma[0] = -sigma[0]
        bad = perm_element(sys, ring, name, f["pi"], sigma)
        signs = [ring.one if p else -ring.one for p in plus]
        assert all(agree(A, Ainv, images, signs, ts=ones))
        assert not all(agree(bad, bad.inverse(), images, signs, ts=ones))
        # B = A for a non-involution
        if any(perm[perm[i]] != i for i in range(sys.rank)):
            assert not any(agree(A, A, images, ts))
        # a power of the symmetry: its square, against the images of the images
        A2 = A @ A
        images2 = [apply_diagram(perm, r) for r in images]
        sq = agree(A2, A2.inverse(), images2, ones, ts=ones)
        sq_minus = agree(A2, A2.inverse(), images2, [-ring.one] * R, ts=ones)
        assert all(p or m for p, m in zip(sq, sq_minus))


@pytest.mark.parametrize("token,desc", [("A3", "gf:7"), ("D4", "zmod:3^2"), ("E6", "trunc:3:3"),
                                        ("D4", "ext:zmod:5^2:2:3")])
def test_suite_graph_matches_dense_reference(token, desc, monkeypatch):
    # the suite as it is and with two corrupted diagram matrices: the signs
    # times (-1)^(alpha_1 coefficient), still a signed permutation, which
    # flips simple signs and can break the order; and one sign flipped,
    # which sends some generators off the generator set
    sys = system(token)
    parity = np.array([(-1) ** p[0] for p in sys.positive for _ in range(2)] + [1] * sys.rank)
    one_flip = np.ones(sys.n, dtype=np.int64)
    one_flip[2] = -1
    assert suites.suite_graph(token, desc) == reference_suite_graph(token, desc)
    for flip in (parity, one_flip):
        def corrupted(sys, ring, name, flip=flip):
            f = graph_matrix(sys, ring, name).word[0][2]
            return perm_element(sys, ring, name, f["pi"], f["sigma"] * flip)

        monkeypatch.setattr(suites, "graph_matrix", corrupted)
        got = suites.suite_graph(token, desc)
        assert got == reference_suite_graph(token, desc)
        assert not got["ok"]


@pytest.mark.parametrize("token,desc", [("A2", "gf:3"), ("D4", "trunc:3:3"), ("E6", "ext:zmod:5^2:2:3")])
def test_eq1_matches_dense_reference(token, desc):
    assert suites.suite_eq1(token, desc, count=3, seed=5) == reference_suite_eq1(token, desc, 3, 5)
    sys, ring = system(token), make_ring(desc)
    rng = random.Random(4)
    chi = Character(ring, tuple(ring.random_unit(rng) for _ in range(sys.rank)))
    for beta in sys.roots[::5]:
        xi = ring.random_element(rng)
        assert check_torus_conjugation(sys, chi, beta, xi) == reference_check_torus_conjugation(sys, chi, beta, xi)


@pytest.mark.parametrize("bad", [(2, 2), (1, -1), (0, 0), (5,)])
def test_non_roots_are_refused_with_value_error(bad):
    sys, ring = system("A2"), make_ring("zmod:3^4")
    N = structure_constants(sys)
    chi = Character(ring, (ring.one, ring.one))
    uses = [lambda: ad_x(sys, N, bad), lambda: ad_x_tables(sys, N, bad),
            lambda: x_elem(sys, ring, bad, ring.one), lambda: check_torus_conjugation(sys, chi, bad, ring.one)]
    for use in uses:
        with pytest.raises(ValueError, match=re.escape(f"{bad} is not a root of A2")):
            use()

