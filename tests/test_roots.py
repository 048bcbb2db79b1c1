import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chevalley.roots import (
    RootSystem,
    RootSystemError,
    build_root_system,
    classify_roots,
    height,
    marked_sequence,
    neg,
    parse_system,
    solve_rational,
    sub,
    sum_decomposition,
    system,
    verify_marked_properties,
)

# ---------------------------------------------------------------------------
# independent Euclidean-realization oracle
# ---------------------------------------------------------------------------


def euclidean_roots(kind, l):
    """Roots as exact Euclidean vectors, built without the closure algorithm."""
    if kind == "A":
        dim = l + 1
        vecs = []
        for i in range(dim):
            for j in range(dim):
                if i != j:
                    v = [0] * dim
                    v[i], v[j] = 1, -1
                    vecs.append(tuple(Fraction(c) for c in v))
        simples = [_unit_diff(i, i + 1, dim) for i in range(l)]
        return vecs, simples
    if kind == "D":
        vecs = []
        for i in range(l):
            for j in range(i + 1, l):
                for si in (1, -1):
                    for sj in (1, -1):
                        v = [0] * l
                        v[i], v[j] = si, sj
                        vecs.append(tuple(Fraction(c) for c in v))
        simples = [_unit_diff(i, i + 1, l) for i in range(l - 1)]
        s = [0] * l
        s[l - 2], s[l - 1] = 1, 1
        simples.append(tuple(Fraction(c) for c in s))
        return vecs, simples
    # E8 with the numbering: alpha_1 = e1-e2, alpha_2 the half vector attached
    # to alpha_4, alpha_3..alpha_8 the chain e2-e3, ..., e7-e8
    vecs = []
    for i in range(8):
        for j in range(i + 1, 8):
            for si in (1, -1):
                for sj in (1, -1):
                    v = [0] * 8
                    v[i], v[j] = si, sj
                    vecs.append(tuple(Fraction(c) for c in v))
    for signs in itertools.product((1, -1), repeat=8):
        if signs.count(-1) % 2 == 1:
            vecs.append(tuple(Fraction(s, 2) for s in signs))
    simples = [_unit_diff(0, 1, 8)]
    simples.append(tuple(Fraction(s, 2) for s in (-1, -1, -1, 1, 1, 1, 1, 1)))
    simples += [_unit_diff(i, i + 1, 8) for i in range(1, 7)]
    if l == 8:
        return vecs, simples
    # E6/E7 sit inside E8: keep roots spanned by the first l simple roots
    coords = _alpha_coordinates(vecs, simples)
    keep = [v for v, c in zip(vecs, coords) if all(x == 0 for x in c[l:])]
    return keep, simples[:l]


def _unit_diff(i, j, dim):
    v = [0] * dim
    v[i], v[j] = 1, -1
    return tuple(Fraction(c) for c in v)


def _alpha_coordinates(vecs, simples):
    A = [[sum(a * b for a, b in zip(s, t)) for t in simples] for s in simples]
    out = []
    for v in vecs:
        rhs = [sum(a * b for a, b in zip(v, s)) for s in simples]
        out.append(_solve_fraction(A, rhs))
    return out


def _solve_fraction(A, rhs):
    n = len(rhs)
    M = [row[:] + [rhs[i]] for i, row in enumerate(A)]
    for c in range(n):
        piv = next(r for r in range(c, n) if M[r][c] != 0)
        M[c], M[piv] = M[piv], M[c]
        f = M[c][c]
        M[c] = [x / f for x in M[c]]
        for r in range(n):
            if r != c and M[r][c] != 0:
                g = M[r][c]
                M[r] = [x - g * y for x, y in zip(M[r], M[c])]
    return tuple(M[i][n] for i in range(n))


ORACLE_CASES = [("A", 2), ("A", 3), ("A", 4), ("D", 4), ("D", 5), ("E", 6), ("E", 7), ("E", 8)]


@pytest.mark.parametrize("kind,l", ORACLE_CASES)
def test_root_sets_match_euclidean_oracle(kind, l):
    sys = build_root_system(kind, l)
    vecs, simples = euclidean_roots(kind, l)
    coords = _alpha_coordinates(vecs, simples)
    oracle = set()
    for c in coords:
        assert all(x.denominator == 1 for x in c)
        oracle.add(tuple(int(x) for x in c))
    assert set(sys.rootset) == oracle
    assert len(sys.roots) == len(vecs)


@pytest.mark.parametrize(
    "kind,l,m", [("A", 2, 3), ("A", 3, 6), ("D", 4, 12), ("E", 6, 36), ("E", 7, 63), ("E", 8, 120)]
)
def test_positive_counts_and_dimensions(kind, l, m):
    sys = build_root_system(kind, l)
    assert sys.m == m
    assert sys.n == l + 2 * m
    assert sys.n == {("A", 2): 8, ("A", 3): 15, ("D", 4): 28,
                     ("E", 6): 78, ("E", 7): 133, ("E", 8): 248}[(kind, l)]


def test_maximal_roots():
    assert build_root_system("E", 8).maximal == (2, 3, 4, 6, 5, 4, 3, 2)
    assert build_root_system("D", 4).maximal == (1, 2, 1, 1)
    assert build_root_system("A", 3).maximal == (1, 1, 1)
    e8 = build_root_system("E", 8)
    assert all(all(a >= b for a, b in zip(e8.maximal, r)) for r in e8.positive)


@pytest.mark.parametrize("kind,l", [("A", 2), ("A", 3), ("D", 4), ("E", 6)])
def test_pairing_symmetric_and_normalized(kind, l):
    sys = build_root_system(kind, l)
    vecs, simples = euclidean_roots(kind, l)
    coords = {tuple(int(x) for x in c): v for v, c in zip(vecs, _alpha_coordinates(vecs, simples))}
    for a in sys.roots[: 30]:
        assert sys.pairing(a, a) == 2
        for b in sys.roots[: 30]:
            dot = sum(x * y for x, y in zip(coords[a], coords[b]))
            assert sys.pairing(a, b) == dot  # (b,b) = 2 for every root
            assert sys.pairing(a, b) == sys.pairing(b, a)


def test_pairing_examples():
    a2 = build_root_system("A", 2)
    assert a2.pairing((1, 0), (0, 1)) == -1
    assert a2.pairing((1, 1), (1, 0)) == 1


@pytest.mark.parametrize("kind,l", [("A", 2), ("A", 3), ("A", 4), ("D", 4), ("E", 6)])
def test_string_property(kind, l):
    # alpha + beta a root forces <alpha, beta> = -1 in the simply-laced case
    sys = build_root_system(kind, l)
    for a in sys.roots:
        for b in sys.roots:
            s = tuple(x + y for x, y in zip(a, b))
            if sys.is_root(s):
                assert sys.pairing(a, b) == -1


def test_negation_involution():
    sys = build_root_system("D", 4)
    assert all(neg(r) in sys.rootset for r in sys.roots)
    assert len(sys.roots) == 2 * sys.m


def test_parse_system():
    assert parse_system("A2") == ("A", 2)
    assert parse_system("e_8") == ("E", 8)
    with pytest.raises(RootSystemError):
        parse_system("B3")
    with pytest.raises(RootSystemError):
        build_root_system("D", 3)
    with pytest.raises(RootSystemError):
        build_root_system("E", 9)


def test_sum_decomposition_examples():
    a2 = build_root_system("A", 2)
    assert sum_decomposition(a2, (1, 1)) == ((0, 1), (1, 0))
    b, c = sum_decomposition(a2, (1, 0))
    assert b == (0, -1) and c == (1, 1)


def test_sum_decomposition_everywhere_e8():
    sys = build_root_system("E", 8)
    for r in sys.roots:
        b, c = sum_decomposition(sys, r)
        assert sys.is_root(b) and sys.is_root(c)
        assert tuple(x + y for x, y in zip(b, c)) == r
        # deterministic tie-break: no smaller first component
        for b2 in sorted(sys.rootset):
            if b2 == b:
                break
            assert not (sys.is_root(sub(r, b2)) and sub(r, b2) != b2)


# ---------------------------------------------------------------------------
# marked sequences
# ---------------------------------------------------------------------------


def test_marked_sequence_a3():
    seq = marked_sequence(system("A3"))
    assert seq.gammas == ((1, 1, 1), (0, 1, 1), (0, 0, 1))
    assert seq.exceptions == ()


def test_marked_sequence_d4():
    seq = marked_sequence(system("D4"))
    # e1+e2, e1+e3, e2+e3, e2-e4, e2-e3 in alpha coordinates
    assert seq.gammas == ((1, 2, 1, 1), (1, 1, 1, 1), (0, 1, 1, 1), (0, 1, 1, 0), (0, 1, 0, 0))
    assert len(seq.gammas) == 2 * 4 - 3


@pytest.mark.parametrize("token", ["A2", "A3", "A4", "A5", "D4", "D5", "D6", "E6", "E7", "E8"])
def test_marked_properties_hold(token):
    sys = system(token)
    seq = marked_sequence(sys)
    rep = verify_marked_properties(sys, seq)
    assert rep.starts_at_maximal
    assert rep.ends_at_simple
    assert rep.steps_simple
    assert rep.first_l_distinct
    assert rep.anchors_ok
    assert rep.ok
    # the chain length for D is read off the construction, not assumed
    if token.startswith("D"):
        assert len(seq.gammas) == 2 * sys.rank - 3


@pytest.mark.parametrize("token", ["A2", "A3", "A4", "A5"])
def test_a_systems_have_no_exceptions(token):
    assert marked_sequence(system(token)).exceptions == ()


def reference_close(self):
    """The closure `RootSystem._close` replaced, verbatim: one `pairing`
    per root and simple root."""
    roots = set(self.simple) | {neg(s) for s in self.simple}
    frontier = set(roots)
    while frontier:
        new = set()
        for b in frontier:
            for i, s in enumerate(self.simple):
                c = sub(b, tuple(self.pairing(b, s) * x for x in s))
                if c not in roots:
                    new.add(c)
        roots |= new
        frontier = new
    return roots


@pytest.mark.parametrize("kind,rank", [("A", l) for l in range(2, 9)] + [("D", l) for l in range(4, 9)]
                         + [("E", l) for l in range(6, 9)])
def test_closure_matches_the_pairing_reference(kind, rank, monkeypatch):
    # the roots, their order and the root set are what every digest reads
    got = RootSystem(kind, rank)
    monkeypatch.setattr(RootSystem, "_close", reference_close)
    want = RootSystem(kind, rank)
    assert got.roots == want.roots
    assert got.positive == want.positive
    assert got.rootset == want.rootset


def reference_a_chain(sys):
    """The deleted `roots._a_chain`, verbatim."""
    l = sys.rank
    return [tuple(1 if j >= i else 0 for j in range(l)) for i in range(l)]


@pytest.mark.parametrize("rank", range(2, 13))
def test_a_chain_is_the_greedy_chain(rank):
    # A_l takes the depth-first chain, which is the displayed one:
    # e_1 - e_{l+1} down to alpha_l, one simple root at a time
    sys = system(f"A{rank}")
    assert list(marked_sequence(sys).gammas) == reference_a_chain(sys)


@pytest.mark.parametrize("token,expected", [
    # the displayed chains leave exactly e1-e_l and e2+e_l unclassified
    ("D4", {(1, 1, 1, 0), (0, 1, 0, 1)}),
    ("D5", {(1, 1, 1, 1, 0), (0, 1, 1, 0, 1)}),
])
def test_d_systems_have_two_exceptions(token, expected):
    seq = marked_sequence(system(token))
    assert {e.beta for e in seq.exceptions} == expected


def test_e8_exception_classification():
    sys = system("E8")
    seq = marked_sequence(sys)
    labels, exceptions = classify_roots(sys, seq.gammas)
    assert len(seq.gammas) == 29
    assert len(exceptions) == 15
    assert [e.beta for e in seq.exceptions] == exceptions
    # exceptions are height-ordered and every anchor difference is a root
    hs = [height(e.beta) for e in seq.exceptions]
    assert hs == sorted(hs)
    for e in seq.exceptions:
        assert sys.is_root(e.delta)
        assert sub(e.anchor, e.beta) == e.delta
        assert e.anchor in seq.gammas


def test_e8_anchor_rule_prefers_highest_member():
    # anchors go to the first chain member gamma_a with gamma_a - beta a root
    sys = system("E8")
    seq = marked_sequence(sys)
    for e in seq.exceptions:
        for g in seq.gammas:
            if g == e.anchor:
                break
            assert not sys.is_root(sub(g, e.beta))


def test_verify_flags_wrong_first_root():
    sys = system("A3")
    seq = marked_sequence(sys)
    broken = type(seq)(
        system=seq.system,
        gammas=seq.gammas[1:],
        subtracted=seq.subtracted[1:],
        exceptions=seq.exceptions,
    )
    rep = verify_marked_properties(sys, broken)
    assert not rep.starts_at_maximal
    assert not rep.ok


def test_classification_covers_every_positive_root():
    for token in ["A3", "D4", "D5", "E6", "E7", "E8"]:
        sys = system(token)
        seq = marked_sequence(sys)
        labels, _ = classify_roots(sys, seq.gammas)
        assert set(labels) == set(sys.positive)
        members = {r for r, lab in labels.items() if lab == "member"}
        assert members == set(seq.gammas)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=n, max_size=n),
    st.lists(st.lists(st.integers(-4, 4), min_size=2, max_size=2), min_size=n, max_size=n))))
def test_solve_rational_is_exact(system_pair):
    A, B = system_pair
    n = len(A)
    # singular exactly when the rows are dependent: compare with an exact
    # determinant by cofactor expansion
    def det(M):
        if len(M) == 1:
            return M[0][0]
        return sum((-1) ** j * M[0][j] * det([row[:j] + row[j + 1:] for row in M[1:]])
                   for j in range(len(M)))

    if det(A) == 0:
        with pytest.raises(RootSystemError):
            solve_rational(A, B)
        return
    X = solve_rational(A, B)
    for i in range(n):
        for k in range(2):
            assert sum(Fraction(A[i][j]) * X[j][k] for j in range(n)) == B[i][k]
