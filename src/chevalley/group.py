"""Group elements of the adjoint Chevalley group over a ring.

Elements carry an exact matrix plus, when they were built from generators, a
word of tagged factors (unipotent, torus, scalar, diagram) that multiplies
out to the matrix.  Words serialize to JSON and make inverses cheap: a word
is inverted as data (`inverse_word`), each factor by the rule of its kind,
and `_factor_matrix` is the one place a factor's matrix is built.

The commutator law [x_a(t), x_b(u)] = x_{a+b}(N(a,b) t u) is checked as the
word x_a(t) x_b(u) x_a(-t) x_b(-u) x_{a+b}(-N t u) = I (no last factor when
a+b is no root) on the rows R its factors' `ad_x_tables` move, by
`word_to_matrix` with `rows`: a factor I + T has T zero off R, and
e_i^T (I + T) = e_i^T, so every row of the product outside R is a row of I.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain

import numpy as np

from .lie import ad_x_tables, h_index, root_index, structure_constants
from .matrices import Mat
from .rings import Ring, RingElem, RingError, Vec
from .roots import Root, RootSystem, add, build_root_system, height, neg, sub

Factor = tuple  # ("x", root, t) | ("h", values) | ("scalar", lam) | ("perm", name, {"pi", "sigma", "inv"})


class GroupElement:
    __slots__ = ("sys", "ring", "mat", "word")

    def __init__(self, sys: RootSystem, ring: Ring, mat: Mat, word: tuple[Factor, ...] | None):
        self.sys = sys
        self.ring = ring
        self.mat = mat
        self.word = word

    @classmethod
    def identity(cls, sys: RootSystem, ring: Ring) -> "GroupElement":
        return cls(sys, ring, Mat.identity(ring, sys.n), ())

    def __matmul__(self, other: "GroupElement") -> "GroupElement":
        word = None
        if self.word is not None and other.word is not None:
            word = self.word + other.word
        return GroupElement(self.sys, self.ring, self.mat @ other.mat, word)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GroupElement) and self.mat == other.mat

    def __hash__(self) -> int:  # pragma: no cover
        return hash(self.mat)

    def is_identity(self) -> bool:
        return self.mat.is_identity()

    def inverse(self) -> "GroupElement":
        """The element of `inverse_word` of the word; RingError when there is
        no word."""
        if self.word is None:
            raise RingError("element has no generator word")
        word = inverse_word(self.word)
        return GroupElement(self.sys, self.ring, word_to_matrix(self.sys, self.ring, word), word)

    def __repr__(self) -> str:
        w = "?" if self.word is None else len(self.word)
        return f"GroupElement({self.sys.name}/{self.ring.descriptor}, word={w})"


def word_to_json(ring: Ring, word) -> list:
    """`word` as JSON: one object per factor, tagged by its kind."""
    out = []
    for f in word:
        if f[0] == "x":
            out.append({"kind": "x", "root": list(f[1]), "param": ring.elem_to_json(f[2])})
        elif f[0] == "h":
            out.append({"kind": "h", "values": [ring.elem_to_json(v) for v in f[1]]})
        elif f[0] == "scalar":
            out.append({"kind": "scalar", "value": ring.elem_to_json(f[1])})
        else:
            out.append({"kind": "graph", "delta": f[1], "inverse": bool(f[2].get("inv"))})
    return out


def _factor_matrix(sys: RootSystem, ring: Ring, f: Factor) -> Mat:
    if f[0] == "x":
        return _x_mat(sys, ring, f[1], f[2])
    if f[0] == "h":
        return _char_mat(sys, ring, f[1])
    if f[0] == "scalar":
        return Mat.diagonal(ring, [f[1].vec] * sys.n)
    # sigma[j] at (pi[j], j), or at (j, pi[j]) for the transpose
    at = (f[2]["pi"], np.arange(sys.n))
    data = np.zeros((ring.depth, sys.n, sys.n), dtype=np.int64)
    data[(0,) + (at[::-1] if f[2]["inv"] else at)] = f[2]["sigma"]
    return Mat(ring, data)


def _factor_inverse(f: Factor) -> Factor:
    if f[0] == "x":
        return ("x", f[1], -f[2])
    if f[0] == "h":
        return ("h", tuple(v.inv() for v in f[1]))
    if f[0] == "scalar":
        return ("scalar", f[1].inv())
    # signed permutation: the inverse is the transpose
    return ("perm", f[1], {**f[2], "inv": not f[2].get("inv")})


def inverse_word(word) -> tuple[Factor, ...]:
    """The word of the inverse: `word` reversed, each factor inverted."""
    return tuple(_factor_inverse(f) for f in reversed(word))


def word_to_matrix(sys: RootSystem, ring: Ring, word, rows=None) -> Mat:
    """The matrix of `word`, or only its rows `rows` as a row stack: those
    rows of the identity times each factor in turn.  The whole matrix starts
    from the first factor's, so a one-factor word keeps its factor."""
    if rows is None and word:
        out, word = _factor_matrix(sys, ring, word[0]), word[1:]
    else:
        out = Mat.identity(ring, sys.n, rows)
    for f in word:
        out = out @ _factor_matrix(sys, ring, f)
    return out


# ---------------------------------------------------------------------------
# unipotent generators
# ---------------------------------------------------------------------------


def _x_mat(sys: RootSystem, ring: Ring, r: Root, t: RingElem) -> Mat:
    X, H = ad_x_tables(sys, structure_constants(sys), r)
    return Mat.unipotent(ring, sys.n, ((X, t), (H, t * t)))


def x_elem(sys: RootSystem, ring: Ring, r: Root, t: RingElem) -> GroupElement:
    """Exponential of t x_r: the series I + t X + t^2 H of `ad_x_tables`
    stops at degree two on the adjoint module."""
    r = tuple(r)
    return GroupElement(sys, ring, _x_mat(sys, ring, r, t), (("x", r, t),))


# ---------------------------------------------------------------------------
# torus elements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Character:
    """Multiplicative character of the root lattice, given on the simple roots."""

    ring: Ring
    values: tuple[RingElem, ...]

    def __post_init__(self):
        for v in self.values:
            if not self.ring.is_unit_vec(v.vec):
                raise RingError("character values must be units")

    def value(self, r: Root) -> RingElem:
        out = self.ring.one
        for v, c in zip(self.values, r):
            if c:
                out = out * v**c
        return out


@lru_cache(maxsize=None)
def _root_splits(kind: str, rank: int) -> tuple[tuple[int, int], ...]:
    """(j, i) for each non-simple positive root p in turn: p is the j-th
    positive root plus a_i.  sys.positive runs by height after the simple
    roots, so j is an earlier root; it depends only on the system."""
    sys = build_root_system(kind, rank)
    return tuple(next((sys.pos_index[sub(p, s)], i) for i, s in enumerate(sys.simple)
                      if p[i] and sys.is_root(sub(p, s)))
                 for p in sys.positive[rank:])


def torus_diagonal(sys: RootSystem, ring: Ring, values: tuple[RingElem, ...]) -> list[Vec]:
    """The diagonal, as coefficient vectors, of the torus element whose
    character takes `values` on the simple roots: chi(p) at 2k and
    chi(p)^-1 at 2k + 1 for the k-th positive root p, and 1 on the Cartan
    rows.

    Each non-simple root's pair is its `_root_splits` parent's pair times
    (chi(a_i), chi(a_i)^-1), and is the parent's own when chi(a_i) = 1: the
    simple values other than 1 are inverted once (RingError for a non-unit)
    and each further root costs at most two products.
    """
    one, mul = ring.one.vec, ring.mul_vec
    simple = [None if v.vec == one else (v.vec, ring.inv_vec(v.vec)) for v in values]
    pairs = [s or (one, one) for s in simple]
    for j, i in _root_splits(sys.kind, sys.rank):
        s, p = simple[i], pairs[j]
        pairs.append(p if s is None else (mul(p[0], s[0]), mul(p[1], s[1])))
    return list(chain.from_iterable(pairs)) + [one] * sys.rank


def _char_mat(sys: RootSystem, ring: Ring, values: tuple[RingElem, ...]) -> Mat:
    return Mat.diagonal(ring, torus_diagonal(sys, ring, values))


def h_elem(sys: RootSystem, chi: Character) -> GroupElement:
    """Diagonal torus element acting on each root position by chi(root)."""
    ring = chi.ring
    return GroupElement(sys, ring, _char_mat(sys, ring, chi.values), (("h", chi.values),))


def h_alpha_values(sys: RootSystem, alpha: Root, u: RingElem) -> tuple[RingElem, ...]:
    """h_alpha(u)'s character on the simple roots: lambda -> u^<lambda, alpha>."""
    return tuple(u ** sys.pairing(s, tuple(alpha)) for s in sys.simple)


def h_alpha(sys: RootSystem, ring: Ring, alpha: Root, u: RingElem) -> GroupElement:
    """h_alpha(u), the torus element of `h_alpha_values`."""
    return h_elem(sys, Character(ring, h_alpha_values(sys, alpha, u)))


def t_k(sys: RootSystem, ring: Ring, k: int, x: RingElem) -> GroupElement:
    """Torus element whose character is x on alpha_k and 1 on the other
    simples; RingError when x is no unit."""
    if not 0 <= k < sys.rank:
        raise ValueError(f"simple-root index {k} out of range")
    values = tuple(x if i == k else ring.one for i in range(sys.rank))
    return GroupElement(sys, ring, _char_mat(sys, ring, values), (("h", values),))


def scalar_elem(sys: RootSystem, ring: Ring, lam: RingElem) -> GroupElement:
    if not ring.is_unit_vec(lam.vec):
        raise RingError("scalar factor must be a unit")
    return GroupElement(sys, ring, Mat.diagonal(ring, [lam.vec] * sys.n), (("scalar", lam),))


# ---------------------------------------------------------------------------
# identities used as oracles
# ---------------------------------------------------------------------------


def _off_identity(sys: RootSystem, ring: Ring, roots, ts):
    """(ids, rows, cols, values): the nonzero entries of x_r(t) - I = t X +
    t^2 H, read from the tables X and H of `ad_x_tables` (never on the same
    cell), for each root of `roots` and its t of `ts` side by side, ids[e]
    the index of entry e's root.  A table coefficient can vanish in the ring."""
    N = structure_constants(sys)
    tables = [A for r in roots for A in ad_x_tables(sys, N, r)]
    counts = [len(A.coeff) for A in tables]
    scalars = np.array([v for t in ts for v in (t.vec, (t * t).vec)], dtype=np.int64)
    values = ring.mat_mod(np.repeat(scalars.T, counts, axis=1) * np.concatenate([A.coeff for A in tables]))
    keep = values.any(axis=0)
    return (np.repeat(np.arange(len(tables)) // 2, counts)[keep], np.concatenate([A.dst for A in tables])[keep],
            np.concatenate([A.src for A in tables])[keep], values[:, keep])


def conjugation_holds(sys: RootSystem, A: Mat, B: Mat, roots, ts, images, image_ts) -> list[bool]:
    """For each k, whether A x_{roots[k]}(ts[k]) B = x_{images[k]}(image_ts[k])
    for monomial A and B (`Mat.monomial`), with no n x n product.

    If A B != I (checked in O(n)) every verdict is False.  Otherwise B's
    permutation is pi^-1, A x B = I + A (x - I) B, and A (x - I) B moves the
    entry of x - I at (i, j) to (pi i, pi j), scaled by the units a_i b_{pi j}.
    Both sides minus I are compared as lists of their nonzero entries keyed
    by root and position: a root holds iff each of its entries has its equal
    on the other side, next to it once all keys are sorted."""
    ring, n = A.ring, sys.n
    (pi, a), (rho, b) = A.monomial(), B.monomial()
    if not (np.array_equal(pi[rho], np.arange(n))
            and (ring.mat_elemmul(a[:, rho], b) == np.array(ring.one.vec)[:, None]).all()):
        return [False] * len(roots)
    ids, rows, cols, values = _off_identity(sys, ring, roots, ts)
    lhs = ring.mat_elemmul(values, ring.mat_elemmul(a[:, rows], b[:, pi[cols]]))
    keys = (ids * n + pi[rows]) * n + pi[cols]
    ids, rows, cols, rhs = _off_identity(sys, ring, images, image_ts)
    keys = np.append(keys, (ids * n + rows) * n + cols)
    order = np.argsort(keys)
    keys, values = keys[order], np.append(lhs, rhs, axis=1)[:, order]
    pair = (keys[1:] == keys[:-1]) & (values[:, 1:] == values[:, :-1]).all(axis=0)
    matched = np.zeros(len(keys), dtype=bool)
    matched[1:] |= pair
    matched[:-1] |= pair
    return (np.bincount(keys[~matched] // (n * n), minlength=len(roots)) == 0).tolist()


def check_torus_conjugation(sys: RootSystem, chi: Character, beta: Root, xi: RingElem) -> bool:
    """Exact check of h(chi) x_beta(xi) h(chi)^{-1} = x_beta(chi(beta) xi)."""
    h = h_elem(sys, chi)
    return conjugation_holds(sys, h.mat, h.inverse().mat, [beta], [xi], [beta],
                             [chi.value(tuple(beta)) * xi])[0]


def commutator_check(
    sys: RootSystem, ring: Ring, a: Root, b: Root, t: RingElem, u: RingElem
) -> bool:
    """[x_a(t), x_b(u)] = x_{a+b}(N(a,b) t u), or I when a+b is no root (module docstring)."""
    a, b = tuple(a), tuple(b)
    if a == neg(b):
        raise ValueError("opposite roots are outside the commutator identity")
    word = [("x", a, t), ("x", b, u), ("x", a, -t), ("x", b, -u)]
    s = add(a, b)
    N = structure_constants(sys)
    if sys.is_root(s):
        word.append(("x", s, -(ring.from_int(N.n(a, b)) * t * u)))
    moved = np.zeros(sys.n, dtype=bool)
    for f in word:
        for A in ad_x_tables(sys, N, f[1]):
            moved[A.dst] = True
    rows = np.flatnonzero(moved)
    return word_to_matrix(sys, ring, word, rows) == Mat.identity(ring, sys.n, rows)


def congruence_member(g: GroupElement) -> bool:
    """True iff every entry of g - I lies in the radical (local rings only)."""
    ring = g.ring
    if not ring.local:
        raise RingError(f"{ring.descriptor}: locality not guaranteed")
    diff = g.mat - Mat.identity(ring, g.sys.n)
    return ring.mat_radical_all(diff.data)


# ---------------------------------------------------------------------------
# diagram automorphisms
# ---------------------------------------------------------------------------


def diagram_automorphisms(sys: RootSystem) -> dict[str, tuple[int, ...]]:
    """Named symmetries of the Dynkin diagram, as permutations of simple indices."""
    l = sys.rank
    out = {"identity": tuple(range(l))}
    if sys.kind == "A" and l >= 2:
        out["flip"] = tuple(l - 1 - i for i in range(l))
    elif sys.kind == "D":
        swap = list(range(l))
        swap[l - 2], swap[l - 1] = swap[l - 1], swap[l - 2]
        out["swap"] = tuple(swap)
        if l == 4:
            out["triality"] = (2, 1, 3, 0)  # alpha_1 -> alpha_3 -> alpha_4 -> alpha_1
    elif sys.kind == "E" and l == 6:
        out["flip"] = (5, 1, 4, 3, 2, 0)
    return out


def _check_diagram_symmetry(sys: RootSystem, perm: tuple[int, ...]) -> None:
    l = sys.rank
    if sorted(perm) != list(range(l)):
        raise ValueError("not a permutation of the simple roots")
    for i in range(l):
        for j in range(l):
            if sys.cartan[perm[i], perm[j]] != sys.cartan[i, j]:
                raise ValueError("permutation is not a diagram symmetry")


def apply_diagram(perm: tuple[int, ...], r: Root) -> Root:
    out = [0] * len(r)
    for i, c in enumerate(r):
        out[perm[i]] = c
    return tuple(out)


def _graph_signs(sys: RootSystem, perm: tuple[int, ...]) -> dict[Root, int]:
    """Column signs for the diagram-automorphism matrix, +1 on the simple roots."""
    N = structure_constants(sys)
    eps: dict[Root, int] = {s: 1 for s in sys.simple}
    for g in sorted(sys.positive, key=lambda r: (height(r), r)):
        if g in eps:
            continue
        for i, s in enumerate(sys.simple):
            rest = tuple(a - b for a, b in zip(g, s))
            if sys.is_root(rest) and rest in eps:
                num = N.n(s, rest)
                den = N.n(apply_diagram(perm, s), apply_diagram(perm, rest))
                eps[g] = eps[rest] * num * den
                break
        else:  # pragma: no cover - positive roots always split off a simple root
            raise ValueError(f"cannot split {g}")
    for g in list(eps):
        eps[neg(g)] = eps[g]
    return eps


@lru_cache(maxsize=None)
def _graph_signed_perm(kind: str, rank: int, perm: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The signed permutation A of the diagram symmetry `perm` as read-only
    (pi, sigma), sigma[j] at (pi[j], j), built and checked once per system
    and symmetry."""
    sys = build_root_system(kind, rank)
    _check_diagram_symmetry(sys, perm)
    eps = _graph_signs(sys, perm)
    pi, sigma = np.arange(sys.n), np.ones(sys.n, dtype=np.int64)
    for r in sys.roots:
        pi[root_index(sys, r)], sigma[root_index(sys, r)] = root_index(sys, apply_diagram(perm, r)), eps[r]
    pi[h_index(sys, 0):] = np.add(perm, h_index(sys, 0))  # h_i -> h_perm[i]
    # conjugation must permute the generator set: A X_r A^T = eps(r) X_{delta r},
    # and A X_r A^T holds sigma_d sigma_s X_r[d, s] at (pi d, pi s)
    N = structure_constants(sys)
    for r in sys.roots:
        X, Y = ad_x_tables(sys, N, r)[0], ad_x_tables(sys, N, apply_diagram(perm, r))[0]
        lhs = zip(pi[X.dst].tolist(), pi[X.src].tolist(), (sigma[X.dst] * sigma[X.src] * X.coeff).tolist())
        if sorted(lhs) != sorted(zip(Y.dst.tolist(), Y.src.tolist(), (eps[r] * Y.coeff).tolist())):
            raise RuntimeError(f"diagram matrix fails on {r}")  # pragma: no cover
    for a in (pi, sigma):
        a.setflags(write=False)
    return pi, sigma


def graph_matrix(sys: RootSystem, ring: Ring, delta: str | tuple[int, ...]) -> GroupElement:
    """Signed permutation realizing a diagram automorphism by conjugation."""
    if isinstance(delta, str):
        autos = diagram_automorphisms(sys)
        if delta not in autos:
            raise ValueError(f"{sys.name} has no diagram automorphism {delta!r}")
        name, perm = delta, autos[delta]
    else:
        name, perm = "custom", tuple(delta)
    pi, sigma = _graph_signed_perm(sys.kind, sys.rank, perm)
    word = (("perm", name, {"pi": pi, "sigma": sigma, "inv": False}),)
    return GroupElement(sys, ring, _factor_matrix(sys, ring, word[0]), word)
