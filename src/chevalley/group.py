"""Group elements of the adjoint Chevalley group over a ring.

Elements carry an exact matrix plus, when they were built from generators, a
word of tagged factors (unipotent, torus, scalar, diagram) that multiplies
out to the matrix.  Words serialize to JSON and make inverses cheap: a word
is inverted as data (`inverse_word`), each factor by the rule of its kind,
and `_factor_matrix` is the one place a factor's matrix is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .lie import ad_x, ad_x_tables, h_index, root_index, structure_constants
from .matrices import Mat
from .rings import Ring, RingElem, RingError
from .roots import Root, RootSystem, add, build_root_system, height, neg, sub

Factor = tuple  # ("x", root, t) | ("h", values) | ("scalar", lam) | ("perm", name, data)


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
        """The matrix of `inverse_word` of the word, when there is one;
        otherwise by `Mat.inv`."""
        if self.word is not None:
            word = inverse_word(self.word)
            return GroupElement(self.sys, self.ring, word_to_matrix(self.sys, self.ring, word), word)
        return GroupElement(self.sys, self.ring, self.mat.inv(), None)

    def word_to_json(self) -> list:
        if self.word is None:
            raise RingError("element has no generator word")
        out = []
        for f in self.word:
            if f[0] == "x":
                out.append({"kind": "x", "root": list(f[1]), "param": self.ring.elem_to_json(f[2])})
            elif f[0] == "h":
                out.append({"kind": "h", "values": [self.ring.elem_to_json(v) for v in f[1]]})
            elif f[0] == "scalar":
                out.append({"kind": "scalar", "value": self.ring.elem_to_json(f[1])})
            else:
                out.append({"kind": "graph", "delta": f[1], "inverse": bool(f[2].get("inv"))})
        return out

    def __repr__(self) -> str:
        w = "?" if self.word is None else len(self.word)
        return f"GroupElement({self.sys.name}/{self.ring.descriptor}, word={w})"


def _factor_matrix(sys: RootSystem, ring: Ring, f: Factor) -> Mat:
    if f[0] == "x":
        return _x_mat(sys, ring, f[1], f[2])
    if f[0] == "h":
        return _char_mat(sys, ring, f[1])
    if f[0] == "scalar":
        return Mat.diagonal(ring, [f[1]] * sys.n)
    data = f[2]["matrix"]
    return Mat.from_int_matrix(ring, data.T if f[2].get("inv") else data)


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


def word_to_matrix(sys: RootSystem, ring: Ring, word) -> Mat:
    out = Mat.identity(ring, sys.n)
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
    if not sys.is_root(r):
        raise ValueError(f"{r} is not a root of {sys.name}")
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
def _root_splits(kind: str, rank: int) -> dict[Root, tuple[Root, int]]:
    """p -> (q, i) with p = q + a_i and q a root, for every non-simple
    positive root p; it depends only on the system."""
    sys = build_root_system(kind, rank)
    return {p: next((sub(p, s), i) for i, s in enumerate(sys.simple) if p[i] and sys.is_root(sub(p, s)))
            for p in sys.positive if p not in sys.simple}


def torus_diagonal(sys: RootSystem, ring: Ring, values: tuple[RingElem, ...]) -> list[RingElem]:
    """The diagonal of the torus element whose character takes `values` on
    the simple roots: chi(p) at 2k and chi(p)^-1 at 2k + 1 for the k-th
    positive root p, and 1 on the Cartan rows.

    sys.positive runs by height, so every non-simple root is an earlier root
    plus a simple root a_i (`_root_splits`), and its pair is that root's pair
    times (chi(a_i), chi(a_i)^-1): the l simple values are inverted once and
    each further root costs two products.
    """
    splits = _root_splits(sys.kind, sys.rank)
    pairs = {s: (v, v.inv()) for s, v in zip(sys.simple, values)}
    diag = []
    for p in sys.positive:
        if p not in pairs:
            q, i = splits[p]
            (v, w), (vi, wi) = pairs[q], pairs[sys.simple[i]]
            pairs[p] = (v * vi, w * wi)
        diag += pairs[p]
    return diag + [ring.one] * sys.rank


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


@lru_cache(maxsize=None)
def _t_k_powers(kind: str, rank: int, k: int) -> tuple[int, ...]:
    """The power of x on each diagonal position of t_k(x): p_k and -p_k on
    the pair of the positive root p, 0 on the Cartan rows."""
    sys = build_root_system(kind, rank)
    return tuple(e for p in sys.positive for e in (p[k], -p[k])) + (0,) * rank


def t_k(sys: RootSystem, ring: Ring, k: int, x: RingElem) -> GroupElement:
    """Torus element whose character is x on alpha_k and 1 on the other
    simples: its diagonal is x^{p_k} and x^{-p_k} on the pair of each
    positive root p, read from a table of the powers of x and of x^-1."""
    if not 0 <= k < sys.rank:
        raise ValueError(f"simple-root index {k} out of range")
    powers = _t_k_powers(sys.kind, sys.rank, k)
    x_inv = x.inv()  # the unit check: RingError when x is no unit
    table = {0: ring.one}
    for e in range(1, max(powers) + 1):
        table[e], table[-e] = table[e - 1] * x, table[1 - e] * x_inv
    values = tuple(x if i == k else ring.one for i in range(sys.rank))
    return GroupElement(sys, ring, Mat.diagonal(ring, [table[e] for e in powers]), (("h", values),))


def scalar_elem(sys: RootSystem, ring: Ring, lam: RingElem) -> GroupElement:
    if not ring.is_unit_vec(lam.vec):
        raise RingError("scalar factor must be a unit")
    return GroupElement(sys, ring, Mat.diagonal(ring, [lam] * sys.n), (("scalar", lam),))


# ---------------------------------------------------------------------------
# identities used as oracles
# ---------------------------------------------------------------------------


def check_torus_conjugation(sys: RootSystem, chi: Character, beta: Root, xi: RingElem) -> bool:
    """Exact check of h(chi) x_beta(xi) h(chi)^{-1} = x_beta(chi(beta) xi)."""
    ring = chi.ring
    h = h_elem(sys, chi)
    lhs = h @ x_elem(sys, ring, beta, xi) @ h.inverse()
    rhs = x_elem(sys, ring, beta, chi.value(tuple(beta)) * xi)
    return lhs == rhs


def commutator(g: GroupElement, h: GroupElement) -> GroupElement:
    return g @ h @ g.inverse() @ h.inverse()


def commutator_check(
    sys: RootSystem, ring: Ring, a: Root, b: Root, t: RingElem, u: RingElem
) -> bool:
    """[x_a(t), x_b(u)] = x_{a+b}(N(a,b) t u) when a+b is a root, identity otherwise."""
    a, b = tuple(a), tuple(b)
    if a == neg(b):
        raise ValueError("opposite roots are outside the commutator identity")
    c = commutator(x_elem(sys, ring, a, t), x_elem(sys, ring, b, u))
    s = add(a, b)
    if sys.is_root(s):
        N = structure_constants(sys)
        return c == x_elem(sys, ring, s, ring.from_int(N.n(a, b)) * t * u)
    return c.is_identity()


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


def graph_matrix(sys: RootSystem, ring: Ring, delta: str | tuple[int, ...]) -> GroupElement:
    """Signed permutation realizing a diagram automorphism by conjugation."""
    if isinstance(delta, str):
        autos = diagram_automorphisms(sys)
        if delta not in autos:
            raise ValueError(f"{sys.name} has no diagram automorphism {delta!r}")
        name, perm = delta, autos[delta]
    else:
        name, perm = "custom", tuple(delta)
    _check_diagram_symmetry(sys, perm)
    eps = _graph_signs(sys, perm)
    n = sys.n
    A = np.zeros((n, n), dtype=np.int64)
    for r in sys.roots:
        A[root_index(sys, apply_diagram(perm, r)), root_index(sys, r)] = eps[r]
    for i in range(sys.rank):
        A[h_index(sys, perm[i]), h_index(sys, i)] = 1
    # conjugation must permute the generator set: A X_r A^T = eps(r) X_{delta r}
    N = structure_constants(sys)
    for r in sys.roots:
        lhs = A @ ad_x(sys, N, r) @ A.T
        if not np.array_equal(lhs, eps[r] * ad_x(sys, N, apply_diagram(perm, r))):
            raise RuntimeError(f"diagram matrix fails on {r}")  # pragma: no cover
    word = (("perm", name, {"matrix": A, "inv": False}),)
    return GroupElement(sys, ring, Mat.from_int_matrix(ring, A), word)
