"""Chevalley basis data: structure constants and adjoint-representation matrices.

Basis ordering of the n = l + 2m dimensional module: for the i-th positive
root (0-based, in the system's fixed enumeration) the vectors x_{+root} and
x_{-root} sit at columns 2i and 2i+1; the Cartan generators h_1..h_l follow.

Structure-constant signs come from a bilinear +-1 cocycle on the root lattice
(defined by its values on pairs of simple roots), twisted by root-sign parity
so that [x_a, x_{-a}] = +h_a holds on the nose.  The choice is deterministic
and is validated by the exhaustive Jacobi tests.
"""

from __future__ import annotations

import numpy as np

from .roots import Root, RootSystem, add, height, neg

BasisElem = tuple  # ("x", root) | ("h", i)


class StructureConstants:
    """Signs N(a, b) with [x_a, x_b] = N(a, b) x_{a+b} when a + b is a root."""

    def __init__(self, sys: RootSystem):
        self.sys = sys
        self.basis = basis_elements(sys)  # listed once for every root's `ad_x_tables`
        l = sys.rank
        # eps(a_i, a_i) = -1; eps(a_i, a_j) = (-1)^(a_i, a_j) for i < j; else +1
        B = np.zeros((l, l), dtype=np.int64)
        for i in range(l):
            B[i, i] = 1
            for j in range(i + 1, l):
                B[i, j] = sys.cartan[i, j] % 2
        self._B = B

    def n(self, a: Root, b: Root) -> int:
        s = add(a, b)
        if not self.sys.is_root(s):
            raise ValueError(f"{a} + {b} is not a root")
        e = int(np.asarray(a) @ self._B @ np.asarray(b)) % 2
        sign = -1 if e else 1
        # parity twist: keeps the opposite-root bracket normalized to +h_a
        if height(a) < 0:
            sign = -sign
        if height(b) < 0:
            sign = -sign
        if height(s) < 0:
            sign = -sign
        return sign

    def bracket(self, u: BasisElem, v: BasisElem) -> dict[BasisElem, int]:
        """Bracket of two basis elements as a sparse coefficient map."""
        sys = self.sys
        out: dict[BasisElem, int] = {}
        if u[0] == "h" and v[0] == "h":
            return out
        if u[0] == "h":
            out[v] = sys.pairing(v[1], sys.simple[u[1]])
            return out
        if v[0] == "h":
            out[u] = -sys.pairing(u[1], sys.simple[v[1]])
            return out
        a, b = u[1], v[1]
        s = add(a, b)
        if all(c == 0 for c in s):
            # coroot coefficients equal root coefficients (simply laced)
            pos = a if height(a) > 0 else neg(a)
            sign = 1 if height(a) > 0 else -1
            for i, c in enumerate(pos):
                if c:
                    out[("h", i)] = sign * c
            return out
        if sys.is_root(s):
            out[("x", s)] = self.n(a, b)
        return out


def structure_constants(sys: RootSystem) -> StructureConstants:
    if "N" not in sys._ad_cache:
        sys._ad_cache["N"] = StructureConstants(sys)
    return sys._ad_cache["N"]


# ---------------------------------------------------------------------------
# basis indexing
# ---------------------------------------------------------------------------


def root_index(sys: RootSystem, r: Root) -> int:
    rt = tuple(r)
    if height(rt) > 0:
        return 2 * sys.pos_index[rt]
    return 2 * sys.pos_index[neg(rt)] + 1


def h_index(sys: RootSystem, i: int) -> int:
    return 2 * sys.m + i


def basis_elements(sys: RootSystem) -> list[BasisElem]:
    out: list[BasisElem] = []
    for p in sys.positive:
        out.append(("x", p))
        out.append(("x", neg(p)))
    out += [("h", i) for i in range(sys.rank)]
    return out


def index_of(sys: RootSystem, elem: BasisElem) -> int:
    return root_index(sys, elem[1]) if elem[0] == "x" else h_index(sys, elem[1])


# ---------------------------------------------------------------------------
# matrices (plain integer numpy arrays; rings lift them as needed)
# ---------------------------------------------------------------------------


class SparseColumns:
    """Nonzero entries of an integer n x n matrix A as a read-only COO record.

    Built from (src, dst, coeff) triples, A[dst, src] = coeff, with distinct
    (src, dst); zero coefficients are dropped, and `src`, `dst`, `coeff` hold
    the rest sorted by (src, dst).  `col_bound` is the largest column sum of
    |coeff|, so an entry of M @ A is at most col_bound times the largest
    |entry| of M.
    """

    __slots__ = ("n", "src", "dst", "coeff", "col_bound")

    def __init__(self, n: int, entries):
        entries = sorted(e for e in entries if e[2])
        self.n = n
        self.src = _frozen([s for s, _, _ in entries])
        self.dst = _frozen([d for _, d, _ in entries])
        self.coeff = _frozen([c for _, _, c in entries])
        col_sums: dict[int, int] = {}
        for s, _, c in entries:
            col_sums[s] = col_sums.get(s, 0) + abs(c)
        self.col_bound = max(col_sums.values(), default=0)

    def dense(self) -> np.ndarray:
        A = np.zeros((self.n, self.n), dtype=np.int64)
        A[self.dst, self.src] = self.coeff
        A.setflags(write=False)
        return A


def _frozen(values) -> np.ndarray:
    a = np.array(values, dtype=np.int64)
    a.setflags(write=False)
    return a


def ad_x_tables(sys: RootSystem, N: StructureConstants, r: Root) -> tuple[SparseColumns, SparseColumns]:
    """Sparse columns of X = ad x_r and of H = (ad x_r)^2 / 2, built once per
    root: the generator series x_r(t) = I + t X + t^2 H, stated here only.

    The square is the sparse product of ad x_r with itself, so no dense
    n x n x n product is ever formed.  Its entries arise only through the
    Cartan subspace and are even, so H is integral; an odd entry raises
    ArithmeticError, and a non-root ValueError, here for every user.
    """
    r = tuple(r)
    key = ("ad_tables", r)
    if key not in sys._ad_cache:
        if not sys.is_root(r):
            raise ValueError(f"{r} is not a root of {sys.name}")
        columns: dict[int, list[tuple[int, int]]] = {}
        for col, u in enumerate(N.basis):
            for t, c in N.bracket(("x", r), u).items():
                columns.setdefault(col, []).append((index_of(sys, t), c))
        square: dict[tuple[int, int], int] = {}
        for j, col in columns.items():
            for k, c in col:
                for i, c2 in columns.get(k, ()):
                    square[j, i] = square.get((j, i), 0) + c * c2
        odd = next((c for c in square.values() if c % 2), None)
        if odd is not None:
            raise ArithmeticError(f"(ad x_{r})^2 has the odd entry {odd}: x_{r}(t) is not integral")
        X = SparseColumns(sys.n, [(j, i, c) for j, col in columns.items() for i, c in col])
        H = SparseColumns(sys.n, [(j, i, c // 2) for (j, i), c in square.items()])
        sys._ad_cache[key] = (X, H)
    return sys._ad_cache[key]


def ad_x(sys: RootSystem, N: StructureConstants, r: Root) -> np.ndarray:
    """Matrix of ad x_r on the Chevalley basis; columns index the source
    vector.  Formed from the sparse table on each call, not cached dense."""
    return ad_x_tables(sys, N, r)[0].dense()


def ad_x_squared(sys: RootSystem, N: StructureConstants, r: Root) -> np.ndarray:
    """Matrix of (ad x_r)^2, twice the half-square table (not cached dense)."""
    return 2 * ad_x_tables(sys, N, r)[1].dense()


def t_matrix(sys: RootSystem, i: int) -> np.ndarray:
    """Diagonal matrix reading off the alpha_i coefficient of each root position."""
    if not 0 <= i < sys.rank:
        raise ValueError(f"simple-root index {i} out of range")
    n = sys.n
    T = np.zeros((n, n), dtype=np.int64)
    for k, p in enumerate(sys.positive):
        T[2 * k, 2 * k] = p[i]
        T[2 * k + 1, 2 * k + 1] = -p[i]
    return T


def _bracket_combo(N: StructureConstants, u: BasisElem, combo: dict[BasisElem, int]) -> dict[BasisElem, int]:
    out: dict[BasisElem, int] = {}
    for v, c in combo.items():
        for t, c2 in N.bracket(u, v).items():
            out[t] = out.get(t, 0) + c * c2
    return {k: v for k, v in out.items() if v}


def jacobi_defect(N: StructureConstants, u: BasisElem, v: BasisElem, w: BasisElem) -> dict[BasisElem, int]:
    """[u,[v,w]] + [v,[w,u]] + [w,[u,v]] as a coefficient map (empty iff zero)."""
    acc: dict[BasisElem, int] = {}
    for a, b, c in ((u, v, w), (v, w, u), (w, u, v)):
        for t, coeff in _bracket_combo(N, a, N.bracket(b, c)).items():
            acc[t] = acc.get(t, 0) + coeff
    return {k: val for k, val in acc.items() if val}
