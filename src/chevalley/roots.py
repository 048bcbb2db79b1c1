"""Simply-laced root systems A_l (l>=2), D_l (l>=4), E_6, E_7, E_8.

Roots are integer coefficient vectors over the simple roots.  The diagram
numbering follows the realizations used throughout the package: A_l and D_l
are chains (D_l forks at node l-2), and E_l is the chain 1-3-4-...-l with
node 2 attached to node 4.

Beyond enumeration and pairing, this module builds the marked root sequence
used by the big-cell parameter recovery: a chain from the maximal root down
to a simple root, stepping by one simple root at a time, whose first l steps
subtract pairwise distinct simple roots.  Every positive root is classified
as a chain member, a difference of two members, or an exception that must be
anchored to a member.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

Root = tuple[int, ...]

SUPPORTED = ("A", "D", "E")


class RootSystemError(ValueError):
    pass


def parse_system(token: str) -> tuple[str, int]:
    m = re.fullmatch(r"([ADEade])_?(\d+)", token.strip())
    if not m:
        raise RootSystemError(f"bad system token {token!r}")
    return m.group(1).upper(), int(m.group(2))


def cartan_matrix(kind: str, rank: int) -> np.ndarray:
    A = 2 * np.eye(rank, dtype=np.int64)
    if kind == "A":
        if rank < 2:
            raise RootSystemError("A_l needs l >= 2")
        edges = [(i, i + 1) for i in range(rank - 1)]
    elif kind == "D":
        if rank < 4:
            raise RootSystemError("D_l needs l >= 4")
        edges = [(i, i + 1) for i in range(rank - 2)] + [(rank - 3, rank - 1)]
    elif kind == "E":
        if rank not in (6, 7, 8):
            raise RootSystemError("E_l needs l in {6, 7, 8}")
        chain = [0] + list(range(2, rank))
        edges = list(zip(chain, chain[1:])) + [(1, 3)]
    else:
        raise RootSystemError(f"unsupported system kind {kind!r}")
    for a, b in edges:
        A[a, b] = A[b, a] = -1
    return A


def solve_rational(A, B) -> list[list[Fraction]]:
    """X with A X = B over the rationals, by exact Gauss-Jordan elimination.

    A is a square integer matrix and B an integer matrix with as many rows,
    both given as sequences of rows; a singular A raises RootSystemError.
    """
    n = len(A)
    rows = [[Fraction(int(x)) for x in a] + [Fraction(int(x)) for x in b] for a, b in zip(A, B)]
    width = len(rows[0])
    for c in range(n):
        piv = next((r for r in range(c, n) if rows[r][c]), None)
        if piv is None:
            raise RootSystemError("singular rational system")
        rows[c], rows[piv] = rows[piv], rows[c]
        top = rows[c]
        # columns up to c are final: only columns beyond c are updated
        for j in range(c + 1, width):
            top[j] /= top[c]
        for r, row in enumerate(rows):
            if r != c and row[c]:
                for j in range(c + 1, width):
                    row[j] -= row[c] * top[j]
    return [row[n:] for row in rows]


def height(r: Root) -> int:
    return sum(r)


def neg(r: Root) -> Root:
    return tuple(-c for c in r)


def add(a: Root, b: Root) -> Root:
    return tuple(x + y for x, y in zip(a, b))


def sub(a: Root, b: Root) -> Root:
    return tuple(x - y for x, y in zip(a, b))


class RootSystem:
    """Immutable root-system data: roots, positives, pairing, maximal root."""

    def __init__(self, kind: str, rank: int):
        self.kind = kind
        self.rank = rank
        self.cartan = cartan_matrix(kind, rank)
        self.simple: tuple[Root, ...] = tuple(
            tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)
        )
        rootset = self._close()
        positives = [r for r in rootset if height(r) > 0]
        # fixed enumeration: the simple roots first, then by (height, lex)
        rest = sorted((r for r in positives if r not in self.simple), key=lambda r: (height(r), r))
        self.positive: tuple[Root, ...] = self.simple + tuple(rest)
        self.rootset = frozenset(rootset)
        self.roots: tuple[Root, ...] = self.positive + tuple(neg(r) for r in self.positive)
        self.m = len(self.positive)
        self.n = rank + 2 * self.m
        self.maximal: Root = max(self.positive, key=height)
        self.pos_index = {r: i for i, r in enumerate(self.positive)}
        self._ad_cache: dict = {}

    def _close(self) -> set[Root]:
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

    def pairing(self, a: Root, b: Root) -> int:
        # <a, b> = 2(a,b)/(b,b); with all root lengths equal this is the
        # Cartan form evaluated on coefficient vectors
        return int(np.asarray(a) @ self.cartan @ np.asarray(b))

    def is_root(self, r) -> bool:
        return tuple(r) in self.rootset

    @property
    def name(self) -> str:
        return f"{self.kind}{self.rank}"

    def __repr__(self) -> str:
        return f"RootSystem({self.name}, m={self.m}, n={self.n})"


@lru_cache(maxsize=None)
def build_root_system(kind: str, rank: int) -> RootSystem:
    return RootSystem(kind, rank)


def system(token: str) -> RootSystem:
    return build_root_system(*parse_system(token))


def sum_decomposition(sys: RootSystem, alpha: Root) -> tuple[Root, Root]:
    """Some (beta, gamma) with beta + gamma = alpha; beta lexicographically least."""
    for beta in sorted(sys.rootset):
        gamma = sub(alpha, beta)
        if gamma != beta and sys.is_root(gamma):
            return beta, gamma
    raise RootSystemError(f"{alpha} is not a sum of two roots")


# ---------------------------------------------------------------------------
# marked sequences
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExceptionEntry:
    beta: Root        # the unclassified positive root
    anchor: Root      # chain member gamma_a with anchor - beta a root
    delta: Root       # anchor - beta


@dataclass(frozen=True)
class MarkedSequence:
    system: str
    gammas: tuple[Root, ...]
    subtracted: tuple[int, ...]           # simple-root index removed at each step
    exceptions: tuple[ExceptionEntry, ...]  # height-ordered


# fixed chain for E8 from the maximal root (2,3,4,6,5,4,3,2) down to alpha_1;
# the first eight subtracted simple roots are pairwise distinct
_E8_CHAIN: tuple[Root, ...] = (
    (2, 3, 4, 6, 5, 4, 3, 2),
    (2, 3, 4, 6, 5, 4, 3, 1),
    (2, 3, 4, 6, 5, 4, 2, 1),
    (2, 3, 4, 6, 5, 3, 2, 1),
    (2, 3, 4, 6, 4, 3, 2, 1),
    (2, 3, 4, 5, 4, 3, 2, 1),
    (2, 2, 4, 5, 4, 3, 2, 1),
    (2, 2, 3, 5, 4, 3, 2, 1),
    (1, 2, 3, 5, 4, 3, 2, 1),
    (1, 2, 3, 4, 4, 3, 2, 1),
    (1, 2, 3, 4, 3, 3, 2, 1),
    (1, 2, 2, 4, 3, 3, 2, 1),
    (1, 2, 2, 3, 3, 3, 2, 1),
    (1, 1, 2, 3, 3, 3, 2, 1),
    (1, 1, 2, 3, 3, 2, 2, 1),
    (1, 1, 2, 3, 2, 2, 2, 1),
    (1, 1, 2, 2, 2, 2, 2, 1),
    (1, 1, 1, 2, 2, 2, 2, 1),
    (1, 1, 1, 2, 2, 2, 1, 1),
    (1, 1, 1, 2, 2, 1, 1, 1),
    (1, 1, 1, 2, 1, 1, 1, 1),
    (1, 1, 1, 1, 1, 1, 1, 1),
    (1, 0, 1, 1, 1, 1, 1, 1),
    (1, 0, 1, 1, 1, 1, 1, 0),
    (1, 0, 1, 1, 1, 1, 0, 0),
    (1, 0, 1, 1, 1, 0, 0, 0),
    (1, 0, 1, 1, 0, 0, 0, 0),
    (1, 0, 1, 0, 0, 0, 0, 0),
    (1, 0, 0, 0, 0, 0, 0, 0),
)


def _d_chain(sys: RootSystem) -> list[Root]:
    l = sys.rank

    def e_minus(i: int, j: int) -> Root:  # e_i - e_j, 1 <= i < j <= l
        return tuple(1 if i <= k + 1 < j else 0 for k in range(l))

    def e_plus(i: int, j: int) -> Root:  # e_i + e_j, 1 <= i < j <= l
        c = [0] * l
        if j == l:
            for k in range(i, l - 1):
                c[k - 1] = 1
            c[l - 1] = 1
        else:
            for k in range(i, j):
                c[k - 1] = 1
            for k in range(j, l - 1):
                c[k - 1] += 2
            c[l - 2] += 1
            c[l - 1] += 1
        return tuple(c)

    chain = [e_plus(1, 2), e_plus(1, 3)]
    chain += [e_plus(2, j) for j in range(3, l)]
    chain.append(e_minus(2, l))
    chain += [e_minus(2, j) for j in range(l - 1, 2, -1)]
    return chain


def _greedy_chain(sys: RootSystem) -> list[Root]:
    """Depth-first chain from the maximal root, keeping the first l steps distinct."""
    l = sys.rank
    found: list[Root] | None = None

    def dfs(chain: list[Root], used: frozenset[int], steps: int) -> None:
        nonlocal found
        if found is not None:
            return
        g = chain[-1]
        if height(g) == 1:
            found = list(chain)
            return
        for i, s in enumerate(sys.simple):
            nxt = sub(g, s)
            if not sys.is_root(nxt) or height(nxt) <= 0:
                continue
            if steps < l and i in used:
                continue
            dfs(chain + [nxt], used | ({i} if steps < l else frozenset()), steps + 1)

    dfs([sys.maximal], frozenset(), 0)
    if found is None:
        raise RootSystemError(f"no marked chain found for {sys.name}")
    return found


def classify_roots(sys: RootSystem, gammas) -> tuple[dict[Root, str], list[Root]]:
    """Label every positive root member/difference/exception for a chain."""
    members = set(gammas)
    diffs = set()
    for p in members:
        for q in members:
            d = sub(p, q)
            if sys.is_root(d):
                diffs.add(d)
    labels: dict[Root, str] = {}
    exceptions: list[Root] = []
    for r in sorted(sys.positive, key=lambda r: (height(r), r)):
        if r in members:
            labels[r] = "member"
        elif r in diffs:
            labels[r] = "difference"
        else:
            labels[r] = "exception"
            exceptions.append(r)
    return labels, exceptions


def _anchor(sys: RootSystem, gammas, beta: Root) -> ExceptionEntry:
    for g in gammas:
        d = sub(g, beta)
        if sys.is_root(d):
            return ExceptionEntry(beta=beta, anchor=g, delta=d)
    raise RootSystemError(f"no chain member anchors exception {beta}")


@lru_cache(maxsize=None)
def _marked(kind: str, rank: int) -> MarkedSequence:
    sys = build_root_system(kind, rank)
    if kind == "D":
        chain = _d_chain(sys)
    elif kind == "E" and rank == 8:
        chain = list(_E8_CHAIN)
    else:
        chain = _greedy_chain(sys)
    subtracted = []
    for a, b in zip(chain, chain[1:]):
        d = sub(a, b)
        if d not in sys.simple:
            raise RootSystemError(f"chain step {a} -> {b} is not simple")
        subtracted.append(sys.simple.index(d))
    _, exceptions = classify_roots(sys, chain)
    entries = tuple(_anchor(sys, chain, b) for b in exceptions)
    return MarkedSequence(
        system=sys.name,
        gammas=tuple(chain),
        subtracted=tuple(subtracted),
        exceptions=entries,
    )


def marked_sequence(sys: RootSystem) -> MarkedSequence:
    return _marked(sys.kind, sys.rank)


@dataclass(frozen=True)
class MarkedReport:
    starts_at_maximal: bool
    ends_at_simple: bool
    steps_simple: bool
    first_l_distinct: bool
    classification: dict[Root, str]
    exception_count: int
    anchors_ok: bool
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_marked_properties(sys: RootSystem, seq: MarkedSequence) -> MarkedReport:
    failures: list[str] = []
    p1 = seq.gammas[0] == sys.maximal
    if not p1:
        failures.append("first chain root is not the maximal root")
    p2 = height(seq.gammas[-1]) == 1
    if not p2:
        failures.append("last chain root is not simple")
    p3 = all(sys.is_root(g) for g in seq.gammas) and all(
        sub(a, b) in sys.simple for a, b in zip(seq.gammas, seq.gammas[1:])
    )
    if not p3:
        failures.append("some chain step does not subtract a simple root")
    # chains of length l (type A) only have l - 1 subtraction steps; the
    # distinctness requirement applies to however many of the first l exist
    firstl = seq.subtracted[: sys.rank]
    p4 = len(set(firstl)) == len(firstl)
    if not p4:
        failures.append("first l subtracted simple roots are not pairwise distinct")
    labels, exceptions = classify_roots(sys, seq.gammas)
    anchors_ok = True
    listed = {e.beta for e in seq.exceptions}
    if listed != set(exceptions):
        anchors_ok = False
        failures.append("stored exception list disagrees with classification")
    for e in seq.exceptions:
        if not (sys.is_root(e.delta) and sub(e.anchor, e.beta) == e.delta):
            anchors_ok = False
            failures.append(f"bad anchor for exception {e.beta}")
    return MarkedReport(
        starts_at_maximal=p1,
        ends_at_simple=p2,
        steps_simple=p3,
        first_l_distinct=p4,
        classification=labels,
        exception_count=len(exceptions),
        anchors_ok=anchors_ok,
        failures=tuple(failures),
    )


def marked_to_json(seq: MarkedSequence) -> dict:
    return {
        "system": seq.system,
        "gammas": [list(g) for g in seq.gammas],
        "subtracted": [i + 1 for i in seq.subtracted],
        "exceptions": [
            {"beta": list(e.beta), "delta": list(e.delta), "anchor": list(e.anchor)}
            for e in seq.exceptions
        ],
    }
