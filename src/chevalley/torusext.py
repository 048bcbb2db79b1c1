"""Torus lifts over a root-adjunction extension.

A basic torus element of the residue picture acts on the generator of the
first simple root by a unit r and fixes the other simple-root generators.
The lift realizes this action as a genuine diagonal element over S = R or
over S = R[y]/(y^m - r), as a product of h_{alpha_i} factors whose exponents
are the first fundamental coweight cleared of denominators.  Their characters
multiply value by value, so t and t^-1 are one `torus_diagonal` walk each.

`verify_lift` compares t x_a(u) t^-1 with x_a(r^k u) on the support of
x_a - I only.  Entry (i, j) of t x t^-1 is d_i x_ij d^-1_j, for the diagonals
d of t and d^-1 of t^-1.  Both generators have the same support, which never
meets the diagonal, and `_off_identity` reads their entries there from the
tables of ad x_a and half its square, with no generator built; the left side
there is x's entry scaled by d[row] d^-1[col].
On the diagonal the left side is d_i d^-1_i and the right side 1, which one
check per lift covers; everywhere else both sides are 0.  So the comparison
is exact, equals comparing the full matrices, and forms no n x n matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .group import GroupElement, h_alpha_values, torus_diagonal
from .lie import ad_x_tables, structure_constants
from .matrices import Mat
from .rings import ExtRing, Ring, RingElem, RingError, adjoin_root, is_unit
from .roots import Root, RootSystem, build_root_system, solve_rational


def coweight_exponents(sys: RootSystem) -> tuple[int, tuple[int, ...]]:
    """(m, e) with e / m = A^{-1} e_1, the first fundamental coweight, and m
    its least common denominator."""
    x = [row[0] for row in solve_rational(sys.cartan, [[int(i == 0)] for i in range(sys.rank)])]
    m = math.lcm(*(v.denominator for v in x))
    return m, tuple(int(v * m) for v in x)


@lru_cache(maxsize=None)
def _lift_exponents(kind: str, rank: int) -> tuple[int, tuple[int, ...]]:
    return coweight_exponents(build_root_system(kind, rank))


def lift_exponents(sys: RootSystem) -> tuple[int, tuple[int, ...]]:
    """(m, exponents): the lift is prod_i h_{alpha_i}(s^{e_i}) with s^m = r."""
    return _lift_exponents(sys.kind, sys.rank)


@dataclass(frozen=True)
class TorusLift:
    system: str
    base: Ring
    ring: Ring                 # S: the base itself or an extension
    r: RingElem                # unit of the base being realized
    root_power: int            # m with s^m = r (1 when S = R)
    exponents: tuple[int, ...]
    gen: RingElem              # s in S
    character: tuple[RingElem, ...]  # the values of t on the simple roots
    element: GroupElement      # the diagonal lift t

    def embed(self, x: RingElem) -> RingElem:
        if isinstance(self.ring, ExtRing):
            return self.ring.embed(x)
        return x


def build_lift(sys: RootSystem, base: Ring, r: RingElem) -> TorusLift:
    if not is_unit(r):
        raise RingError("the realized torus value must be a unit")
    m, exps = lift_exponents(sys)
    S, s = (base, r) if m == 1 else adjoin_root(base, r, m)
    word, chi = [], [S.one] * sys.rank
    for alpha, e in zip(sys.simple, exps):
        word.append(("h", h_alpha_values(sys, alpha, s**e)))
        chi = [c * v for c, v in zip(chi, word[-1][1])]
    t = GroupElement(sys, S, Mat.diagonal(S, torus_diagonal(sys, S, tuple(chi))), tuple(word))
    return TorusLift(system=sys.name, base=base, ring=S, r=r, root_power=m, exponents=exps,
                     gen=s, character=tuple(chi), element=t)


@dataclass(frozen=True)
class LiftCheck:
    root: Root
    expected_power: int
    ok: bool


@dataclass(frozen=True)
class LiftReport:
    system: str
    checks: tuple[LiftCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


def verify_lift(
    lift: TorusLift,
    sys: RootSystem,
    rng,
    *,
    general_roots: int = 20,
) -> LiftReport:
    """Check t x_a(u) t^{-1} = x_a(r^k u) with k the alpha_1 coefficient of a.

    Simple roots are all checked; `general_roots` further roots are sampled,
    always including one of maximal alpha_1 coefficient.  t^{-1} is the
    torus element of the inverted character; both sides are compared on the
    support of x_a - I, after one check that t t^{-1} is 1 on the diagonal
    (module docstring).
    """
    S, base = lift.ring, lift.base
    d = lift.element.mat.diagonal_stack()
    d_inv = Mat.diagonal(S, torus_diagonal(sys, S, tuple(v.inv() for v in lift.character))).diagonal_stack()
    inverse_ok = bool((S.mat_elemmul(d, d_inv) == np.array(S.one.vec)[:, None]).all())
    sample: list[Root] = list(sys.simple)
    others = [r for r in sys.roots if r not in sys.simple]
    kmax = max(others, key=lambda r: r[0])
    sample.append(kmax)
    for _ in range(max(0, general_roots - 1)):
        sample.append(others[rng.randrange(len(others))])
    us = [base.random_element(rng) for _ in sample]
    rows, cols, sizes, (values, rhs) = _off_identity(
        sys, S, sample, [lift.embed(u) for u in us],
        [lift.embed((lift.r ** root[0]) * u) for root, u in zip(sample, us)])
    # the entries of every check side by side: two products for the lift
    lhs = S.mat_elemmul(values, S.mat_elemmul(d[:, rows], d_inv[:, cols]))
    same = (lhs == rhs).all(axis=0)
    checks = tuple(LiftCheck(root=root, expected_power=root[0], ok=inverse_ok and bool(part.all()))
                   for root, part in zip(sample, np.split(same, np.cumsum(sizes)[:-1])))
    return LiftReport(system=sys.name, checks=checks)


def _off_identity(sys: RootSystem, ring: Ring, roots, *params):
    """The entries of x_r(t) - I where X = ad x_r or H = (ad x_r)^2 / 2 is
    nonzero, for every root r of `roots` side by side, read from the two
    tables: x_r(t) - I = t X + t^2 H, and the tables never share a position
    and stay off the diagonal, so x_r(t) - I is 0 elsewhere.

    Returns (rows, cols, sizes, values): the positions, the number of
    positions of each root, and for each sequence in `params` (one t per
    root) the (depth, count) stack of entries, t or t^2 times the table's
    coefficient."""
    N = structure_constants(sys)
    tables = [A for r in roots for A in ad_x_tables(sys, N, r)]
    counts = [len(A.coeff) for A in tables]
    coeff = np.concatenate([A.coeff for A in tables])

    def entries(ts) -> np.ndarray:
        scalars = np.array([v for t in ts for v in (t.vec, (t * t).vec)], dtype=np.int64)
        return ring.mat_mod(np.repeat(scalars.T, counts, axis=1) * coeff)

    return (np.concatenate([A.dst for A in tables]), np.concatenate([A.src for A in tables]),
            [a + b for a, b in zip(counts[::2], counts[1::2])], [entries(ts) for ts in params])
