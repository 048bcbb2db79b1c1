"""Torus lifts over a root-adjunction extension.

A basic torus element of the residue picture acts on the generator of the
first simple root by a unit r and fixes the other simple-root generators.
The lift realizes this action as a genuine diagonal element over S = R or
over S = R[y]/(y^m - r), as a product of h_{alpha_i} factors whose exponents
are the first fundamental coweight cleared of denominators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .group import GroupElement, h_alpha, x_elem
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
    element: GroupElement      # the diagonal lift t

    def embed(self, x: RingElem) -> RingElem:
        if isinstance(self.ring, ExtRing):
            return self.ring.embed(x)
        return x


def build_lift(sys: RootSystem, base: Ring, r: RingElem) -> TorusLift:
    if not is_unit(r):
        raise RingError("the realized torus value must be a unit")
    m, exps = lift_exponents(sys)
    if m == 1:
        S: Ring = base
        s = r
    else:
        S, s = adjoin_root(base, r, m)
    t = GroupElement.identity(sys, S)
    for i, e in enumerate(exps):
        t = t @ h_alpha(sys, S, sys.simple[i], s**e)
    return TorusLift(
        system=sys.name,
        base=base,
        ring=S,
        r=r,
        root_power=m,
        exponents=exps,
        gen=s,
        element=t,
    )


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
    always including one of maximal alpha_1 coefficient.  The lift t is
    diagonal, so t^{-1} is the diagonal of its entries' inverses, and
    t x_a(u) t^{-1} is one generator step and one column scaling.
    """
    S, base = lift.ring, lift.base
    t = lift.element.mat
    t_inv = Mat.diagonal(S, [e.inv() for e in t.diagonal_elems()])
    checks: list[LiftCheck] = []
    sample: list[Root] = list(sys.simple)
    others = [r for r in sys.roots if r not in sys.simple]
    kmax = max(others, key=lambda r: r[0])
    sample.append(kmax)
    for _ in range(max(0, general_roots - 1)):
        sample.append(others[rng.randrange(len(others))])
    for root in sample:
        k = root[0]
        u = base.random_element(rng)
        x = x_elem(sys, S, root, lift.embed(u))
        lhs = t @ x.mat @ t_inv
        rhs = x_elem(sys, S, root, lift.embed((lift.r**k) * u))
        checks.append(LiftCheck(root=root, expected_power=k, ok=lhs == rhs.mat))
    return LiftReport(system=sys.name, checks=tuple(checks))
