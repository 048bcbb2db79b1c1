"""The benchmark's workloads: which cases one cycle runs and how each is checked.

A case drives `chevalley.cli.main` in-process (stdout captured) or one
library call, checks its output structurally, and returns the text whose
SHA-256 the runner compares with the digest recorded in `digests.json`.
Random inputs come from fixed pools of suite seeds; the benchmark seed
picks from the pools, so every case any seed can draw has a recorded digest.
A cycle has a fixed make-up of case kinds, so every seed times the same mix.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from dataclasses import dataclass
from typing import Callable

POOL = 24   # suite seeds per case kind with a recorded digest


class CheckFailed(Exception):
    """A case ran but its output is wrong."""


@dataclass(frozen=True)
class Case:
    key: str                    # digest key: names the verb and its inputs
    run: Callable[[], str]      # runs and checks the case; returns the digested text


def run_cli(pkg, argv, stdin_text="") -> str:
    """`chevalley.cli.main(argv)` with stdin fed and stdout captured."""
    out = io.StringIO()
    old_stdin, sys.stdin = sys.stdin, io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out):
            code = pkg.cli.main(list(argv))
    finally:
        sys.stdin = old_stdin
    if code != 0:
        raise CheckFailed(f"exit code {code}")
    return out.getvalue()


def verify_case(pkg, argv, expect=None) -> Case:
    """`chevalley verify ...`: the report must say ok, and match `expect`."""
    argv = ("verify",) + tuple(argv)

    def run() -> str:
        text = run_cli(pkg, argv)
        rep = json.loads(text)
        if rep.get("ok") is not True:
            raise CheckFailed(f"report not ok: failed={rep.get('failed')}")
        for k, v in (expect or {}).items():
            if rep.get(k) != v:
                raise CheckFailed(f"{k} = {rep.get(k)!r}, expected {v!r}")
        return text

    return Case(" ".join(argv), run)


class Workload:
    """Systems to set up, the cases of one cycle, and every case it can draw."""

    name: str
    systems: tuple[str, ...]    # built during set-up

    def cycle(self, pkg, rng: random.Random) -> list[Case]:
        raise NotImplementedError

    def pool(self, pkg) -> list[Case]:
        """Every case a cycle can draw, for recording digests."""
        raise NotImplementedError


class Roundtrip(Workload):
    """lemma2 round trips, and matrices serialized and fed to `decompose`."""

    def __init__(self, name="roundtrip-e7", system="E7", ring="zmod:3^3", pool=POOL):
        self.name, self.system, self.ring, self.size = name, system, ring, pool
        self.systems = (system,)

    def lemma2(self, pkg, seed) -> Case:
        return verify_case(pkg, ("lemma2", "--system", self.system, "--ring", self.ring,
                                 "--count", "1", "--seed", str(seed)))

    def decompose(self, pkg, seed) -> Case:
        argv = ("decompose", "--system", self.system, "--ring", self.ring, "--matrix-file", "-")

        def run() -> str:
            sy = pkg.roots.system(self.system)
            ring = pkg.rings.make_ring(self.ring)
            f = pkg.suites.random_factored(sy, ring, random.Random(seed))
            X = pkg.decompose.compose(sy, f)
            text = run_cli(pkg, argv, json.dumps(X.mat.to_json()))
            if json.loads(text) != f.to_json():
                raise CheckFailed("decompose returned other parameters")
            return text

        return Case(" ".join(argv) + f" <random_factored seed={seed}", run)

    def cycle(self, pkg, rng):
        return [self.lemma2(pkg, rng.randrange(self.size)),
                self.decompose(pkg, rng.randrange(self.size)),
                self.lemma2(pkg, rng.randrange(self.size))]

    def pool(self, pkg):
        return ([self.lemma2(pkg, s) for s in range(self.size)]
                + [self.decompose(pkg, s) for s in range(self.size)])


class Certify(Workload):
    """Standardness certificates over a multi-slot ring, and torus lifts
    into a root-adjunction extension."""

    def __init__(self, name="certify-e6-nonprime", system="E6", cert_ring="trunc:3:3",
                 lift_ring="zmod:5^2", lift_count=8, pool=POOL):
        self.name, self.system, self.size = name, system, pool
        self.cert_ring, self.lift_ring, self.lift_count = cert_ring, lift_ring, lift_count
        self.systems = (system,)

    def certificate(self, pkg, seed) -> Case:
        return verify_case(pkg, ("certificate", "--system", self.system, "--ring", self.cert_ring,
                                 "--count", "1", "--seed", str(seed)))

    def lemma3(self, pkg, seed) -> Case:
        return verify_case(pkg, ("lemma3", "--system", self.system, "--ring", self.lift_ring,
                                 "--count", str(self.lift_count), "--seed", str(seed)))

    def cycle(self, pkg, rng):
        return [self.certificate(pkg, rng.randrange(self.size)),
                self.lemma3(pkg, rng.randrange(self.size))]

    def pool(self, pkg):
        return ([self.certificate(pkg, s) for s in range(self.size)]
                + [self.lemma3(pkg, s) for s in range(self.size)])


class Kernel(Workload):
    """Linearized normalizer system (kernel 0) and the commutation control
    (kernel 1).  They take no random input; the seed only rotates their order."""

    def __init__(self, name="kernel-d5", system="D5", control_system="D4", ring="gf:3"):
        self.name, self.system, self.control_system, self.ring = name, system, control_system, ring
        self.systems = (system, control_system)

    def cases(self, pkg):
        kernel = verify_case(pkg, ("kernel", "--system", self.system, "--ring", self.ring),
                             {"kernel_dimension": 0})
        control = verify_case(pkg, ("kernel", "--system", self.control_system, "--ring", self.ring,
                                    "--control"), {"kernel_dimension": 1})
        return kernel, control

    def cycle(self, pkg, rng):
        kernel, control = self.cases(pkg)
        cyc = [kernel, control, kernel]
        k = rng.randrange(len(cyc))
        return cyc[k:] + cyc[:k]

    def pool(self, pkg):
        return list(self.cases(pkg))


# D5 cells: diagonal, Cartan and off-diagonal, each 0.1-2 s with the path
# DFS on a 2-core Xeon.  (-theta, theta), at about 6 s, is left out so that
# the 12 formulas take about 5 s together.
D5_CELLS = (
    ((1, 0, 0, 0, 0), (1, 0, 0, 0, 0)),
    ((-1, 0, 0, 0, 0), (-1, 0, 0, 0, 0)),
    ((0, 0, 1, 0, 0), (0, 0, 1, 0, 0)),
    (("h", 0), ("h", 0)),
    (("h", 2), ("h", 4)),
    ((1, 2, 2, 1, 1), ("h", 1)),
    ((-1, -2, -2, -1, -1), ("h", 1)),
    ((0, 0, 0, 0, -1), (0, 0, -1, -1, 0)),
    ((-1, -1, -1, 0, 0), (1, 1, 0, 0, 0)),
    ((1, 2, 2, 1, 1), (0, 0, 1, 1, 0)),
    ((-1, -1, -1, -1, -1), (0, 1, 1, 1, 1)),
    ((0, 0, 1, 0, 0), (0, 1, 2, 1, 1)),
)


def _cell_text(cell) -> str:
    return ",".join(str(c) for c in cell)


class Formula(Workload):
    """Symbolic entry formulas, each evaluated at a random point and compared
    with the composed product's entry.  The cell set is fixed, so every seed
    times the same formulas; the seed orders them and draws the points."""

    # t and u are arbitrary here (the product is a polynomial identity), so a
    # large field makes the check strong: no term vanishes by nilpotency
    CHECK_RING = "gf:10007"

    def __init__(self, name="formula-d5", system="D5", cells=D5_CELLS):
        self.name, self.system, self.cells = name, system, cells
        self.systems = (system,)

    def formula(self, pkg, cell, seed) -> Case:
        mu, nu = cell
        key = f"entry_formula {self.system} {_cell_text(mu)} {_cell_text(nu)}"

        def run() -> str:
            sy = pkg.roots.system(self.system)
            F = pkg.decompose.entry_formula(sy, mu, nu)
            ring = pkg.rings.make_ring(self.CHECK_RING)
            rng = random.Random(seed)
            f = pkg.decompose.FactoredElement(
                ring=ring,
                lam=ring.random_unit(rng),
                s=tuple(ring.random_unit(rng) for _ in range(sy.rank)),
                t=tuple(ring.random_element(rng) for _ in range(sy.m)),
                u=tuple(ring.random_element(rng) for _ in range(sy.m)),
            )
            if F.evaluate(sy, f) != pkg.decompose.compose(sy, f).mat.get(F.row, F.col):
                raise CheckFailed("formula disagrees with the composed entry")
            terms = [[c, [list(x) for x in fs]] for c, fs in F.terms]
            return json.dumps({"row": F.row, "col": F.col, "terms": terms}, separators=(",", ":"))

        return Case(key, run)

    def cycle(self, pkg, rng):
        cases = [self.formula(pkg, cell, rng.randrange(2**31)) for cell in self.cells]
        rng.shuffle(cases)
        return cases

    def pool(self, pkg):
        return [self.formula(pkg, cell, 0) for cell in self.cells]


class Mix(Workload):
    """The cycles of several workloads, run back to back as one cycle."""

    def __init__(self, name, parts):
        self.name, self.parts = name, parts
        self.systems = tuple(dict.fromkeys(s for part in parts for s in part.systems))

    def cycle(self, pkg, rng):
        return [case for part in self.parts for case in part.cycle(pkg, rng)]

    def pool(self, pkg):
        return [case for part in self.parts for case in part.pool(pkg)]


# Two workloads of about 15 s cycles, so that a 50 s run averages over the
# host's speed swings: the generator path on every ring kind, and the layers
# that bypass it.
WORKLOADS = {w.name: w for w in (
    Mix("generators-e7-e6", (Roundtrip(), Certify())),
    Mix("standardize-formula-d5", (Kernel(), Formula())),
)}
