"""Seeded verification suites shared by the CLI and the acceptance tests.

Every suite returns a JSON-serializable report with deterministic content for
a fixed (command, seed) pair.  The pseudo-random source is Python's Mersenne
Twister (`random.Random(seed)`), recorded in the report metadata.
"""

from __future__ import annotations

import random
from itertools import product

from . import decompose, standardize, torusext
from .group import (
    Character,
    GroupElement,
    apply_diagram,
    commutator_check,
    conjugation_holds,
    diagram_automorphisms,
    graph_matrix,
    h_elem,
    word_to_matrix,
)
from .lie import jacobi_defect, structure_constants
from .matrices import Mat
from .rings import Ring, RingElem, make_ring
from .roots import RootSystem, add, marked_sequence, neg, system, verify_marked_properties

RNG_NAME = "python-random-mt19937"


def _report(suite: str, sys_name: str, ring: str | None, seed: int | None, **extra) -> dict:
    rep = {"suite": suite, "system": sys_name, "ring": ring, "seed": seed, "rng": RNG_NAME}
    rep.update(extra)
    return rep


def _finish(rep: dict, failures: list, total: int) -> dict:
    rep["checks"] = total
    rep["failed"] = len(failures)
    rep["failures"] = failures[:20]
    rep["ok"] = not failures
    return rep


def _random_unit_one_plus_radical(ring: Ring, rng) -> RingElem:
    return ring.one + ring.random_radical(rng)


def random_factored(sys: RootSystem, ring: Ring, rng) -> decompose.FactoredElement:
    return decompose.FactoredElement(
        ring=ring,
        lam=_random_unit_one_plus_radical(ring, rng),
        s=tuple(_random_unit_one_plus_radical(ring, rng) for _ in range(sys.rank)),
        t=tuple(ring.random_radical(rng) for _ in range(sys.m)),
        u=tuple(ring.random_radical(rng) for _ in range(sys.m)),
    )


def suite_eq1(system_token: str, ring_desc: str, count: int = 50, seed: int = 0) -> dict:
    sys = system(system_token)
    ring = make_ring(ring_desc)
    rng = random.Random(seed)
    failures, total = [], 0
    for _ in range(count):
        chi = Character(ring, tuple(ring.random_unit(rng) for _ in range(sys.rank)))
        xi = ring.random_element(rng)
        h = h_elem(sys, chi)
        oks = conjugation_holds(sys, h.mat, h.inverse().mat, sys.roots, [xi] * len(sys.roots), sys.roots,
                                [chi.value(beta) * xi for beta in sys.roots])
        total += len(oks)
        failures += [{"beta": list(beta)} for beta, ok in zip(sys.roots, oks) if not ok]
    rep = _report("eq1", sys.name, ring.descriptor, seed, characters=count)
    return _finish(rep, failures, total)


def suite_commutator(system_token: str, ring_desc: str, seed: int = 0) -> dict:
    sys = system(system_token)
    ring = make_ring(ring_desc)
    rng = random.Random(seed)
    failures, total = [], 0
    pairs_in, pairs_out = 0, 0
    for a, b in product(sys.roots, repeat=2):
        if a == b or a == neg(b):
            continue
        t, u = ring.random_element(rng), ring.random_element(rng)
        total += 1
        if sys.is_root(add(a, b)):
            pairs_in += 1
        else:
            pairs_out += 1
        if not commutator_check(sys, ring, a, b, t, u):
            failures.append({"a": list(a), "b": list(b)})
    rep = _report("commutator", sys.name, ring.descriptor, seed,
                  pairs_summing_to_root=pairs_in, pairs_not=pairs_out)
    return _finish(rep, failures, total)


def suite_lemma2(system_token: str, ring_desc: str, count: int = 100, seed: int = 0) -> dict:
    sys = system(system_token)
    ring = make_ring(ring_desc)
    rng = random.Random(seed)
    failures, total = [], 0
    for i in range(count):
        f = random_factored(sys, ring, rng)
        X = decompose.compose(sys, f)
        total += 1
        try:
            g = decompose.recover(sys, X)
        except decompose.RecoveryError as exc:
            failures.append({"case": i, "error": str(exc)})
            continue
        if not (g.lam == f.lam and g.s == f.s and g.t == f.t and g.u == f.u):
            failures.append({"case": i, "error": "parameters differ"})
        elif decompose.compose(sys, g) != X:
            failures.append({"case": i, "error": "matrix differs"})
    rep = _report("lemma2", sys.name, ring.descriptor, seed, count=count)
    return _finish(rep, failures, total)


def suite_lemma3(
    system_token: str,
    ring_desc: str,
    count: int = 10,
    seed: int = 0,
    r_text: str | None = None,
) -> dict:
    sys = system(system_token)
    ring = make_ring(ring_desc)
    rng = random.Random(seed)
    failures, total = [], 0
    units = [ring.parse_elem(r_text)] if r_text else [ring.random_unit(rng) for _ in range(count)]
    max_k = 0
    for i, r in enumerate(units):
        lift = torusext.build_lift(sys, ring, r)
        report = torusext.verify_lift(lift, sys, rng)
        for c in report.checks:
            total += 1
            max_k = max(max_k, abs(c.expected_power))
            if not c.ok:
                failures.append({"case": i, "root": list(c.root)})
    rep = _report("lemma3", sys.name, ring.descriptor, seed,
                  units=len(units), max_first_coefficient=max_k)
    return _finish(rep, failures, total)


def suite_kernel(system_token: str, ring_desc: str, control: bool = False) -> dict:
    sys = system(system_token)
    ring = make_ring(ring_desc)
    if ring.kind != "gf":
        raise ValueError("kernel suite runs over a residue field gf:p")
    if control:
        lin = standardize.build_commutation_system(sys, ring.p)
        expected = 1
    else:
        lin = standardize.build_linearized_system(sys, ring.p)
        expected = 0
    dim = standardize.kernel_dimension(lin)
    rep = _report("kernel", sys.name, ring.descriptor, None,
                  control=control, unknowns=lin.unknowns, z_unknowns=lin.z_unknowns,
                  equations=lin.equations, kernel_dimension=dim, expected=expected)
    failures = [] if dim == expected else [{"kernel_dimension": dim, "expected": expected}]
    return _finish(rep, failures, 1)


def suite_marked(system_token: str) -> dict:
    sys = system(system_token)
    seq = marked_sequence(sys)
    report = verify_marked_properties(sys, seq)
    counts = {"member": 0, "difference": 0, "exception": 0}
    for label in report.classification.values():
        counts[label] += 1
    failures = [{"failure": f} for f in report.failures]
    rep = _report(
        "marked", sys.name, None, None,
        chain_length=len(seq.gammas),
        starts_at_maximal=report.starts_at_maximal,
        ends_at_simple=report.ends_at_simple,
        steps_simple=report.steps_simple,
        first_l_distinct=report.first_l_distinct,
        classification_counts=counts,
        exceptions=[list(e.beta) for e in seq.exceptions],
        anchors_ok=report.anchors_ok,
    )
    return _finish(rep, failures, 1)


def suite_jacobi(system_token: str, count: int = 1000, seed: int = 0) -> dict:
    sys = system(system_token)
    N = structure_constants(sys)
    rng = random.Random(seed)
    failures, total = [], 0
    exhaustive = len(sys.roots) <= 24
    if exhaustive:
        triples = product(sys.roots, repeat=3)
    else:
        roots = sys.roots
        triples = (
            (roots[rng.randrange(len(roots))], roots[rng.randrange(len(roots))],
             roots[rng.randrange(len(roots))])
            for _ in range(count)
        )
    for a, b, c in triples:
        total += 1
        if jacobi_defect(N, ("x", a), ("x", b), ("x", c)):
            failures.append({"triple": [list(a), list(b), list(c)]})
    rep = _report("jacobi", sys.name, None, seed, exhaustive=exhaustive)
    return _finish(rep, failures, total)


def suite_graph(system_token: str, ring_desc: str) -> dict:
    sys = system(system_token)
    ring = make_ring(ring_desc)
    failures, total = [], 0
    autos = diagram_automorphisms(sys)
    roots, ones = sys.roots, [ring.one] * len(sys.roots)
    for name, perm in autos.items():
        A = graph_matrix(sys, ring, name)
        Ainv = A.inverse()
        images = [apply_diagram(perm, r) for r in roots]
        plus = conjugation_holds(sys, A.mat, Ainv.mat, roots, ones, images, ones)
        minus = conjugation_holds(sys, A.mat, Ainv.mat, roots, ones, images, [-ring.one] * len(roots))
        for r, is_plus, is_minus in zip(roots, plus, minus):
            total += 1
            if not (is_plus or is_minus):
                failures.append({"delta": name, "root": list(r), "error": "not a generator"})
            elif r in sys.simple and not is_plus:
                failures.append({"delta": name, "root": list(r), "error": "sign on simple root"})
        # the automorphism's order is respected on generators: A^order is the
        # signed permutation (pi, sigma) of A P e_j = sigma[p_j] s_j e_{pi[p_j]}
        f = A.word[0][2]
        order, q, pi, sigma = 1, perm, f["pi"], f["sigma"]
        while q != tuple(range(sys.rank)):
            q, pi, sigma = tuple(perm[i] for i in q), f["pi"][pi], f["sigma"][pi] * sigma
            order += 1
        word = (("perm", name, {"pi": pi, "sigma": sigma, "inv": False}),)
        power = GroupElement(sys, ring, word_to_matrix(sys, ring, word), word)
        total += 1
        if not all(conjugation_holds(sys, power.mat, power.inverse().mat, sys.simple, ones[:sys.rank],
                                     sys.simple, ones[:sys.rank])):
            failures.append({"delta": name, "error": f"order-{order} power not central on generators"})
    rep = _report("graph", sys.name, ring.descriptor, None, automorphisms=sorted(autos))
    return _finish(rep, failures, total)


def eq3_element(sys: RootSystem, ring: Ring, rng) -> GroupElement:
    """Random congruence element in torus * positive * negative factor order:
    the normal form of a random factorization (its scalar factor is
    congruent to 1 and central)."""
    return decompose.compose(sys, random_factored(sys, ring, rng))


def suite_certificate(system_token: str, ring_desc: str, count: int = 100, seed: int = 0) -> dict:
    sys = system(system_token)
    ring = make_ring(ring_desc)
    if ring.kind not in ("zmod", "trunc"):
        raise ValueError("certificate suite runs over zmod or trunc rings")
    if ring.nilpotency < 2:
        raise ValueError("certificate suite needs a nonzero radical (k >= 2)")
    j = ring.eps ** (ring.k - 1)    # a nonzero element of J^(k - 1), so j J = 0
    rng = random.Random(seed)
    failures, total = [], 0
    for i in range(count):
        g = eq3_element(sys, ring, rng)
        total += 1
        cert = standardize.standardness_certificate(sys, g)
        if not cert.standard:
            failures.append({"case": i, "error": "expected standard"})
    # one perturbation off the group must not certify; the chosen cell sits in
    # a positive-root column, which no designated cell reads, so the gauge is
    # unchanged and the residual is exactly the perturbation
    g = eq3_element(sys, ring, rng)
    bad = Mat.identity(ring, sys.n).with_entry(0, 2, j)
    total += 1
    perturbed = GroupElement(sys, ring, g.mat @ bad, None)
    cert = standardize.standardness_certificate(sys, perturbed)
    if cert.standard:
        failures.append({"case": "perturbed", "error": "expected nonstandard"})
    rep = _report("certificate", sys.name, ring.descriptor, seed, count=count)
    return _finish(rep, failures, total)


SUITES = {
    "eq1": suite_eq1,
    "commutator": suite_commutator,
    "lemma2": suite_lemma2,
    "lemma3": suite_lemma3,
    "kernel": suite_kernel,
    "marked": suite_marked,
    "jacobi": suite_jacobi,
    "graph": suite_graph,
    "certificate": suite_certificate,
}
