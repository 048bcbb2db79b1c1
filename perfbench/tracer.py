"""Span tracer that wraps chevalley's public functions from outside the package.

`Tracer.install(pkg)` replaces every public function of each layer module
with a wrapper that records a span (name, start, end, parent span, case id)
in memory.  Every module-level reference to a wrapped function is rebound,
including names other modules imported directly (``from .group import
x_elem``) and functions held in dicts such as ``suites.SUITES``; a reference
left unpatched would bypass the wrapper and undercount silently.

Spans are aggregated once, after the run, into per-layer metrics named
``<module>.<function>.<stat>``.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

LAYERS = (
    "rings", "matrices", "lie", "roots", "group",
    "decompose", "standardize", "torusext", "suites", "cli",
)

# Leaf helpers that cost less than a span; wrapping them would mostly
# measure the tracer (the entry-formula DFS calls `add` per step).
SKIP = {
    "roots": {"height", "neg", "add", "sub"},
    "lie": {"root_index", "h_index", "index_of", "basis_elements"},
}

NAME, START, END, PARENT, CASE, INFO = range(6)


def slot_products(ring) -> int:
    """Slot-by-slot matrix products one ring matmul makes."""
    if ring.kind == "trunc":
        return ring.k * (ring.k + 1) // 2
    if ring.kind == "ext":
        return ring.m * ring.m * slot_products(ring.base)
    return 1


def _mat_mul_info(args, result):
    ring, a, b = args[0], args[1], args[2]
    ops = slot_products(ring) * a.shape[1] * a.shape[2] * b.shape[2]
    return (ops, a.nbytes + b.nbytes + result.nbytes)


def _system_info(args, result):
    return {"m": args[0].m, "rank": args[0].rank}


SPAN_INFO = {
    "decompose.compose": _system_info,
    "decompose.recover": _system_info,
    "decompose.entry_formula": lambda args, result: len(result.terms),
    "standardize.build_linearized_system": lambda args, result: result.matrix.nbytes,
    "standardize.build_commutation_system": lambda args, result: result.matrix.nbytes,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.case = None
        self._stack: list[int] = []

    def wrap(self, name, fn, *, by_kind=False, info=None):
        """Wrapper recording one span per call.  With by_kind the span name
        gets the ring kind of the bound instance (``rings.mat_mul.zmod``)."""
        spans, stack, clock, tracer = self.spans, self._stack, time.perf_counter, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = f"{name}.{args[0].kind}" if by_kind else name
            span = [label, clock(), 0.0, stack[-1] if stack else -1, tracer.case, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[END] = clock()
            if info is not None:
                span[INFO] = info(args, result)
            return result

        return traced

    def install(self, pkg) -> None:
        """Wrap the public functions of every layer module of `pkg` and the
        matrix-product methods, then rebind every reference to them."""
        wrapped: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            mod = getattr(pkg, layer)
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or attr in SKIP.get(layer, ()):
                    continue
                if inspect.isclass(obj) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapped[id(obj)] = (obj, self.wrap(name, obj, info=SPAN_INFO.get(name)))

        Ring, Mat, GroupElement = pkg.rings.Ring, pkg.matrices.Mat, pkg.group.GroupElement
        Ring.mat_mul = self.wrap("rings.mat_mul", Ring.mat_mul, by_kind=True, info=_mat_mul_info)
        Ring.mat_elemmul = self.wrap("rings.mat_elemmul", Ring.mat_elemmul, by_kind=True)
        Mat.__matmul__ = self.wrap("matrices.Mat.matmul", Mat.__matmul__)
        Mat.to_json = self.wrap("matrices.Mat.to_json", Mat.to_json)
        Mat.from_json = classmethod(self.wrap("matrices.Mat.from_json", Mat.__dict__["from_json"].__func__))
        GroupElement.__matmul__ = self.wrap("group.GroupElement.matmul", GroupElement.__matmul__)

        def rebind(obj):
            hit = wrapped.get(id(obj))
            return hit[1] if hit is not None and hit[0] is obj else None

        for modname, mod in list(sys.modules.items()):
            if modname != "chevalley" and not modname.startswith("chevalley."):
                continue
            for attr, obj in list(vars(mod).items()):
                new = rebind(obj)
                if new is not None:
                    setattr(mod, attr, new)
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        new = rebind(val)
                        if new is not None:
                            obj[key] = new

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "case"],
                       "spans": [s[:INFO] for s in self.spans]}, fh, separators=(",", ":"))


def _nearest(spans, i, names) -> int:
    """Index of the nearest ancestor of span i whose name is in `names`, or -1."""
    p = spans[i][PARENT]
    while p >= 0 and spans[p][NAME] not in names:
        p = spans[p][PARENT]
    return p


def aggregate(spans, select) -> dict[str, float]:
    """Per-name calls, total_s (outermost spans only) and self_s, plus the
    computed counts carried in span info, over the spans `select` accepts."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]
    out: dict[str, float] = {}

    def bump(key, v):
        out[key] = out.get(key, 0) + v

    for i, s in enumerate(spans):
        if not select(s):
            continue
        name, dur = s[NAME], s[END] - s[START]
        bump(f"{name}.calls", 1)
        bump(f"{name}.self_s", dur - child_time[i])
        if _nearest(spans, i, {name}) < 0:
            bump(f"{name}.total_s", dur)
        info = s[INFO]
        if info is None:
            continue
        if name.startswith("rings.mat_mul."):
            bump(f"{name}.computed_ops", info[0])
            bump(f"{name}.computed_bytes", info[1])
        elif name == "decompose.entry_formula":
            bump(f"{name}.terms", info)
        elif name.startswith("standardize.build_"):
            out["standardize.system_bytes"] = max(out.get("standardize.system_bytes", 0), info)
    return out


def product_counts(spans):
    """Check the exact product counts of every completed compose and recover.

    One compose multiplies `rank` torus factors and 2m unipotent factors
    onto the scalar: rank + 2m `Mat.__matmul__` calls and 2m `x_elem` calls.
    One recovery sweep composes the inverse word (2m factors), the inverse
    torus and the input: 2m + 2 products; an exact recover adds one compose.
    A product inside a compose nested in a recover counts for the compose,
    so a recover's own count must be a whole number of sweeps.
    Returns (sweeps of each recover, number of composes, list of violations).
    """
    owners = {"decompose.compose", "decompose.recover"}
    matmuls: dict[int, int] = {}
    x_elems: dict[int, int] = {}
    for i, s in enumerate(spans):
        if s[NAME] == "matrices.Mat.matmul":
            tally = matmuls
        elif s[NAME] == "group.x_elem":
            tally = x_elems
        else:
            continue
        owner = _nearest(spans, i, owners)
        if owner >= 0:
            tally[owner] = tally.get(owner, 0) + 1
    problems, sweeps, composes = [], [], 0
    for i, s in enumerate(spans):
        info = s[INFO]
        if s[NAME] not in owners or info is None:
            continue
        m, rank = info["m"], info["rank"]
        own = matmuls.get(i, 0)
        if s[NAME] == "decompose.compose":
            composes += 1
            if own != rank + 2 * m or x_elems.get(i, 0) != 2 * m:
                problems.append(f"compose span {i}: {own} matmuls, {x_elems.get(i, 0)} x_elem; "
                                f"expected {rank + 2 * m} and {2 * m}")
        else:
            n_sweeps, rest = divmod(own, 2 * m + 2)
            if rest:
                problems.append(f"recover span {i}: {own} own matmuls is not a whole number "
                                f"of {2 * m + 2}-product sweeps")
            sweeps.append(n_sweeps)
    return sweeps, composes, problems
