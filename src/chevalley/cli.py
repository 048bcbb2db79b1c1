"""Command-line interface.

Verbs:

* ``roots``      -- export a root system
* ``marked``     -- export the marked root chain and its exception list
* ``adjoint``    -- export generator / torus-weight / diagram matrices
* ``decompose``  -- recover the big-cell parameters of a JSON matrix
* ``verify``     -- run one named verification suite and exit 0 iff it passes

Exit codes: 0 success, 1 suite or verification failure, 2 bad configuration.
All structured output is JSON on stdout; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys as _sysmod

from . import decompose as _decompose
from . import suites
from .group import graph_matrix
from .lie import ad_x, structure_constants, t_matrix
from .matrices import Mat
from .rings import RingError, make_ring
from .roots import RootSystemError, marked_sequence, marked_to_json, system

J = dict(sort_keys=True, separators=(",", ":"))


def _emit(obj, out):
    out.write(json.dumps(obj, **J))
    out.write("\n")


def _root_from_text(sys, text):
    coeffs = tuple(int(c) for c in text.split(","))
    if not sys.is_root(coeffs):
        raise RootSystemError(f"{coeffs} is not a root of {sys.name}")
    return coeffs


def cmd_roots(args, out) -> int:
    sy = system(args.system)
    obj = {
        "system": sy.name,
        "rank": sy.rank,
        "positive_count": sy.m,
        "dimension": sy.n,
        "maximal": list(sy.maximal),
        "positive": [list(r) for r in sy.positive],
        "roots": [list(r) for r in sy.roots],
    }
    if args.format == "json":
        _emit(obj, out)
    else:
        out.write(f"{sy.name}: {2 * sy.m} roots, m={sy.m}, n={sy.n}\n")
        out.write(f"maximal root {list(sy.maximal)}\n")
    return 0


def cmd_marked(args, out) -> int:
    sy = system(args.system)
    obj = marked_to_json(marked_sequence(sy))
    if args.format == "json":
        _emit(obj, out)
    else:
        out.write(f"{sy.name}: chain of {len(obj['gammas'])}, "
                  f"{len(obj['exceptions'])} exceptions\n")
        for g in obj["gammas"]:
            out.write(f"  {g}\n")
    return 0


def cmd_adjoint(args, out) -> int:
    sy = system(args.system)
    if args.kind == "x":
        if not args.root:
            raise ValueError("--kind x requires --root")
        root = _root_from_text(sy, args.root)
        M = ad_x(sy, structure_constants(sy), root)
    elif args.kind == "t":
        if not args.index or not 1 <= args.index <= sy.rank:
            raise ValueError("--kind t requires --index between 1 and the rank")
        M = t_matrix(sy, args.index - 1)
    else:
        if not args.delta:
            raise ValueError("--kind graph requires --delta")
        ring = make_ring(args.ring or "gf:3")
        g = graph_matrix(sy, ring, args.delta)
        _emit(g.mat.to_json(), out)
        return 0
    _emit({"n": sy.n, "ring": "int", "rows": [[int(v) for v in row] for row in M]}, out)
    return 0


def cmd_decompose(args, out) -> int:
    sy = system(args.system)
    if not args.ring:
        raise ValueError("decompose requires --ring")
    ring = make_ring(args.ring)
    text = _sysmod.stdin.read() if args.matrix_file == "-" else open(args.matrix_file).read()
    mat = Mat.from_json(ring, json.loads(text))
    if mat.n != sy.n:
        raise ValueError(f"matrix has n = {mat.n}, but {sy.name} acts on n = {sy.n}")
    try:
        f = _decompose.recover(sy, mat)
    except _decompose.RecoveryError as exc:
        print(f"error: {exc}", file=_sysmod.stderr)
        return 1
    _emit(f.to_json(), out)
    return 0


def cmd_verify(args, out) -> int:
    fn = suites.SUITES[args.suite]
    params = inspect.signature(fn).parameters
    # each option given is passed as the suite parameter it names, and one
    # the suite's signature lacks is refused; an absent option (None) leaves
    # the suite's own default in place
    options = {"--ring": ("ring_desc", args.ring), "--count": ("count", args.count),
               "--seed": ("seed", args.seed), "--r": ("r_text", args.r),
               "--control": ("control", args.control)}
    kwargs = {}
    for flag, (name, value) in options.items():
        if value is None:
            continue
        if name not in params:
            raise ValueError(f"suite {args.suite!r} takes no {flag}")
        kwargs[name] = value
    if "ring_desc" in params and not args.ring:
        raise ValueError(f"suite {args.suite!r} requires --ring")
    if "r_text" in kwargs and "count" in kwargs:
        raise ValueError("--r names the one unit to check, so it takes no --count")
    if kwargs.get("count", 0) < 0:
        raise ValueError(f"--count must be at least 0, not {args.count}")
    if kwargs.get("count") == 0:    # a zero count keeps the suite's default
        del kwargs["count"]
    rep = fn(args.system, **kwargs)
    if args.format == "json":
        _emit(rep, out)
    else:
        status = "ok" if rep["ok"] else "FAILED"
        out.write(f"{rep['suite']} {rep['system']}: {status} "
                  f"({rep['checks']} checks, {rep['failed']} failed)\n")
        for f in rep["failures"]:
            out.write(f"  {json.dumps(f, **J)}\n")
    return 0 if rep["ok"] else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="chevalley")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, ring=True):
        p.add_argument("--system", required=True, help="A2, D4, E8, ...")
        if ring:
            p.add_argument("--ring", help="zmod:p^k | gf:p | trunc:p:k | ext:<base>:<r>:<m>")
        p.add_argument("--format", choices=("text", "json"), default="json")

    p = sub.add_parser("roots", help="export a root system")
    common(p, ring=False)
    p.set_defaults(fn=cmd_roots)

    p = sub.add_parser("marked", help="export the marked root chain")
    common(p, ring=False)
    p.set_defaults(fn=cmd_marked)

    p = sub.add_parser("adjoint", help="export generator matrices")
    common(p)
    p.add_argument("--kind", choices=("x", "t", "graph"), required=True)
    p.add_argument("--root", help="comma-separated coefficients, e.g. 1,1")
    p.add_argument("--index", type=int, help="1-based simple-root index for --kind t")
    p.add_argument("--delta", help="diagram automorphism name for --kind graph")
    p.set_defaults(fn=cmd_adjoint)

    p = sub.add_parser("decompose", help="recover big-cell parameters of a matrix")
    common(p)
    p.add_argument("--matrix-file", default="-", help="JSON matrix file, or - for stdin")
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=sorted(suites.SUITES))
    common(p)
    p.add_argument("--count", type=int, help="instance count for seeded suites (0: the suite's default)")
    p.add_argument("--seed", type=int, help="seed for seeded suites (default 0)")
    p.add_argument("--r", help="explicit unit for the lemma3 suite")
    p.add_argument("--control", action="store_true", default=None,
                   help="kernel suite: plain commutation control system")
    p.set_defaults(fn=cmd_verify)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args, _sysmod.stdout)
    except (RingError, RootSystemError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=_sysmod.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
