"""Big-cell normal form: compose the factorization and recover its parameters.

The normal form is

    X = lam * t_1(s_1) ... t_l(s_l) * x_{b_1}(t_1) ... x_{b_m}(t_m)
        * x_{-b_1}(u_1) ... x_{-b_m}(u_m)

over a local ring with nilpotent radical J, where lam and the s_i are units
congruent to 1 mod J and the t_i, u_i lie in J.  Exactly n + 1 matrix cells
pin the n + 1 parameters: one diagonal cell per torus degree of freedom and
one cell for each unipotent parameter, laid out along the marked root chain.
Recovery solves the cell equations by a J-adic fixed point: each unknown's
designated cell carries it with a unit coefficient while every other
occurrence is damped by a radical factor, so each sweep gains one power of J
and nilpotency forces exact termination.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .group import GroupElement, Factor, inverse_word, scalar_elem, t_k, torus_diagonal, word_to_matrix, x_elem
from .lie import ad_x_tables, h_index, root_index, structure_constants
from .matrices import Mat
from .rings import Ring, RingElem, RingError, is_unit
from .roots import (
    Root,
    RootSystem,
    height,
    marked_sequence,
    neg,
    solve_rational,
    sub,
)


class RecoveryError(RingError):
    pass


@dataclass(frozen=True)
class FactoredElement:
    ring: Ring
    lam: RingElem
    s: tuple[RingElem, ...]
    t: tuple[RingElem, ...]
    u: tuple[RingElem, ...]

    def to_json(self) -> dict:
        r = self.ring
        return {
            "lambda": r.elem_to_json(self.lam),
            "s": [r.elem_to_json(x) for x in self.s],
            "t": [r.elem_to_json(x) for x in self.t],
            "u": [r.elem_to_json(x) for x in self.u],
        }

    @classmethod
    def from_json(cls, ring: Ring, obj: dict) -> "FactoredElement":
        """Parse {"lambda": entry, "s": [...], "t": [...], "u": [...]}; the
        list lengths are checked against a system by `compose`."""
        if not isinstance(obj, dict):
            raise RingError("factored element JSON must be an object with lambda, s, t and u")
        missing = [k for k in ("lambda", "s", "t", "u") if k not in obj]
        if missing:
            raise RingError(f"factored element JSON lacks {', '.join(missing)}")
        for k in ("s", "t", "u"):
            if not isinstance(obj[k], list):
                raise RingError(f"factored element {k} must be a list, not {type(obj[k]).__name__}")
        return cls(
            ring=ring,
            lam=ring.elem_from_json(obj["lambda"]),
            s=tuple(ring.elem_from_json(x) for x in obj["s"]),
            t=tuple(ring.elem_from_json(x) for x in obj["t"]),
            u=tuple(ring.elem_from_json(x) for x in obj["u"]),
        )

    @classmethod
    def trivial(cls, sys: RootSystem, ring: Ring) -> "FactoredElement":
        return cls(
            ring=ring,
            lam=ring.one,
            s=(ring.one,) * sys.rank,
            t=(ring.zero,) * sys.m,
            u=(ring.zero,) * sys.m,
        )


def _torus_diag(sys: RootSystem, f: FactoredElement) -> list[RingElem]:
    """The diagonal of lam * t_1(s_1) ... t_l(s_l)."""
    return [f.lam * d for d in torus_diagonal(sys, f.ring, f.s)]


def compose(sys: RootSystem, f: FactoredElement) -> GroupElement:
    """Multiply out the normal form exactly (word recorded)."""
    ring = f.ring
    if (len(f.s), len(f.t), len(f.u)) != (sys.rank, sys.m, sys.m):
        raise RingError(f"{sys.name} takes {sys.rank} torus and {sys.m} + {sys.m} unipotent parameters, "
                        f"not {len(f.s)} and {len(f.t)} + {len(f.u)}")
    if not is_unit(f.lam) or not all(is_unit(x) for x in f.s):
        raise RingError("lambda and the torus parameters must be units")
    g = scalar_elem(sys, ring, f.lam)
    for k in range(sys.rank):
        g = g @ t_k(sys, ring, k, f.s[k])
    for _, r, t in _unipotent_word(sys, f):
        g = g @ x_elem(sys, ring, r, t)
    return g


def _unipotent_word(sys: RootSystem, f: FactoredElement) -> tuple[Factor, ...]:
    """compose's generators in order: x_b(t_b) for every positive root b,
    then x_-b(u_b)."""
    return (tuple(("x", p, t) for p, t in zip(sys.positive, f.t))
            + tuple(("x", neg(p), u) for p, u in zip(sys.positive, f.u)))


def _compose_inverse_mat(sys: RootSystem, f: FactoredElement) -> Mat:
    """compose(f)^-1 as a matrix: the matrix of the inverse of compose's
    unipotent word (`group.inverse_word`), times the inverse torus as one
    diagonal, lam^-1 times the torus diagonal of the inverted s."""
    ring, lam = f.ring, f.lam.inv()
    diag = [lam * d for d in torus_diagonal(sys, ring, tuple(x.inv() for x in f.s))]
    return word_to_matrix(sys, ring, inverse_word(_unipotent_word(sys, f))) @ Mat.diagonal(ring, diag)


# ---------------------------------------------------------------------------
# designated positions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DesignatedCell:
    row: int
    col: int
    kind: str          # "diag" | "t" | "u"
    stage: int
    root: Root         # pinned root (t/u) or the diagonal root (diag)
    index: int         # positive-root index (t/u) or diagonal slot (diag)
    lead: int          # integer coefficient of the pinned parameter in the cell


@dataclass(frozen=True)
class PositionTable:
    system: str
    cells: tuple[DesignatedCell, ...]
    diag_roots: tuple[Root, ...]
    # integer inverse of the exponent matrix rows (1, diag_root): recovers
    # (lam, s_1..s_l) multiplicatively from the l+1 diagonal values
    exponent_inverse: tuple[tuple[int, ...], ...]

    def cell_set(self) -> set[tuple[int, int]]:
        return {(c.row, c.col) for c in self.cells}


def _exponent_inverse(sys: RootSystem, diag_roots) -> tuple[tuple[int, ...], ...]:
    rows = [[1] + [-c for c in rho] for rho in diag_roots]
    eye = [[int(i == j) for j in range(sys.rank + 1)] for i in range(sys.rank + 1)]
    inv = solve_rational(rows, eye)
    if any(x.denominator != 1 for row in inv for x in row):
        raise RecoveryError("exponent system is not unimodular")
    return tuple(tuple(int(x) for x in row) for row in inv)


@lru_cache(maxsize=None)
def _positions(kind: str, rank: int) -> PositionTable:
    from .roots import build_root_system

    sys = build_root_system(kind, rank)
    seq = marked_sequence(sys)
    gammas = seq.gammas
    l = sys.rank
    N = structure_constants(sys)
    cells: list[DesignatedCell] = []
    pinned_t: dict[Root, DesignatedCell] = {}
    pinned_u: dict[Root, DesignatedCell] = {}
    stage = 0

    def ridx(r: Root) -> int:
        return root_index(sys, r)

    def unipotent_cell(row: int, col: int, kind: str, stage: int, root: Root) -> DesignatedCell:
        # the lead is the (row, col) entry of X_root for t and of X_-root for u
        X = ad_x_tables(sys, N, root if kind == "t" else neg(root))[0]
        lead = int(X.coeff[(X.dst == row) & (X.src == col)].sum())
        return DesignatedCell(row, col, kind, stage, root, sys.pos_index[root], lead)

    def pin(root: Root, trow: int, tcol: int, urow: int, ucol: int, stage: int) -> None:
        pinned_t[root] = unipotent_cell(trow, tcol, "t", stage, root)
        pinned_u[root] = unipotent_cell(urow, ucol, "u", stage, root)

    # chain pair scan: gamma_i - gamma_s pins one positive root per first pair
    for s in range(1, len(gammas)):
        stage += 1
        for i in range(s):
            d = sub(gammas[i], gammas[s])
            if sys.is_root(d) and d not in pinned_t:
                pin(d, ridx(neg(gammas[s])), ridx(neg(gammas[i])),
                    ridx(neg(gammas[i])), ridx(neg(gammas[s])), stage)

    # chain members not seen as differences: anchor on an earlier member, or
    # (for the maximal root) on the Cartan rows/columns
    stage += 1
    for j, g in enumerate(gammas):
        if g in pinned_t:
            continue
        anchor = None
        for a in range(j):
            d = sub(gammas[a], g)
            if sys.is_root(d):
                anchor = gammas[a]
                delta = d
                break
        if anchor is not None:
            pin(g, ridx(neg(delta)), ridx(neg(anchor)), ridx(neg(anchor)), ridx(neg(delta)), stage)
            continue
        qt = max(q for q, c in enumerate(g) if c in (1, 2))
        qu = max(q for q in range(l) if sys.pairing(g, sys.simple[q]) in (1, 2))
        pinned_t[g] = unipotent_cell(h_index(sys, qt), ridx(neg(g)), "t", stage, g)
        pinned_u[g] = unipotent_cell(ridx(neg(g)), h_index(sys, qu), "u", stage, g)

    # exceptions, by height, anchored per the marked-sequence entries
    stage += 1
    for e in seq.exceptions:
        pin(e.beta, ridx(neg(e.delta)), ridx(neg(e.anchor)),
            ridx(neg(e.anchor)), ridx(neg(e.delta)), stage)

    if set(pinned_t) != set(sys.positive):  # pragma: no cover - coverage bug guard
        missing = set(sys.positive) - set(pinned_t)
        raise RecoveryError(f"unpinned unipotent parameters: {sorted(missing)}")

    # diagonal cells: the first l+1 chain members, padded (A_l) with the
    # earliest chain differences until the exponent system is unimodular
    diag_roots = list(gammas[: l + 1])
    if len(diag_roots) < l + 1:
        for s in range(1, len(gammas)):
            for i in range(s):
                d = sub(gammas[i], gammas[s])
                if sys.is_root(d) and d not in diag_roots:
                    diag_roots.append(d)
                    if len(diag_roots) == l + 1:
                        break
            if len(diag_roots) == l + 1:
                break
    expinv = _exponent_inverse(sys, diag_roots)

    for k, rho in enumerate(diag_roots):
        cells.append(DesignatedCell(ridx(neg(rho)), ridx(neg(rho)), "diag", 0, rho, k, 1))
    order = sorted(sys.positive, key=lambda r: (height(r), r))
    for r in order:
        cells.append(pinned_t[r])
        cells.append(pinned_u[r])

    table = PositionTable(
        system=sys.name,
        cells=tuple(cells),
        diag_roots=tuple(diag_roots),
        exponent_inverse=expinv,
    )
    assert len(table.cells) == sys.n + 1
    assert len(table.cell_set()) == sys.n + 1
    return table


def designated_positions(sys: RootSystem) -> PositionTable:
    return _positions(sys.kind, sys.rank)


# ---------------------------------------------------------------------------
# recovery
# ---------------------------------------------------------------------------


def _solve_cells(sys: RootSystem, mat: Mat) -> tuple[FactoredElement, Mat]:
    """Sweep until the designated cells of W = compose(f)^-1 mat match the
    identity; return f and the last sweep's W.

    f starts trivial, so the first W is `mat` itself and the first sweep
    reads its cells with no product; each later W is formed after f has been
    updated.  A normal-form input is congruent to the identity mod J, and
    each sweep gains one power of J, so over a ring of nilpotency k it takes
    at most k - 1 product sweeps."""
    ring = mat.ring
    if not ring.local:
        raise RingError("recovery needs a local ring")
    table = designated_positions(sys)
    l = sys.rank

    for cell in table.cells:
        if cell.kind == "diag" and not is_unit(mat.get(cell.row, cell.col)):
            raise RecoveryError("not in normal form: designated diagonal entry is not a unit")
        if not ring.is_unit_vec(ring.from_int(cell.lead).vec):  # pragma: no cover - guarded by design
            raise RecoveryError(f"leading coefficient {cell.lead} is not a unit")

    f, W = FactoredElement.trivial(sys, ring), mat
    dvals = [ring.one] * (l + 1)
    for sweep in range((ring.nilpotency or 1) + 2):
        if sweep:
            W = _compose_inverse_mat(sys, f) @ mat
        stable = True
        tnew, unew = list(f.t), list(f.u)
        for cell in table.cells:
            w = W.get(cell.row, cell.col)
            if cell.kind == "diag":
                if w != ring.one:
                    stable = False
                    dvals[cell.index] = dvals[cell.index] * w
            else:
                if w != ring.zero:
                    stable = False
                    incr = w * ring.from_int(cell.lead).inv()
                    if cell.kind == "t":
                        tnew[cell.index] = tnew[cell.index] + incr
                    else:
                        unew[cell.index] = unew[cell.index] + incr
        if stable:
            return f, W
        lam_s = []
        for row in table.exponent_inverse:
            v = ring.one
            for d, e in zip(dvals, row):
                if e:
                    v = v * d**e
            lam_s.append(v)
        f = FactoredElement(ring=ring, lam=lam_s[0], s=tuple(lam_s[1:]), t=tuple(tnew), u=tuple(unew))
    raise RecoveryError("recovery did not converge; not in normal form")


def recover(sys: RootSystem, X: GroupElement | Mat) -> FactoredElement:
    """Read the n + 1 designated cells of X and solve for the parameters.

    The first residual the sweeps read is X itself (`_solve_cells`).  The
    recovered factorization must reproduce X entirely; RecoveryError
    otherwise.
    """
    mat = X.mat if isinstance(X, GroupElement) else X
    f, _ = _solve_cells(sys, mat)
    if compose(sys, f).mat != mat:
        raise RecoveryError("matrix is not in the big-cell normal form")
    return f


def gauge_normal_form(sys: RootSystem, C: GroupElement) -> tuple[GroupElement, GroupElement]:
    """Return (D, C') with D in normal form, C' = D^{-1} C and C' matching the
    identity at every designated cell.  The cells are solved as in `recover`,
    without its check that D = C: C' is the last sweep's residual W, which
    is C itself when C's cells already match the identity."""
    f, W = _solve_cells(sys, C.mat)
    return compose(sys, f), GroupElement(sys, C.ring, W, None)


# ---------------------------------------------------------------------------
# symbolic entry formula
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EntryFormula:
    """Entry of the normal-form product at one matrix cell, as a formal sum.

    Each term is (integer coefficient, factors) with factors a tuple of
    ("t"|"u", positive-root index); the whole sum is multiplied by the torus
    diagonal value of the row.  Terms whose path crosses the Cartan subspace
    carry integer coefficients beyond +-1.
    """

    system: str
    row: int
    col: int
    row_label: tuple
    col_label: tuple
    terms: tuple[tuple[int, tuple[tuple[str, int], ...]], ...]

    def evaluate(self, sys: RootSystem, f: FactoredElement) -> RingElem:
        ring = f.ring
        d_row = _torus_diag(sys, f)[self.row]
        total = ring.zero
        for coeff, factors in self.terms:
            v = ring.from_int(coeff)
            for kind, idx in factors:
                v = v * (f.t[idx] if kind == "t" else f.u[idx])
            total = total + v
        return d_row * total


def entry_formula(sys: RootSystem, mu, nu) -> EntryFormula:
    """Formal description of the compose entry at (row mu, column nu).

    mu and nu are roots, or ("h", i) for a Cartan row/column.  The column's
    basis vector is pushed through the unipotent factors right to left, each
    x_r(t) = I + t X_r + t^2 H_r moving a basis state along the entries of
    the `ad_x_tables` of r, with a polynomial in the parameters carried per
    state.  A backward pass first marks, after each factor, the states from
    which the row can still be reached, and the forward pass keeps only those.
    X_r and H_r entries through the Cartan subspace make coefficients beyond
    +-1.
    """
    N = structure_constants(sys)
    mu_l = ("h", mu[1]) if isinstance(mu[0], str) else ("x", tuple(mu))
    nu_l = ("h", nu[1]) if isinstance(nu[0], str) else ("x", tuple(nu))
    row = h_index(sys, mu_l[1]) if mu_l[0] == "h" else root_index(sys, mu_l[1])
    col = h_index(sys, nu_l[1]) if nu_l[0] == "h" else root_index(sys, nu_l[1])

    # factors in the order they act on a column vector (rightmost first),
    # each as its edges (src, dst, integer coefficient, factors gained)
    applied = [("u", i, neg(p)) for i, p in enumerate(sys.positive)][::-1]
    applied += [("t", i, p) for i, p in enumerate(sys.positive)][::-1]
    layers = []
    for kind, idx, r in applied:
        X, H = ad_x_tables(sys, N, r)
        once, twice = ((kind, idx),), ((kind, idx), (kind, idx))
        layers.append(list(zip(X.src.tolist(), X.dst.tolist(), X.coeff.tolist(), [once] * len(X.src)))
                      + list(zip(H.src.tolist(), H.dst.tolist(), H.coeff.tolist(), [twice] * len(H.src))))

    # live[k]: states from which the row is reachable through factors k, k+1, ...
    live = [{row}]
    for edges in reversed(layers):
        live.append(live[-1] | {s for s, d, _, _ in edges if d in live[-1]})
    live.reverse()

    state: dict[int, dict[tuple, int]] = {col: {(): 1}}
    for k, edges in enumerate(layers):
        after = live[k + 1]
        # the identity term keeps each polynomial; one is copied only when
        # an edge adds to it
        nxt = {s: poly for s, poly in state.items() if s in after}
        written: set[int] = set()
        for s, d, c, gained in edges:
            if s in state and d in after:
                if d not in written:
                    written.add(d)
                    nxt[d] = dict(nxt.get(d, {}))
                target = nxt[d]
                for fs, v in state[s].items():
                    key = fs + gained
                    target[key] = target.get(key, 0) + c * v
        state = nxt

    final = tuple(
        (c, fs) for fs, c in sorted(state.get(row, {}).items(), key=lambda kv: (len(kv[0]), kv[0])) if c
    )
    return EntryFormula(
        system=sys.name,
        row=row,
        col=col,
        row_label=mu_l,
        col_label=nu_l,
        terms=final,
    )
