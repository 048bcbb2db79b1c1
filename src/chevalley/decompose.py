"""Big-cell normal form: compose the factorization and recover its parameters.

The normal form is

    X = lam * t_1(s_1) ... t_l(s_l) * x_{b_1}(t_1) ... x_{b_m}(t_m)
        * x_{-b_1}(u_1) ... x_{-b_m}(u_m)

over a local ring with nilpotent radical J, where lam and the s_i are units
(congruent to 1 mod J in the paper's congruence subgroup; `compose` takes
any units) and the t_i, u_i lie in J.  Exactly n + 1 matrix cells pin the
n + 1 parameters: one diagonal cell per torus degree of freedom and one
cell for each unipotent parameter, laid out along the marked root chain.
Recovery solves the cell equations by a J-adic fixed point: each unknown's
designated cell carries it with a unit coefficient, times the torus value of
its row, while every other occurrence is damped by a radical factor.  The
first sweep, which solves the torus before the unipotent cells, leaves the
parameters right mod J^2, each later sweep gains one more power of J, and
nilpotency (J^k = 0) makes the parameters exact after max(k - 1, 1)
sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

from .group import (
    Character,
    Factor,
    GroupElement,
    inverse_word,
    torus_diagonal,
    word_to_matrix,
)
from .lie import ad_x_tables, h_index, root_index, structure_constants
from .matrices import Mat
from .rings import Ring, RingElem, RingError, Vec, is_unit
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


def compose(sys: RootSystem, f: FactoredElement) -> GroupElement:
    """Multiply out the normal form exactly: the element of
    `normal_form_word`, the scalar times the l torus factors, then each
    generator."""
    if (len(f.s), len(f.t), len(f.u)) != (sys.rank, sys.m, sys.m):
        raise RingError(f"{sys.name} takes {sys.rank} torus and {sys.m} + {sys.m} unipotent parameters, "
                        f"not {len(f.s)} and {len(f.t)} + {len(f.u)}")
    if not is_unit(f.lam) or not all(is_unit(x) for x in f.s):
        raise RingError("lambda and the torus parameters must be units")
    return GroupElement.from_word(sys, f.ring, normal_form_word(sys, f))


def normal_form_word(sys: RootSystem, f: FactoredElement) -> tuple[Factor, ...]:
    """f's normal form as data: the scalar lam, the l factors t_k(s_k) (the
    character s_k on alpha_k and 1 on the other simples), then
    `_unipotent_word`."""
    one = f.ring.one
    torus = tuple(("h", tuple(x if i == k else one for i in range(sys.rank))) for k, x in enumerate(f.s))
    return (("scalar", f.lam),) + torus + _unipotent_word(sys, f)


def _unipotent_word(sys: RootSystem, f: FactoredElement) -> tuple[Factor, ...]:
    """compose's generators in order: x_b(t_b) for every positive root b,
    then x_-b(u_b)."""
    return (tuple(("x", p, t) for p, t in zip(sys.positive, f.t))
            + tuple(("x", neg(p), u) for p, u in zip(sys.positive, f.u)))


def _inverse_torus_diag(sys: RootSystem, lam: RingElem, s: tuple[RingElem, ...]) -> list[Vec]:
    """The diagonal of (lam * t_1(s_1) ... t_l(s_l))^-1, as coefficient
    vectors: lam^-1 times the torus diagonal of s with each root's pair
    swapped, chi(p)^-1 and chi(p), and lam^-1 on the Cartan rows."""
    ring = lam.ring
    lam_inv = ring.inv_vec(lam.vec)
    d = torus_diagonal(sys, ring, s)
    return [ring.mul_vec(lam_inv, d[k ^ 1]) for k in range(2 * sys.m)] + [lam_inv] * sys.rank


def _compose_inverse_mat(sys: RootSystem, f: FactoredElement, rows) -> Mat:
    """Rows `rows` of compose(f)^-1, as a row stack: those rows of the
    identity times the inverse of compose's unipotent word
    (`group.inverse_word`), one product per generator, times the inverse
    torus as one diagonal (`_inverse_torus_diag`)."""
    ring = f.ring
    word = inverse_word(_unipotent_word(sys, f))
    return word_to_matrix(sys, ring, word, rows) @ Mat.diagonal(ring, _inverse_torus_diag(sys, f.lam, f.s))


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
    # the sorted distinct rows of the cells: the only rows a sweep forms
    rows: tuple[int, ...]

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
        rows=tuple(sorted({c.row for c in cells})),
    )
    assert len(table.cells) == sys.n + 1
    assert len(table.cell_set()) == sys.n + 1
    return table


def designated_positions(sys: RootSystem) -> PositionTable:
    return _positions(sys.kind, sys.rank)


# ---------------------------------------------------------------------------
# recovery
# ---------------------------------------------------------------------------


def _solve_cells(sys: RootSystem, mat: Mat) -> FactoredElement:
    """Sweep the designated cells of W = compose(f)^-1 mat towards the
    identity; return f.

    A sweep reads only the cells, so W is formed only on their rows
    (`PositionTable.rows`, 55 of 248 at E8): selecting rows commutes with
    right products, so those rows of W are those rows of compose(f)^-1,
    a row stack, times `mat`.  f starts trivial, so the first W is those
    rows of `mat` itself and the first sweep makes no product.  It solves
    the torus from the l + 1 diagonal cells first, then divides each t/u
    cell by that torus's value on the cell's row: X = lam T U+ U- scales
    the rows of U+ U- by lam T, so on a normal-form input f is then right
    mod J^2, whatever its units.  Each later W is formed after f has been
    updated, in 2m + 2 products; at product sweep j its cells must lie in
    I + J^(j+1) (RecoveryError otherwise), and the update gains one more
    power of J.  So over a ring of nilpotency k, a normal-form input's f is
    exact after max(k - 1, 1) sweeps, max(k - 2, 0) of them product sweeps,
    and f is returned then, or as soon as the cells match the identity.
    Exactness on the rest of the matrix is the callers' check."""
    ring = mat.ring
    if not ring.local:
        raise RingError("recovery needs a local ring")
    table = designated_positions(sys)
    l = sys.rank

    for cell in table.cells:
        if cell.kind == "diag" and not is_unit(mat.get(cell.row, cell.col)):
            raise RecoveryError("not in normal form: designated diagonal entry is not a unit")
    lead_inv = {}
    for lead in {cell.lead for cell in table.cells}:
        if not ring.is_unit_vec(ring.from_int(lead).vec):  # pragma: no cover - guarded by design
            raise RecoveryError(f"leading coefficient {lead} is not a unit")
        lead_inv[lead] = ring.from_int(lead).inv()

    # the cells' positions in a row stack of the designated rows; the l + 1
    # diagonal cells come first
    at = {r: i for i, r in enumerate(table.rows)}
    rows, cols = [at[c.row] for c in table.cells], [c.col for c in table.cells]
    diag, unipotent = table.cells[: l + 1], table.cells[l + 1:]
    f, W = FactoredElement.trivial(sys, ring), Mat(ring, mat.data[:, table.rows], reduce=False)
    dvals = [ring.one] * (l + 1)
    for sweep in range(max(ring.nilpotency - 1, 1)):
        if sweep:
            W = _compose_inverse_mat(sys, f, table.rows) @ mat
        values = [ring.elem(vec) for vec in W.data[:, rows, cols].T.tolist()]
        residues = [w - ring.one for w in values[: l + 1]] + values[l + 1:]
        if not any(any(r.vec) for r in residues):
            return f
        if sweep and not all(ring.radical_power_vec(r.vec, sweep + 1) for r in residues):
            raise RecoveryError(f"not in normal form: a designated cell of product sweep {sweep} "
                                f"is off the identity outside J^{sweep + 1}")
        for cell, w in zip(diag, values):
            dvals[cell.index] = dvals[cell.index] * w
        lam_s = []
        for row in table.exponent_inverse:
            v = ring.one
            for d, e in zip(dvals, row):
                if e:
                    v = v * d**e
            lam_s.append(v)
        lam, s = lam_s[0], tuple(lam_s[1:])
        # the input's t/u cells carry the torus's value on their row
        scale = _inverse_torus_diag(sys, lam, s) if sweep == 0 else None
        tnew, unew = list(f.t), list(f.u)
        for cell, w in zip(unipotent, values[l + 1:]):
            incr = w * lead_inv[cell.lead]
            if scale is not None:
                incr = RingElem(ring, ring.mul_vec(incr.vec, scale[cell.row]))
            if cell.kind == "t":
                tnew[cell.index] = tnew[cell.index] + incr
            else:
                unew[cell.index] = unew[cell.index] + incr
        f = FactoredElement(ring=ring, lam=lam, s=s, t=tuple(tnew), u=tuple(unew))
    return f


def recover(sys: RootSystem, X: GroupElement | Mat) -> FactoredElement:
    """Read the n + 1 designated cells of X and solve for the parameters.

    The sweeps (`_solve_cells`) form only the designated rows of each
    residual, so they do not see the rest of X: the recovered factorization
    must reproduce X entirely, which compose(f) == X checks exactly;
    RecoveryError otherwise.
    """
    mat = X.mat if isinstance(X, GroupElement) else X
    f = _solve_cells(sys, mat)
    if compose(sys, f).mat != mat:
        raise RecoveryError("matrix is not in the big-cell normal form")
    return f


# ---------------------------------------------------------------------------
# symbolic entry formula
# ---------------------------------------------------------------------------


class ProgramLayer(NamedTuple):
    """One factor of an entry's layered program: x_r(t) = I + t X + t^2 H
    restricted to the states that matter.  `keep` are the states reached
    from the column that still reach the row (the identity's edges), `x`
    and `h` the (src, dst, integer coefficient) entries of X and H from a
    reached state to a state that still reaches the row."""

    factor: tuple[str, int]
    keep: tuple[int, ...]
    x: tuple[tuple[int, int, int], ...]
    h: tuple[tuple[int, int, int], ...]


@dataclass(frozen=True)
class EntryFormula:
    """Entry of the normal-form product at one matrix cell, as a formal sum.

    Each term is (integer coefficient, factors) with factors a tuple of
    ("t"|"u", positive-root index); the whole sum is multiplied by the torus
    diagonal value of the row, lam times the character of s on the row's
    root (lam alone on a Cartan row).  Terms whose path crosses the Cartan
    subspace carry integer coefficients beyond +-1.

    `program` is the same sum unexpanded: one `ProgramLayer` per factor, in
    the order the factors act on the column (an algebraic branching
    program).  `evaluate` runs on it alone; it is not part of equality or
    repr, which state the formula by its terms.
    """

    system: str
    row: int
    col: int
    row_label: tuple
    col_label: tuple
    terms: tuple[tuple[int, tuple[tuple[str, int], ...]], ...]
    program: tuple[ProgramLayer, ...] = field(compare=False, repr=False)

    def evaluate(self, sys: RootSystem, f: FactoredElement) -> RingElem:
        """The entry at f: the column's basis vector pushed through the
        program on residue vectors.  Each layer keeps the values of its
        `keep` states and adds, along each edge, the source's value times
        the parameter (an X edge) or its square, formed once per layer (an H
        edge): one ring product per edge.  The integer coefficient scales
        the slots, the ring being a Z/q-module, and the sums are reduced
        once, at the row, before its torus value multiplies them."""
        ring = f.ring
        mul = ring.mul_vec
        kind, root = self.row_label
        d_row = f.lam if kind == "h" else f.lam * Character(ring, f.s).value(root)
        values = {self.col: ring.one.vec}
        for (tu, idx), keep, x, h in self.program:
            p = (f.t if tu == "t" else f.u)[idx].vec
            nxt = {s: values[s] for s in keep}
            for edges, by in ((x, p), (h, mul(p, p) if h else p)):
                for s, d, c in edges:
                    v = mul(values[s], by)
                    w = nxt.get(d)
                    nxt[d] = [c * b for b in v] if w is None else [a + c * b for a, b in zip(w, v)]
            values = nxt
        return d_row * ring.elem(values.get(self.row, ring.zero.vec))


def _entry_layers(sys: RootSystem) -> tuple:
    """The unipotent factors in the order they act on a column vector
    (rightmost first), each as ((kind, index), X entries, H entries) with
    entries (src, dst, integer coefficient) of its `ad_x_tables`.  Built
    once per system and kept in its `_ad_cache`."""
    if "entry_layers" not in sys._ad_cache:
        N = structure_constants(sys)
        applied = [("u", i, neg(p)) for i, p in enumerate(sys.positive)][::-1]
        applied += [("t", i, p) for i, p in enumerate(sys.positive)][::-1]
        layers = []
        for kind, idx, r in applied:
            X, H = ad_x_tables(sys, N, r)
            layers.append(((kind, idx),) + tuple(
                tuple(zip(T.src.tolist(), T.dst.tolist(), T.coeff.tolist())) for T in (X, H)))
        sys._ad_cache["entry_layers"] = tuple(layers)
    return sys._ad_cache["entry_layers"]


def entry_formula(sys: RootSystem, mu, nu) -> EntryFormula:
    """Formal description of the compose entry at (row mu, column nu).

    mu and nu are roots, or ("h", i) for a Cartan row/column.  The column's
    basis vector is pushed through the unipotent factors right to left, each
    x_r(t) = I + t X_r + t^2 H_r moving a basis state along the entries of
    the `ad_x_tables` of r, with a polynomial in the parameters carried per
    state.  A backward pass first marks, after each factor, the states from
    which the row can still be reached, and the forward pass keeps only those;
    it records the states and entries it used as the formula's `program`.
    X_r and H_r entries through the Cartan subspace make coefficients beyond
    +-1.

    A monomial is carried as a str with one character per factor, chr of
    the factor's rank among the sorted factors (a str keeps its hash once
    computed, and (len, str) orders monomials as their factor tuples); only
    the nonzero terms at the row are sorted and decoded into tuples.
    """
    mu_l = ("h", mu[1]) if isinstance(mu[0], str) else ("x", tuple(mu))
    nu_l = ("h", nu[1]) if isinstance(nu[0], str) else ("x", tuple(nu))
    row = h_index(sys, mu_l[1]) if mu_l[0] == "h" else root_index(sys, mu_l[1])
    col = h_index(sys, nu_l[1]) if nu_l[0] == "h" else root_index(sys, nu_l[1])
    layers = _entry_layers(sys)

    # live[k]: states from which the row is reachable through factors k, k+1, ...
    live = [{row}]
    for _, x, h in reversed(layers):
        live.append(live[-1] | {s for s, d, _ in x + h if d in live[-1]})
    live.reverse()

    names = sorted(factor for factor, _, _ in layers)
    code = {factor: chr(k) for k, factor in enumerate(names)}
    state: dict[int, dict[str, int]] = {col: {"": 1}}
    program = []
    for k, (factor, x, h) in enumerate(layers):
        after = live[k + 1]
        layer = ProgramLayer(factor, tuple(s for s in state if s in after),
                             *(tuple(e for e in edges if e[0] in state and e[1] in after) for edges in (x, h)))
        program.append(layer)
        # the identity term keeps each polynomial; one is copied only when
        # an edge adds to it
        nxt = {s: state[s] for s in layer.keep}
        written: set[int] = set()
        for edges, gained in ((layer.x, code[factor]), (layer.h, 2 * code[factor])):
            for s, d, c in edges:
                if d not in written:
                    written.add(d)
                    nxt[d] = dict(nxt.get(d, {}))
                target = nxt[d]
                for fs, v in state[s].items():
                    key = fs + gained
                    target[key] = target.get(key, 0) + c * v
        state = nxt

    poly = state.get(row, {})
    final = tuple((poly[fs], tuple(map(names.__getitem__, map(ord, fs))))
                  for fs in sorted((fs for fs, c in poly.items() if c), key=lambda fs: (len(fs), fs)))
    return EntryFormula(
        system=sys.name,
        row=row,
        col=col,
        row_label=mu_l,
        col_label=nu_l,
        terms=final,
        program=tuple(program),
    )
