"""Normalizer linearization and standardness certificates.

The linearized system collects, for every generator block e in
{a_1..a_l, -a_1..-a_l}, the n^2 scalar equations

    Z x_e(1) - x_e(1) (Z + sum_i a_i T_i + sum_b b_b X_b + sum_b c_b X_{-b}) = 0

over the residue field, with the n + 1 designated cells of Z frozen to zero
and each block's own-root unipotent coefficient omitted (it is absorbed by
the x_e(1) factor).  A trivial kernel pins the normalizer down to the group
itself, which the certificate pipeline then witnesses element by element.

Both it and the plain-commutation control are built block by block over
F_p (`_canonical_blocks`) from the entries of x_e(1) - I on the generator
tables, and no generator matrix is formed: the -x_e(1) M columns are one
sparse join of those entries with the entries of every M.  So p must be an
odd prime: any other p is refused with RingError by `make_ring`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decompose import RecoveryError, designated_positions, normal_form_word, recover
from .group import GroupElement, _off_identity, congruence_member, graph_matrix, inverse_word, word_to_json
from .lie import ad_x_tables, structure_constants, t_matrix
from .rings import Ring, RingError, make_ring
from .roots import RootSystem, neg


@dataclass(frozen=True)
class LinSystem:
    system: str
    p: int
    matrix: np.ndarray          # COO (3, nnz): row, column, value in [1, p); see _coo
    equations: int
    z_unknowns: int
    abc_unknowns: int
    blocks: tuple[tuple[int, ...], ...]
    control: bool = False

    @property
    def unknowns(self) -> int:
        return self.z_unknowns + self.abc_unknowns


def _coo(rows, cols, vals, p: int) -> np.ndarray:
    """Canonical COO over F_p: an int64 array (3, nnz) of row, column and
    value, sorted by (row, column), with duplicates summed, values reduced
    into [1, p) and zeros dropped."""
    rows, cols, vals = (np.asarray(a, dtype=np.int64) for a in (rows, cols, vals))
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order] % p
    if len(rows):
        first = np.flatnonzero(np.r_[True, (np.diff(rows) != 0) | (np.diff(cols) != 0)])
        rows, cols, vals = rows[first], cols[first], np.add.reduceat(vals, first) % p
    nz = vals != 0
    return np.stack([rows[nz], cols[nz], vals[nz]])


def _is_canonical(rows, cols, vals, p: int) -> bool:
    """Whether a COO already is what `_coo` returns: (row, column) strictly
    increasing and every value in [1, p)."""
    dr = np.diff(rows)
    return bool(((dr > 0) | ((dr == 0) & (np.diff(cols) > 0))).all()
                and ((vals >= 1) & (vals < p)).all())


def _commutator_entries(n: int, a, b, v) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(row, cell, value) triples of vec(Z x - x Z) for x = I + D, given the
    entries D[a, b] = v, row-major on both sides.

    Row (i, j) gets +x[k, j] on cell (i, k) and -x[i, k] on cell (k, j).
    The identity part of x commutes with Z, so only the entries of D are
    read, each once per value of the free index.
    """
    f = np.arange(n)[:, None]
    rows = np.concatenate([(f * n + b).ravel(), (a * n + f).ravel()])
    cells = np.concatenate([(f * n + a).ravel(), (b * n + f).ravel()])
    vals = np.concatenate([np.tile(v, n), np.tile(-v, n)])
    return rows, cells, vals


def _canonical_blocks(sys: RootSystem, field: Ring, blocks, column: np.ndarray, extra) -> np.ndarray:
    """Canonical COO of n^2 rows per generator e of `blocks`: vec(Z x_e(1) -
    x_e(1) Z) on the unknown column[c] of each cell c of Z (column -1: a
    frozen cell, dropped), beside the (rows, cols, vals) that extra(bi, e,
    off) yields, off the entries (rows, cols, values) of x_e(1) - I read
    from the generator tables (`_off_identity`).  Each block's rows lie
    above the block before, so each block is made canonical on its own and
    the blocks concatenated: only one block's raw entries are held at once."""
    n, coos = sys.n, []
    for bi, e in enumerate(blocks):
        _, di, dj, dv = _off_identity(sys, field, [e], [field.one])
        off = (di, dj, dv[0])
        eq, cell, v = _commutator_entries(n, *off)
        kept = column[cell] >= 0
        parts = [(eq[kept], column[cell[kept]], v[kept]), *extra(bi, e, off)]
        rows, cols, vals = (np.concatenate(a) for a in zip(*parts))
        coos.append(_coo(bi * n * n + rows, cols, vals, field.p))
    return np.concatenate(coos, axis=1)


def _abc_tables(sys: RootSystem) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(table, row, column, coefficient) of the nonzero entries of the
    matrices M_k the abc unknowns multiply, flat: the torus diagonals
    T_1..T_l are tables 0..l-1, and X = ad x_r of the j-th root of
    `sys.roots` is table l + j."""
    N = structure_constants(sys)
    parts = []
    for i in range(sys.rank):
        d = t_matrix(sys, i).diagonal()
        c = np.flatnonzero(d)
        parts.append((c, c, d[c]))
    parts += [(X.dst, X.src, X.coeff) for X in (ad_x_tables(sys, N, r)[0] for r in sys.roots)]
    table = np.repeat(np.arange(len(parts)), [len(c) for _, c, _ in parts])
    return (table, *(np.concatenate(a) for a in zip(*parts)))


def build_linearized_system(sys: RootSystem, p: int) -> LinSystem:
    """Blocks for the simple roots and their negatives, with designated zeros."""
    field, n = make_ring(f"gf:{p}"), sys.n
    frozen = np.zeros(n * n, dtype=bool)
    frozen[[i * n + j for i, j in designated_positions(sys).cell_set()]] = True
    keep = np.flatnonzero(~frozen)
    z_cols = len(keep)
    column = np.full(n * n, -1, dtype=np.int64)
    column[keep] = np.arange(z_cols)
    blocks = [s for s in sys.simple] + [neg(s) for s in sys.simple]

    # T_1..T_l, then ad x_r for every root r but the block's own: `width`
    # unknowns a block
    table, dst, src, coeff = _abc_tables(sys)
    width = sys.rank + len(sys.roots) - 1

    def abc_columns(bi, e, off):
        # -(x_e(1) M) on M's unknown column, for every M but e's own table,
        # with x_e(1) = I + D: the identity keeps each entry M[d, c], and D
        # adds D[i, d] M[d, c] for each entry of D's column d (a row-by-row
        # sparse product, every row at once); `_coo` sums the two
        own = sys.rank + sys.roots.index(tuple(e))
        kept = table != own
        d, c, a = dst[kept], src[kept], coeff[kept]
        col = z_cols + bi * width + table[kept] - (table[kept] > own)
        order = np.argsort(off[1])
        i, j, v = (x[order] for x in off)
        lo = np.searchsorted(j, d)
        count = np.searchsorted(j, d, side="right") - lo
        m = np.repeat(np.arange(len(d)), count)
        k = lo[m] + np.arange(len(m)) - (np.cumsum(count) - count)[m]
        yield d * n + c, col, -a
        yield i[k] * n + c[m], col[m], -a[m] * v[k]

    return LinSystem(
        system=sys.name,
        p=p,
        matrix=_canonical_blocks(sys, field, blocks, column, abc_columns),
        equations=len(blocks) * n * n,
        z_unknowns=z_cols,
        abc_unknowns=len(blocks) * width,
        blocks=tuple(tuple(e) for e in blocks),
    )


def build_commutation_system(sys: RootSystem, p: int) -> LinSystem:
    """Control system: plain commutation with every x_alpha(1), no frozen cells."""
    field, n = make_ring(f"gf:{p}"), sys.n
    return LinSystem(
        system=sys.name,
        p=p,
        matrix=_canonical_blocks(sys, field, sys.roots, np.arange(n * n), lambda bi, r, off: ()),
        equations=len(sys.roots) * n * n,
        z_unknowns=n * n,
        abc_unknowns=0,
        blocks=tuple(tuple(r) for r in sys.roots),
        control=True,
    )


def _peel_singletons(rows, cols, vals):
    """Peel the rows with one live entry off a canonical COO.

    Each round makes the column of every row with exactly one entry a pivot
    and drops those columns from every row, until no such row is left.
    Modulo the span of the unit vectors e_c of the columns peeled so far, a
    row with one live entry is a nonzero multiple of e_c, so the rank is the
    number of peeled columns plus the rank of what is left (the core).  Only
    the nonzero pattern is read, which is why the COO must be canonical: an
    entry that is 0 mod p, or duplicates that cancel, would peel a false
    pivot.  Returns (peeled columns, core rows, core columns, core values),
    the core still sorted by (row, column).
    """
    peeled = np.zeros(int(cols.max()) + 1 if len(cols) else 0, dtype=bool)
    while len(rows):
        new = rows[1:] != rows[:-1]
        single = np.r_[True, new] & np.r_[new, True]
        if not single.any():
            break
        peeled[cols[single]] = True
        live = ~peeled[cols]
        rows, cols, vals = rows[live], cols[live], vals[live]
    return int(np.count_nonzero(peeled)), rows, cols, vals


def rank_mod_p(matrix: np.ndarray, p: int) -> int:
    """Rank over F_p of an integer COO matrix (3, nnz): row, column, value.

    Any integer COO is accepted.  It is made canonical (one already
    canonical, as the `build_*_system` matrices are, is not sorted again)
    and its singleton rows are peeled (`_peel_singletons`).  The core left
    is ranked by a
    sparse row echelon in exact Python ints.  Rows are taken in order, each
    as a dict from column to value.  A row is reduced by the pivot row of
    its leading (smallest) column for as long as that column has one; then
    it becomes the pivot row of its leading column, scaled to a leading 1,
    or it has vanished.  The scan stops once every column that holds a
    nonzero has a pivot.
    """
    rows, cols, vals = np.asarray(matrix, dtype=np.int64)
    if not _is_canonical(rows, cols, vals, p):
        rows, cols, vals = _coo(rows, cols, vals, p)
    peeled, rows, cols, vals = _peel_singletons(rows, cols, vals)
    bounds = [0, *(np.flatnonzero(np.diff(rows)) + 1).tolist(), len(rows)]
    cols, vals = cols.tolist(), vals.tolist()
    full = len(set(cols))
    pivots: dict[int, dict[int, int]] = {}
    for s, e in zip(bounds, bounds[1:]):
        if len(pivots) == full:
            break
        row = dict(zip(cols[s:e], vals[s:e]))
        while row:
            lead = min(row)
            piv = pivots.get(lead)
            if piv is None:
                inv = pow(row[lead], -1, p)
                pivots[lead] = {c: v * inv % p for c, v in row.items()}
                break
            f = row[lead]
            for c, v in piv.items():
                x = (row.get(c, 0) - f * v) % p
                if x:
                    row[c] = x
                else:
                    del row[c]
    return peeled + len(pivots)


def kernel_dimension(lin: LinSystem) -> int:
    return lin.unknowns - rank_mod_p(lin.matrix, lin.p)


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Certificate:
    verdict: str                      # "standard" | "nonstandard-or-outside-scope"
    delta: str | None
    d_word: list | None
    residual_zero: bool

    @property
    def standard(self) -> bool:
        return self.verdict == "standard"

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "delta": self.delta,
            "D_word": self.d_word,
            "residual_norm_zero": self.residual_zero,
        }


def standardness_certificate(
    sys: RootSystem,
    C: GroupElement,
    *,
    delta: str | None = None,
    residue_word=None,
) -> Certificate:
    """Witness C as (torus)(unipotents), i.e. a strictly inner conjugator.

    C must be congruent to the identity modulo the radical, unless the caller
    supplies the residue-field data: a diagram automorphism name and a word
    (already lifted to the ring) whose product g' satisfies C = A_delta g' C'
    with C' congruent to the identity.  (A_delta g')^-1 is the matrix of the
    inverse of A_delta's word followed by that word (`inverse_word`), so g'
    itself is never multiplied out.  The residue-field factorization itself
    is out of scope here and must come from the caller.

    C' (C itself without residue data) is then gauged by `recover`: the
    designated cells of D^-1 C' are solved for D = compose(f) in normal
    form.  D is invertible, so D^-1 C' is the identity exactly when
    D == C', recover's own check, and that decides the verdict: D^-1 C' is
    never formed.  The witness D_word is f's `normal_form_word`, built as
    data.
    """
    ring = C.ring
    if not ring.local:
        raise RingError("certificates need a local base ring")
    work = C
    if delta is not None or residue_word is not None:
        word = inverse_word(graph_matrix(sys, ring, delta or "identity").word + tuple(residue_word or ()))
        work = GroupElement.from_word(sys, ring, word) @ C
    f = None
    if congruence_member(work):
        try:
            f = recover(sys, work)
        except RecoveryError:
            pass
    if f is None:
        return Certificate(verdict="nonstandard-or-outside-scope", delta=delta, d_word=None, residual_zero=False)
    return Certificate(verdict="standard", delta=delta, d_word=word_to_json(ring, normal_form_word(sys, f)),
                       residual_zero=True)
