"""Square matrices over the rings in :mod:`chevalley.rings`.

Storage is a numpy int64 stack of shape (depth, n, n) with canonical entries;
a dense product is the owning ring's one tensor kernel (`Ring.mat_mul`), so
products over Z/p^k, F_p[eps]/(eps^k) and extensions are all a few integer
matmuls reduced once.

n is the number of columns, the last axis.  A (depth, r, n) row stack, some
r rows of an n x n matrix (`Mat.identity` with `rows`), is a left operand
only: selecting rows commutes with right products, (E_R A) B = E_R (A B),
and the dense kernel, the diagonal column scaling and the generator column
update all work for any row count.  It is refused as a right operand.

A matrix built by `Mat.diagonal` or `Mat.unipotent` records that structure as
its factor and keeps only the factor: its dense stack is formed once, the
first time `data` is read, and is read-only.  A product uses the factor of
its right operand:

* a diagonal is its (depth, 1, n) stack of entries.  It scales the columns
  of the left operand by `Ring.mat_elemmul`, and a product of two diagonals
  is the diagonal of their entrywise product and forms no n x n stack.  A
  diagonal on the left of a dense matrix is a dense operand: no verb
  multiplies in that order.
* a generator, I + sum_k s_k A_k (sparse integer tables A_k), on the right
  changes only the columns the A_k touch, by one fused update
  (`_unipotent_update`).  Its layout (`ColumnLayout`) is built once per
  ring, size and table tuple: the sorted union of the touched columns, and
  for each of them one *lead* entry (its source row, integer coefficient
  and term), the first entry of the first table that touches it.  Every
  other entry goes into a small integer matrix F_k over the columns it
  targets and the rows it reads; for ad x_a these are the fold of column
  -a onto the Cartan rows and the one entry of the half square.  A
  generator reduces, once, each lead coefficient times its term's T_s (the
  depth x depth regular representation of s, at depth 1 its one slot) and
  F = sum_k T_{s_k} (x) F_k.  A product then makes one gather of the
  block's own rows, the lead rows and the other rows, adds the lead rows
  mixed by their T_s (one batched depth x depth product, a multiply at
  depth 1) and F times the other rows to the block, reduces once and
  writes back once: no scatter with repeated indices and no per-term pass.

  Every term is a product of two residues, so an entry of the block is at
  most depth (1 + e) (q - 1)^2 + q, e being the most other entries of one
  column.  The check made is the coarser sum_k K_k * depth * (q - 1)^2 + q,
  K_k being A_k's largest column sum of |coefficient|: each entry counts
  at least once in it.  It is made with the layout (`_checked_layout`) the
  first time `Mat.unipotent` builds a generator of those tables, and a
  refusal comes before any array is built.

The update works in place on the buffer M^T, C-ordered of shape
(n, depth, r): each gathered column of M, all its slots, is one contiguous
row, and the slot mixing is a batched product on contiguous blocks.  The
result's `data` is the (depth, r, n) transposed view of that buffer.  A
product whose left operand is not a chain's own buffer copies M^T once, as
the result's buffer (a diagonal is written into a fresh buffer, with no
dense stack): a caller's matrix, the identity, a diagonal and a
generator's dense stack are never written.  A chain, the running product
of `group.word_to_matrix` (compose, a sweep's inverse word, a commutator
word), hands no intermediate out, so from its first generator on it
updates the one buffer it owns in place (`Mat.chain`), and `Mat.freeze`
makes it read-only before it is returned.  A diagonal's dense stack is
the transposed view of that fresh buffer, and a generator's is the update
applied to a fresh identity buffer.

Every other product is dense.  There is no matrix inverse: a group element
is inverted as its word of factors (`group.inverse_word`).  A matrix with
one nonzero entry per column is read as its permutation and entries by
`Mat.monomial`, and conjugation by it is checked with no product
(`group.conjugation_holds`).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from typing import NamedTuple

import numpy as np

from .rings import Ring, RingElem, RingError


class ColumnLayout(NamedTuple):
    """Where a generator of some tables A_0 .. A_{K-1} reads and writes.

    cols: the sorted union of the u columns the tables touch.  gather: the
    rows of M^T one product reads, cols, then each column's lead row, then
    the J rows the other entries read.  fold_at: the positions in cols of
    the P columns with other entries.  coeff: (u + P J, K) integers, column
    k holding A_k's lead coefficient at each position (0 where another
    term leads), then F_k, its (P, J) matrix of other entries, flattened.
    All arrays are read-only."""

    cols: np.ndarray
    gather: np.ndarray
    fold_at: slice | np.ndarray
    coeff: np.ndarray


def _unipotent_update(ring: Ring, MT: np.ndarray, update) -> None:
    """M (I + sum s A) = M + sum s (M A) on the columns the terms touch, in
    place on the C-ordered (n, depth, r) buffer MT = M^T (module
    docstring): one gather, the leads mixed, F applied, one reduction
    and one write-back."""
    layout, lead, fold = update
    u = len(layout.cols)
    G = MT.take(layout.gather, axis=0)
    block, L = G[:u], G[u:2 * u]
    if ring.depth == 1:
        L *= lead
        block += L
    else:
        block += np.matmul(lead, L)
    if fold is not None:
        r = MT.shape[2]
        block[layout.fold_at] += (fold @ G[2 * u:].reshape(-1, r)).reshape(-1, ring.depth, r)
    MT[layout.cols] = ring.mat_mod(block)


@lru_cache(maxsize=None)
def _checked_layout(ring: Ring, n: int, tables) -> ColumnLayout:
    """The `ColumnLayout` of the `SparseColumns` tables, once per ring, size
    and table tuple, after the checks every generator of them needs: each
    table is n x n, and the update stays below 2^63 over `ring`.  A refusal
    is not cached, so it is raised again, before any array is built, each
    time.

    Built in Python: `np.unique` would import `numpy.ma`, 1.6 MB of
    resident memory, for a few dozen integers."""
    for A in tables:
        if A.n != n:
            raise RingError(f"sparse {A.n} x {A.n} term in a {n} x {n} matrix")
    ring.check_int64(sum(A.col_bound for A in tables) * ring.depth, "a generator column update", ring.q)
    # every entry as (column, term, row, coefficient): a column's first is its lead
    entries = sorted((c, k, d, a) for k, A in enumerate(tables)
                     for c, d, a in zip(A.src.tolist(), A.dst.tolist(), A.coeff.tolist()))
    cols, leads, others = [], [], []
    for c, k, d, a in entries:
        if cols and cols[-1] == c:
            others.append((len(cols) - 1, k, d, a))
        else:
            cols.append(c)
            leads.append((k, d, a))
    fold_at = sorted({p for p, _, _, _ in others})
    other_rows = sorted({d for _, _, d, _ in others})
    u, P, J = len(cols), len(fold_at), len(other_rows)
    coeff = np.zeros((u + P * J, len(tables)), dtype=np.int64)
    for p, (k, _, a) in enumerate(leads):
        coeff[p, k] = a
    # (position, row) is distinct within one table, so no cell is written twice
    p_at, d_at = {p: i for i, p in enumerate(fold_at)}, {d: j for j, d in enumerate(other_rows)}
    for p, k, d, a in others:
        coeff[u + p_at[p] * J + d_at[d], k] = a
    arrays = [np.array(cols, dtype=np.int64), np.array(cols + [d for _, d, _ in leads] + other_rows, dtype=np.int64),
              coeff]
    for a in arrays:
        a.setflags(write=False)
    return ColumnLayout(arrays[0], arrays[1], _frozen_index(fold_at), coeff)


def _frozen_index(positions: list[int]) -> slice | np.ndarray:
    """An index for `positions`: a slice when they are one increasing run,
    so an update through it is in place, else a read-only array."""
    start = positions[0] if positions else 0
    if positions == list(range(start, start + len(positions))):
        return slice(start, start + len(positions))
    index = np.array(positions, dtype=np.int64)
    index.setflags(write=False)
    return index


def _diagonal_buffer(depth: int, n: int, entries) -> np.ndarray:
    """M^T of the n x n diagonal M with `entries`, (n, depth) or one
    (depth,) vector, as a fresh C-ordered (n, depth, n) buffer."""
    buf = np.zeros((n, depth, n), dtype=np.int64)
    buf[np.arange(n), :, np.arange(n)] = entries
    return buf


class Mat:
    __slots__ = ("ring", "n", "_data", "factor", "chained")

    def __init__(self, ring: Ring, data: np.ndarray | None, *, reduce: bool = True, factor=None,
                 n: int | None = None, chained: bool = False):
        """data None (n given) is a diagonal or a generator: `data` forms it
        from `factor`.  `chained` marks a chain's running product
        (`Mat.chain`), whose data is left writable."""
        self.ring = ring
        if data is not None:
            if reduce:
                data = ring.mat_mod(np.asarray(data, dtype=np.int64))
            n = data.shape[-1]
            if not chained:
                data.setflags(write=False)
        self.n = n
        self._data = data
        # ("diag", read-only (depth, 1, n) stack) | ("unipotent", (layout, lead, fold))
        # with layout the tables' `ColumnLayout`, lead the (u, depth, depth)
        # reduced lead coefficients times their term's T_s, and fold the
        # (P depth, J depth) matrix sum_k T_{s_k} (x) F_k, rows (position,
        # slot) and columns (row, slot), or None when no column has other
        # entries
        self.factor = factor
        self.chained = chained

    @property
    def data(self) -> np.ndarray:
        """The read-only (depth, n, n) stack, (depth, r, n) for a row stack;
        a diagonal or a generator forms it here, once."""
        if self._data is None:
            data = self._fresh_buffer().transpose(1, 2, 0)
            data.setflags(write=False)
            self._data = data
        return self._data

    def _fresh_buffer(self) -> np.ndarray:
        """M^T of a diagonal or a generator, formed from its factor, as a
        fresh C-ordered (n, depth, n) buffer."""
        kind, parts = self.factor
        if kind == "diag":
            return _diagonal_buffer(self.ring.depth, self.n, parts[:, 0].T)
        buf = _diagonal_buffer(self.ring.depth, self.n, self.ring.one.vec)
        _unipotent_update(self.ring, buf, parts)
        return buf

    def _column_major(self) -> np.ndarray:
        """M^T as a C-ordered writable buffer for a generator update: a
        chain's own buffer itself, a factor not yet formed in a fresh
        buffer, anything else copied once."""
        if self._data is None:
            return self._fresh_buffer()
        MT = self._data.transpose(2, 0, 1)
        return MT if self.chained and MT.flags.writeable and MT.flags.c_contiguous else MT.copy()

    # -- chains ------------------------------------------------------------------

    def chain(self) -> "Mat":
        """This matrix as the start of a chain: a product onto a chain is a
        chain, and a generator product onto one that owns its buffer updates
        that buffer in place, so no chain may be handed out before
        `freeze`."""
        return Mat(self.ring, self._data, reduce=False, factor=self.factor, n=self.n, chained=True)

    def freeze(self) -> "Mat":
        """End this chain: its data becomes read-only, and it is an ordinary
        matrix again."""
        if self._data is not None:
            self._data.setflags(write=False)
        self.chained = False
        return self

    # -- constructors ----------------------------------------------------------

    @classmethod
    def identity(cls, ring: Ring, n: int, rows=None) -> "Mat":
        """The n x n identity, or only its rows `rows` as a row stack."""
        rows = range(n) if rows is None else rows
        data = np.zeros((ring.depth, len(rows), n), dtype=np.int64)
        data[0, np.arange(len(rows)), rows] = 1
        return cls(ring, data, reduce=False)

    @classmethod
    def diagonal(cls, ring: Ring, vecs) -> "Mat":
        """The diagonal matrix of the canonical coefficient vectors `vecs`;
        only the factor is built."""
        flat = np.fromiter(chain.from_iterable(vecs), dtype=np.int64)
        dvec = flat.reshape(-1, ring.depth).T[:, None, :]
        return cls._diagonal(ring, dvec)

    @classmethod
    def _diagonal(cls, ring: Ring, dvec: np.ndarray, chained: bool = False) -> "Mat":
        dvec.setflags(write=False)
        return cls(ring, None, n=dvec.shape[2], factor=("diag", dvec), chained=chained)

    @classmethod
    def unipotent(cls, ring: Ring, n: int, terms) -> "Mat":
        """I + sum of s * A over the (A, s) in `terms`: A an integer matrix given
        by its `SparseColumns`, s a ring element.  Only the factor is built:
        every term's T_s from one `regular` of the scalars side by side (at
        depth 1 the scalars themselves), times the layout's coefficients in
        one small product, reduced once."""
        terms = tuple(terms)
        layout = _checked_layout(ring, n, tuple(A for A, _ in terms))
        # u positions, J other rows
        d, u = ring.depth, len(layout.cols)
        J = len(layout.gather) - 2 * u
        S = np.array([s.vec for _, s in terms], dtype=np.int64).T
        # T_s of every term flattened, one column per term
        R = S if d == 1 else ring.regular(S).reshape(d * d, -1)
        c = layout.coeff @ R.T % ring.q
        lead = c[:u].reshape(u, d, d)
        fold = c[u:].reshape(-1, J, d, d).transpose(0, 2, 1, 3).reshape(-1, d * J) if J else None
        return cls(ring, None, n=n, factor=("unipotent", (layout, lead, fold)))

    # -- arithmetic --------------------------------------------------------------

    def __matmul__(self, other: "Mat") -> "Mat":
        ring = self.ring
        square = other.factor is not None or other.data.shape[1] == other.n
        if other.ring != ring or other.n != self.n or not square:
            raise RingError(f"cannot multiply {self!r} by {other!r}")
        if other.factor is None:
            return Mat(ring, ring.mat_mul(self.data, other.data), chained=self.chained)
        kind, parts = other.factor
        if kind == "diag":
            if self.factor is not None and self.factor[0] == "diag":
                return Mat._diagonal(ring, ring.mat_elemmul(self.factor[1], parts), self.chained)
            return Mat(ring, ring.mat_elemmul(self.data, parts), reduce=False, chained=self.chained)
        MT = self._column_major()
        _unipotent_update(ring, MT, parts)
        return Mat(ring, MT.transpose(1, 2, 0), reduce=False, chained=self.chained)

    def __sub__(self, other: "Mat") -> "Mat":
        return Mat(self.ring, self.data - other.data)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Mat)
            and self.ring == other.ring
            and np.array_equal(self.data, other.data)
        )

    def __hash__(self) -> int:  # pragma: no cover - not used as dict key
        return hash((self.ring.descriptor, self.data.tobytes()))

    # -- entry access ------------------------------------------------------------

    def get(self, i: int, j: int) -> RingElem:
        return self.ring.elem(tuple(int(c) for c in self.data[:, i, j]))

    def with_entry(self, i: int, j: int, value: RingElem) -> "Mat":
        data = self.data.copy()
        data[:, i, j] = value.vec
        return Mat(self.ring, data)

    def monomial(self) -> tuple[np.ndarray, np.ndarray]:
        """(pi, m): column j's one nonzero entry m[:, j] is at row pi[j].  A
        diagonal reads its factor, forming no dense stack; a column of other
        than one nonzero entry raises RingError."""
        if self.factor is not None and self.factor[0] == "diag":
            return np.arange(self.n), self.factor[1][:, 0]
        nonzero = self.data.any(axis=0)
        if (nonzero.sum(axis=0) != 1).any():
            raise RingError(f"{self!r} is not monomial")
        pi = nonzero.argmax(axis=0)
        return pi, self.data[:, pi, np.arange(self.n)]

    def is_identity(self) -> bool:
        return self == Mat.identity(self.ring, self.n)

    # -- serialization ----------------------------------------------------------

    def to_json(self) -> dict:
        # entries as Ring.elem_to_json writes them: an int at depth 1, else a list
        data = self.data[0] if self.ring.depth == 1 else self.data.transpose(1, 2, 0)
        return {"n": self.n, "ring": self.ring.descriptor, "rows": data.tolist()}

    @classmethod
    def from_json(cls, ring: Ring, obj) -> "Mat":
        """Parse {"n", "ring", "rows"}: exactly n rows of n entries, each an
        integer or a list of ring.depth integers.  A row of plain integers
        is reduced into slot 0 in one comprehension, and a row of lists of
        ring.depth plain integers in one pass over its flattened slots; any
        other row goes entry by entry through `Ring.vec_from_json`, which
        refuses bools and lists of the wrong length."""
        if not isinstance(obj, dict):
            raise RingError("matrix JSON must be an object with n, ring and rows")
        n, rows = obj.get("n"), obj.get("rows")
        if type(n) is not int or n < 1:
            raise RingError(f"matrix n must be a positive integer, not {n!r}")
        if obj.get("ring") not in (ring.descriptor, "int"):
            raise RingError(f"matrix ring {obj.get('ring')!r} != {ring.descriptor!r}")
        if not isinstance(rows, list) or len(rows) != n:
            got = f"{len(rows)} rows" if isinstance(rows, list) else type(rows).__name__
            raise RingError(f"matrix rows must be a list of n = {n} rows, not {got}")
        # every row's shape is checked before the n x n array is allocated
        for i, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != n:
                raise RingError(f"matrix row {i} is not a list of n = {n} entries")
        q, d = ring.q, ring.depth
        data = np.zeros((d, n, n), dtype=np.int64)
        # the flattened slots, entry after entry, of each row not of plain integers
        slots = {}
        for i, row in enumerate(rows):
            if all(type(e) is int for e in row):
                data[0, i] = [e % q for e in row]
                continue
            if set(map(type, row)) == {list} and set(map(len, row)) == {d}:
                flat = list(chain.from_iterable(row))
                if set(map(type, flat)) == {int}:
                    slots[i] = [c % q for c in flat]
                    continue
            slots[i] = list(chain.from_iterable(ring.vec_from_json(e) for e in row))
        if slots:
            stack = np.array(list(slots.values()), dtype=np.int64).reshape(-1, n, d)
            data[:, list(slots)] = stack.transpose(2, 0, 1)
        return cls(ring, data, reduce=False)

    def __repr__(self) -> str:
        return f"Mat({self.ring.descriptor}, n={self.n})"
