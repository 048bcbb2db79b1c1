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
* a generator, I + sum s_k A_k (sparse integer A_k), on the right adds
  sum s_k (M A_k) to the columns the A_k touch, as one block update: the
  columns of M in the sorted union of the terms' columns are gathered once,
  each term adds T_s (M A_k) at its positions in that block, with T_s the
  depth x depth regular representation of s, and the block is reduced once
  and written back once.  At depth 1 T_s is the one slot of s, a scalar
  multiply.  M A_k is left unreduced, so its entries are at most
  K_k (q - 1) in absolute value, K_k being A_k's largest column sum of
  |coefficient|; T_s (M A_k) sums depth such products, so an entry of the
  block is at most sum_k K_k * depth * (q - 1)^2 + q, which must stay below
  2^63.  That bound, with the block layout, is checked once per ring, size
  and table tuple (`_checked_layout`), the first time `Mat.unipotent`
  builds a generator of those tables, and a refusal comes before any array
  is built.  The update works on the column-major buffer M^T, shape
  (depth, n, r), where each gathered column is a contiguous row; the
  result's `data` is the (depth, r, n) transposed view of a C-ordered
  buffer.  The update copies M^T once, as its output buffer: the next
  generator product in a chain (compose, or a sweep's inverse word) finds
  it contiguous, and any other left operand, a dense input or the
  identity, is transposed by that copy.  A generator's dense stack is that
  update applied to the identity.

Every other product is dense.  There is no matrix inverse: a group element
is inverted as its word of factors (`group.inverse_word`).  A matrix with
one nonzero entry per column is read as its permutation and entries by
`Mat.monomial`, and conjugation by it is checked with no product
(`group.conjugation_holds`).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain

import numpy as np

from .lie import frozen_index
from .rings import Ring, RingElem, RingError


def _unipotent_right(ring: Ring, M: np.ndarray, update) -> np.ndarray:
    """M (I + sum s A) = M + sum s (M A), as one block update over the
    columns `cols` the terms touch (layout and bound: module docstring)."""
    cols, parts = update
    out = M.transpose(0, 2, 1).copy()
    block = out.take(cols, axis=1)
    for A, pos, Ts in parts:
        MA = A.right_mul_t(out)
        if ring.depth == 1:
            MA *= Ts
        else:
            MA = np.einsum("ki,inc->knc", Ts, MA)
        block[:, pos] += MA
    out[:, cols] = ring.mat_mod(block)
    return out.transpose(0, 2, 1)


@lru_cache(maxsize=None)
def _checked_layout(ring: Ring, n: int, tables) -> tuple[np.ndarray, tuple]:
    """The block layout of the `SparseColumns` tables, once per ring, size
    and table tuple, after the checks every generator of them needs: each
    table is n x n, and the block update stays below 2^63 over `ring`.  A
    refusal is not cached, so it is raised again, before any array is
    built, each time.

    The layout is the sorted union of the columns the tables touch, and
    each table's column positions in it.  A table whose columns are one
    run of the block, as all of it for ad x_a and the one column of its
    square, gets the positions as a slice: its update is in place.  Built
    in Python: `np.unique` would import `numpy.ma`, 1.6 MB of resident
    memory, for a few dozen integers."""
    for A in tables:
        if A.n != n:
            raise RingError(f"sparse {A.n} x {A.n} term in a {n} x {n} matrix")
    ring.check_int64(sum(A.col_bound for A in tables) * ring.depth, "a generator column update", ring.q)
    union = sorted(set().union(*(A.cols.tolist() for A in tables)))
    at = {c: i for i, c in enumerate(union)}
    cols = np.array(union, dtype=np.int64)
    cols.setflags(write=False)
    return cols, tuple(frozen_index([at[c] for c in A.cols.tolist()]) for A in tables)


class Mat:
    __slots__ = ("ring", "n", "_data", "factor")

    def __init__(self, ring: Ring, data: np.ndarray | None, *, reduce: bool = True, factor=None,
                 n: int | None = None):
        """data None (n given) is a diagonal or a generator: `data` forms it
        from `factor`."""
        self.ring = ring
        if data is not None:
            if reduce:
                data = ring.mat_mod(np.asarray(data, dtype=np.int64))
            n = data.shape[-1]
            data.setflags(write=False)
        self.n = n
        self._data = data
        # ("diag", read-only (depth, 1, n) stack) | ("unipotent", (cols, ((A, pos, T_s), ...)))
        # with A a SparseColumns table, pos its columns' positions in the sorted
        # union cols of every term's columns, and T_s the read-only (depth, depth)
        # regular representation of the scalar s, or at depth 1 its one slot
        # as an int
        self.factor = factor

    @property
    def data(self) -> np.ndarray:
        """The read-only (depth, n, n) stack, (depth, r, n) for a row stack;
        a diagonal or a generator forms it here, once."""
        if self._data is None:
            kind, parts = self.factor
            if kind == "diag":
                data = np.zeros((self.ring.depth, self.n, self.n), dtype=np.int64)
                data[:, np.arange(self.n), np.arange(self.n)] = parts[:, 0]
            else:
                data = _unipotent_right(self.ring, Mat.identity(self.ring, self.n).data, parts)
            data.setflags(write=False)
            self._data = data
        return self._data

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
    def _diagonal(cls, ring: Ring, dvec: np.ndarray) -> "Mat":
        dvec.setflags(write=False)
        return cls(ring, None, n=dvec.shape[2], factor=("diag", dvec))

    @classmethod
    def unipotent(cls, ring: Ring, n: int, terms) -> "Mat":
        """I + sum of s * A over the (A, s) in `terms`: A an integer matrix given
        by its `SparseColumns`, s a ring element.  Only the factor is built."""
        terms = tuple(terms)
        cols, positions = _checked_layout(ring, n, tuple(A for A, _ in terms))
        if ring.depth == 1:
            scalars = [s.vec[0] for _, s in terms]
        else:
            # every term's T_s from one `regular` of the scalars side by side
            R = ring.regular(np.array([s.vec for _, s in terms], dtype=np.int64).T)
            R.setflags(write=False)
            scalars = [R[..., k] for k in range(len(terms))]
        parts = tuple(zip((A for A, _ in terms), positions, scalars))
        return cls(ring, None, n=n, factor=("unipotent", (cols, parts)))

    # -- arithmetic --------------------------------------------------------------

    def __matmul__(self, other: "Mat") -> "Mat":
        ring = self.ring
        square = other.factor is not None or other.data.shape[1] == other.n
        if other.ring != ring or other.n != self.n or not square:
            raise RingError(f"cannot multiply {self!r} by {other!r}")
        if other.factor is None:
            return Mat(ring, ring.mat_mul(self.data, other.data))
        kind, parts = other.factor
        if kind == "diag":
            if self.factor is not None and self.factor[0] == "diag":
                return Mat._diagonal(ring, ring.mat_elemmul(self.factor[1], parts))
            return Mat(ring, ring.mat_elemmul(self.data, parts), reduce=False)
        return Mat(ring, _unipotent_right(ring, self.data, parts), reduce=False)

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
        q, d = ring.q, ring.depth
        data = np.zeros((d, n, n), dtype=np.int64)
        # the flattened slots, entry after entry, of each row not of plain integers
        slots = {}
        for i, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != n:
                raise RingError(f"matrix row {i} is not a list of n = {n} entries")
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
