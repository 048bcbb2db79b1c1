"""Square matrices over the rings in :mod:`chevalley.rings`.

Storage is a numpy int64 stack of shape (depth, n, n) with canonical entries;
a dense product is the owning ring's one tensor kernel (`Ring.mat_mul`), so
products over Z/p^k, F_p[eps]/(eps^k) and extensions are all a few integer
matmuls reduced once.

A matrix built by `Mat.diagonal` or `Mat.unipotent` records that structure as
its factor, and a product with it on the right uses it: a diagonal scales the
columns of the left operand (`Ring.mat_elemmul`), and I + sum s_k A_k (sparse
integer A_k) adds s_k (M A_k) to the few columns A_k touches, as one fused
step per term: the block becomes reduce(block + T_s (M A_k)), with T_s the
depth x depth regular representation of s.  M A_k is left unreduced, so its
entries are at most K (q - 1) in absolute value, K being A_k's largest column
sum of |coefficient|; T_s (M A_k) then sums depth such products, and the step
needs K * depth * (q - 1)^2 + q < 2^63, which `Mat.unipotent` checks for
every term when it builds the factor.  Every other product is dense.

`Mat.inv` works on every ring kind, extensions included: it solves the
(depth n) x (depth n) matrix of X -> M X over Z/q with `rings.solve_mod`, and
raises RingError exactly when M is singular.
"""

from __future__ import annotations

import numpy as np

from .rings import Ring, RingElem, RingError, solve_mod


class Mat:
    __slots__ = ("ring", "n", "data", "factor")

    def __init__(self, ring: Ring, data: np.ndarray, *, reduce: bool = True, factor=None):
        self.ring = ring
        if reduce:
            data = ring.mat_mod(np.asarray(data, dtype=np.int64))
        self.n = data.shape[1]
        data.setflags(write=False)
        self.data = data
        # ("diag", (depth, 1, n) stack) | ("unipotent", ((SparseColumns, T_s), ...))
        # with T_s the (depth, depth) regular representation of the scalar s
        self.factor = factor

    # -- constructors ----------------------------------------------------------

    @classmethod
    def zeros(cls, ring: Ring, n: int) -> "Mat":
        return cls(ring, np.zeros((ring.depth, n, n), dtype=np.int64), reduce=False)

    @classmethod
    def identity(cls, ring: Ring, n: int) -> "Mat":
        data = np.zeros((ring.depth, n, n), dtype=np.int64)
        data[0] = np.eye(n, dtype=np.int64) % ring.q
        return cls(ring, data, reduce=False)

    @classmethod
    def from_int_matrix(cls, ring: Ring, intmat: np.ndarray) -> "Mat":
        return cls(ring, ring.lift_int_matrix(np.asarray(intmat, dtype=np.int64)), reduce=False)

    @classmethod
    def diagonal(cls, ring: Ring, elems) -> "Mat":
        dvec = np.array([e.vec for e in elems], dtype=np.int64).T
        n = dvec.shape[1]
        data = np.zeros((ring.depth, n, n), dtype=np.int64)
        data[:, np.arange(n), np.arange(n)] = dvec
        dvec = dvec[:, None, :]
        dvec.setflags(write=False)
        return cls(ring, data, reduce=False, factor=("diag", dvec))

    @classmethod
    def unipotent(cls, ring: Ring, n: int, terms) -> "Mat":
        """I + sum of s * A over the (A, s) in `terms`: A an integer matrix given
        by its `SparseColumns`, s a ring element."""
        data = np.zeros((ring.depth, n, n), dtype=np.int64)
        np.fill_diagonal(data[0], 1)
        factor = []
        for A, s in terms:
            if A.n != n:
                raise RingError(f"sparse {A.n} x {A.n} term in a {n} x {n} matrix")
            ring.check_int64(A.col_bound * ring.depth, "a generator column update", ring.q)
            svec = np.asarray(s.vec, dtype=np.int64)
            # (dst, src) pairs are distinct within one table, so each cell is
            # read and written once per term
            cells = (slice(None), A.dst, A.src)
            data[cells] = ring.mat_mod(data[cells] + svec[:, None] * A.coeff)
            Ts = ring.regular(svec)
            Ts.setflags(write=False)
            factor.append((A, Ts))
        return cls(ring, data, reduce=False, factor=("unipotent", tuple(factor)))

    # -- arithmetic --------------------------------------------------------------

    def __matmul__(self, other: "Mat") -> "Mat":
        ring = self.ring
        if other.ring != ring or other.n != self.n:
            raise RingError(f"cannot multiply {self!r} by {other!r}")
        if other.factor is None:
            return Mat(ring, ring.mat_mul(self.data, other.data))
        kind, parts = other.factor
        if kind == "diag":
            return Mat(ring, ring.mat_elemmul(self.data, parts), reduce=False)
        # M (I + sum s A) = M + sum s (M A), over the columns A touches: one
        # product with T_s and one reduction per term (bound: module docstring)
        out = self.data.copy()
        shape = (ring.depth, -1)
        for A, Ts in parts:
            MA = A.right_mul(self.data)
            out[..., A.cols] = ring.mat_mod(out[..., A.cols] + (Ts @ MA.reshape(shape)).reshape(MA.shape))
        return Mat(ring, out, reduce=False)

    def __add__(self, other: "Mat") -> "Mat":
        return Mat(self.ring, self.data + other.data)

    def __sub__(self, other: "Mat") -> "Mat":
        return Mat(self.ring, self.data - other.data)

    def __neg__(self) -> "Mat":
        return Mat(self.ring, -self.data)

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

    def diagonal_elems(self) -> list[RingElem]:
        return [self.get(i, i) for i in range(self.n)]

    def is_identity(self) -> bool:
        return self == Mat.identity(self.ring, self.n)

    def is_diagonal(self) -> bool:
        off = self.data.copy()
        for d in range(off.shape[0]):
            np.fill_diagonal(off[d], 0)
        return not off.any()

    # -- inverses ------------------------------------------------------------------

    def inv(self) -> "Mat":
        """Exact inverse over any ring kind, or RingError when there is none.

        M X = I is (depth n)^2 linear equations over Z/q: slot k of M[r, s] x
        is sum_i x_i R[k, i, r, s] for the regular representation R of M's
        entries, so row (k, r) and column (i, s) of their matrix hold
        R[k, i, r, s], and `solve_mod` solves it against the slot-0 identity.
        """
        ring, n, d = self.ring, self.n, self.ring.depth
        A = ring.regular(self.data).transpose(0, 2, 1, 3).reshape(d * n, d * n)
        X = solve_mod(A.tolist(), np.eye(d * n, n, dtype=np.int64).tolist(), ring.q, ring.p)
        return Mat(ring, np.array(X, dtype=np.int64).reshape(d, n, n), reduce=False)

    def neumann_inv(self) -> "Mat":
        """Inverse of I - N with nilpotent N; valid when self = I mod radical."""
        ring = self.ring
        if ring.nilpotency is None:
            raise RingError("neumann_inv needs a local ring")
        eye = Mat.identity(ring, self.n)
        N = eye - self
        acc, power = eye, N
        for _ in range(ring.nilpotency - 1):
            acc = acc + power
            power = power @ N
        return acc

    # -- serialization ----------------------------------------------------------

    def to_json(self) -> dict:
        # entries as Ring.elem_to_json writes them: an int at depth 1, else a list
        data = self.data[0] if self.ring.depth == 1 else self.data.transpose(1, 2, 0)
        return {"n": self.n, "ring": self.ring.descriptor, "rows": data.tolist()}

    @classmethod
    def from_json(cls, ring: Ring, obj) -> "Mat":
        """Parse {"n", "ring", "rows"}: exactly n rows of n entries, each an
        integer or a list of ring.depth integers."""
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
        vecs = []
        for i, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != n:
                raise RingError(f"matrix row {i} is not a list of n = {n} entries")
            vecs += [ring.vec_from_json(e) for e in row]
        data = np.array(vecs, dtype=np.int64).reshape(n, n, ring.depth).transpose(2, 0, 1)
        return cls(ring, np.ascontiguousarray(data), reduce=False)

    def __repr__(self) -> str:
        return f"Mat({self.ring.descriptor}, n={self.n})"
