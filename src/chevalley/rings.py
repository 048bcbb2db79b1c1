"""Exact arithmetic in commutative local rings with 1/2, and root-adjunction extensions.

Supported ring kinds:

* ``zmod:<p>^<k>``  -- Z/p^k with p an odd prime (local, radical (p), J^k = 0)
* ``gf:<p>``        -- the prime field F_p, p odd
* ``trunc:<p>:<k>`` -- F_p[eps]/(eps^k), p odd (local, radical (eps))
* ``ext:<base>:<r>:<m>`` -- base[y]/(y^m - r) for a unit r of the base
  (commutative with 1, generally not local)

Elements are stored as fixed-length tuples of canonical integer residues, so
equality is representational equality.  Every kind is a free Z/q-module of
rank `depth` with one modulus q for all its slots, so a kind is described by
its integer multiplication tensor C (depth x depth x depth): slot k of a * b
is the sum over i, j of C[k, i, j] a_i b_j, mod q.  C is the 1 x 1 x 1 one for
zmod and gf, [i + j = k] for trunc, and for ext the base tensor with the
products of degree m or more wrapped round by r.  A kind keeps only its
tensor and its locality; the products and inverses are generic.

Matrices over a ring are numpy int64 stacks of shape (depth, rows, cols), one
slice per slot, and one kernel multiplies them: the right operand b becomes
its reduced regular representation B[k, i] = sum_j C[k, i, j] b_j, and slot k
of the product is the sum over i of a_i times B[k, i], reduced once.  Both
factors are residues, so one entry of the product sums at most depth * n
products below (q - 1)^2 for an inner dimension n: `Ring.mat_mul` checks
depth * n * (q - 1)^2 < 2^63 on every call, and a ring that could not meet it
on the largest adjoint module (n = 248, E8) is refused when it is built.
A stack is reduced as x - (x // q) * q, which numpy runs several times
faster than x % q (see `Ring.mat_mod`).

An element is inverted by one elimination over Z/q.  Z/q is local, so
`solve_mod` (Gauss-Jordan on Python ints) may pivot on any entry prime to p,
and it finds a pivot in every column exactly when the matrix is invertible.
An element a is inverted by solving its depth x depth regular representation
against e_0; an extension, which is not local, is inverted the same way,
because multiplication by a is a Z/q-linear map invertible exactly when a
is a unit.  Matrices are not inverted here: a group element is inverted as
its word of factors (`group.inverse_word`).
"""

from __future__ import annotations

import math
import re
from functools import cached_property, lru_cache

import numpy as np

Vec = tuple[int, ...]


class RingError(ValueError):
    """Invalid ring construction or an operation outside a ring's contract."""


def _is_prime(n: int) -> bool:
    """Trial division to isqrt(n): exact for every n, and about 0.4 ms at
    the modulus cap (a 2-vCPU Xeon), once per ring built."""
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def solve_mod(A: list[list[int]], B: list[list[int]], q: int, p: int) -> list[list[int]]:
    """X with A X = B over Z/q, q a power of the prime p, by Gauss-Jordan
    elimination on unit pivots.

    A is n x n and B is n x k, both lists of rows of integers.  Z/q is local:
    a pivot is any entry x with x % p != 0, and a column with none on or below
    the diagonal means A is singular, which raises RingError.
    """
    n = len(A)
    rows = [[x % q for x in a + b] for a, b in zip(A, B)]
    width = len(rows[0])
    for c in range(n):
        for piv in range(c, n):
            if rows[piv][c] % p:
                break
        else:
            raise RingError(f"singular modulo {q}: no unit pivot in column {c}")
        top = rows[piv]
        rows[piv] = rows[c]
        rows[c] = top
        # columns up to c are final: only the nonzeros beyond c are carried
        f = pow(top[c], -1, q)
        live = [(j, top[j] * f % q) for j in range(c + 1, width) if top[j]]
        for j, x in live:
            top[j] = x
        for row in rows:
            g = row[c]
            if g and row is not top:
                for j, x in live:
                    row[j] = (row[j] - g * x) % q
    return [row[n:] for row in rows]


class RingElem:
    """One ring element: an owning ring plus a canonical coefficient tuple."""

    __slots__ = ("ring", "vec")

    def __init__(self, ring: "Ring", vec: Vec):
        self.ring = ring
        self.vec = vec

    def __add__(self, other: "RingElem") -> "RingElem":
        return RingElem(self.ring, self.ring.add_vec(self.vec, self.ring.coerce(other)))

    def __sub__(self, other: "RingElem") -> "RingElem":
        return RingElem(self.ring, self.ring.add_vec(self.vec, self.ring.neg_vec(self.ring.coerce(other))))

    def __neg__(self) -> "RingElem":
        return RingElem(self.ring, self.ring.neg_vec(self.vec))

    def __mul__(self, other: "RingElem") -> "RingElem":
        return RingElem(self.ring, self.ring.mul_vec(self.vec, self.ring.coerce(other)))

    __radd__ = __add__
    __rmul__ = __mul__

    def __pow__(self, e: int) -> "RingElem":
        base = self.vec if e >= 0 else self.ring.inv_vec(self.vec)
        acc = self.ring.one.vec
        for _ in range(abs(e)):
            acc = self.ring.mul_vec(acc, base)
        return RingElem(self.ring, acc)

    def inv(self) -> "RingElem":
        return RingElem(self.ring, self.ring.inv_vec(self.vec))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self.vec == self.ring.from_int(other).vec
        return (
            isinstance(other, RingElem)
            and self.ring.descriptor == other.ring.descriptor
            and self.vec == other.vec
        )

    def __hash__(self) -> int:
        return hash((self.ring.descriptor, self.vec))

    def __repr__(self) -> str:
        return f"{self.ring.format_elem(self)}@{self.ring.descriptor}"


class Ring:
    """Common interface and the generic kernels; a concrete kind supplies its
    multiplication tensor and its locality."""

    kind: str
    descriptor: str
    depth: int
    p: int                  # the prime with q = p^e
    q: int                  # the modulus of every slot
    tensor: np.ndarray      # C[k, i, j], int64 residues, read-only
    local: bool
    nilpotency: int | None  # least k with J^k = 0 when local

    def _check_depth(self, depth: int) -> None:
        """Refuse, before any array is built, a ring deeper than MAX_DEPTH or
        one whose products could leave int64 at n = MAX_DIM."""
        if depth > MAX_DEPTH:
            raise RingError(f"{self.descriptor} has {depth} slots; at most {MAX_DEPTH} are supported")
        self.check_int64(MAX_DIM * depth, f"products of {MAX_DIM} x {MAX_DIM} matrices")

    def _set_tensor(self, tensor: np.ndarray) -> None:
        """Record the multiplication tensor and the nonzeros the kernels loop
        over."""
        self.depth = tensor.shape[0]
        C = tensor % self.q
        C.setflags(write=False)
        self.tensor = C
        # (k, i, j, C[k, i, j]) for mul_vec, and per slot k the i with a
        # nonzero C[k, i, :] for the matrix kernel; a commutative ring with 1
        # has C[k, 0, k] = 1, so no slot's list is empty
        self._terms = tuple(zip(*(ix.tolist() for ix in np.nonzero(C)), C[C != 0].tolist()))
        self._support = tuple(tuple(np.flatnonzero(C[k].any(axis=1)).tolist()) for k in range(self.depth))

    def check_int64(self, products: int, what: str, extra: int = 0) -> None:
        """Refuse a kernel step that sums `products` products of two residues,
        plus `extra`, when the sum could leave int64."""
        if products * (self.q - 1) ** 2 + extra > INT64_MAX:
            raise RingError(f"{what} over {self.descriptor} would overflow int64")

    # -- element constructors -------------------------------------------------

    def elem(self, vec: Vec) -> RingElem:
        return RingElem(self, tuple(int(v) % self.q for v in vec))

    def from_int(self, n: int) -> RingElem:
        vec = [0] * self.depth
        vec[0] = n
        return self.elem(tuple(vec))

    @cached_property
    def zero(self) -> RingElem:
        return self.from_int(0)

    @cached_property
    def one(self) -> RingElem:
        return self.from_int(1)

    def coerce(self, x) -> Vec:
        if isinstance(x, RingElem):
            if x.ring.descriptor != self.descriptor:
                raise RingError(f"element of {x.ring.descriptor} used in {self.descriptor}")
            return x.vec
        if isinstance(x, int):
            return self.from_int(x).vec
        raise RingError(f"cannot coerce {x!r}")

    # -- vector kernels ------------------------------------------------------

    def add_vec(self, a: Vec, b: Vec) -> Vec:
        q = self.q
        return tuple((x + y) % q for x, y in zip(a, b))

    def neg_vec(self, a: Vec) -> Vec:
        q = self.q
        return tuple(-x % q for x in a)

    def mul_vec(self, a: Vec, b: Vec) -> Vec:
        q = self.q
        if self.depth == 1:
            # C = [[[1]]] at depth 1 (1 * 1 = 1); the loop below would triple
            # the cost of the commonest product, e.g. in EntryFormula.evaluate
            return (a[0] * b[0] % q,)
        out = [0] * self.depth
        for k, i, j, c in self._terms:
            out[k] += c * a[i] * b[j]
        return tuple([x % q for x in out])

    def inv_vec(self, a: Vec) -> Vec:
        """x with a x = 1: slot k of x a is sum_i x_i R[k, i] for the regular
        representation R of a, so x solves R x = e_0 by `solve_mod`."""
        if not any(a[1:]):
            # a scalar of Z/q, as every element is at depth 1, has R = a_0 I:
            # the commonest inverse, as mul_vec's shortcut is the commonest product
            if a[0] % self.p == 0:
                raise RingError(f"{a[0]} is not a unit in {self.descriptor}")
            return (pow(a[0], -1, self.q),) + a[1:]
        try:
            x = solve_mod(self.regular_rows(a), [[1]] + [[0]] * (self.depth - 1), self.q, self.p)
        except RingError:
            raise RingError(f"{a} is not a unit in {self.descriptor}") from None
        return tuple(row[0] for row in x)

    def regular_rows(self, a: Vec) -> list[list[int]]:
        """`regular` of one element, as lists of rows built in Python: one
        element is too small for numpy calls to pay."""
        d, q = self.depth, self.q
        R = [[0] * d for _ in range(d)]
        for k, i, j, c in self._terms:
            R[k][i] += c * a[j]
        return [[x % q for x in row] for row in R]

    def is_unit_vec(self, a: Vec) -> bool:
        try:
            self.inv_vec(a)
            return True
        except RingError:
            return False

    # -- matrix kernels: data is int64 of shape (depth, r, c), canonical ------

    def mat_mod(self, data: np.ndarray) -> np.ndarray:
        """Canonical residues of any int64 array (negative entries too), in
        one new array, as data - (data // q) * q: numpy divides by a scalar
        several times faster than it takes `%`."""
        out = data // self.q
        out *= -self.q
        out += data
        return out

    def regular(self, b: np.ndarray) -> np.ndarray:
        """Reduced regular representation of a (depth, ...) stack b: R of shape
        (depth, depth, ...) with R[k, i] = sum_j C[k, i, j] b_j mod q, so that
        slot k of x * b is sum_i x_i R[k, i]."""
        d = self.depth
        R = self.tensor.reshape(d * d, d) @ b.reshape(d, -1)
        return self.mat_mod(R.reshape((d, d) + b.shape[1:]))

    def mat_mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Matrix product of two canonical stacks."""
        self.check_int64(self.depth * a.shape[-1], f"a product with inner dimension {a.shape[-1]}")
        return self._contract(a, b, np.matmul, (a.shape[1], b.shape[2]))

    def mat_elemmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Entrywise product of two canonical stacks, broadcast as numpy does;
        b, whose regular representation is formed, should be the smaller."""
        return self._contract(a, b, np.multiply, np.broadcast_shapes(a.shape[1:], b.shape[1:]))

    def _contract(self, a: np.ndarray, b: np.ndarray, op, shape) -> np.ndarray:
        # slot k is sum_i op(a_i, R[k, i]): at most depth terms, each a sum of
        # products of two residues, reduced once at the end.  Every term is
        # written into one of two buffers: fresh slot-sized temporaries cost
        # far more than the arithmetic at these sizes
        R = self.regular(b)
        out = np.empty((self.depth,) + shape, dtype=np.int64)
        term = None
        for k, idx in enumerate(self._support):
            op(a[idx[0]], R[k, idx[0]], out=out[k])
            for i in idx[1:]:
                if term is None:
                    term = np.empty(shape, dtype=np.int64)
                out[k] += op(a[i], R[k, i], out=term)
        return self.mat_mod(out)

    # -- locality -------------------------------------------------------------

    def radical_vec(self, a: Vec) -> bool:
        raise RingError(f"{self.descriptor}: locality not guaranteed")

    def mat_radical_all(self, data: np.ndarray) -> bool:
        """True iff every entry of a canonical stack lies in the radical."""
        raise RingError(f"{self.descriptor}: locality not guaranteed")

    def residue_field(self) -> "Ring":
        raise RingError(f"{self.descriptor}: locality not guaranteed")

    def residue_vec(self, a: Vec) -> RingElem:
        raise RingError(f"{self.descriptor}: locality not guaranteed")

    # -- misc -----------------------------------------------------------------

    def format_elem(self, x: RingElem) -> str:
        if self.depth == 1:
            return str(x.vec[0])
        return ",".join(str(c) for c in x.vec)

    def parse_elem(self, text: str) -> RingElem:
        parts = [int(c) for c in str(text).split(",")]
        if len(parts) == 1:
            return self.from_int(parts[0])
        if len(parts) != self.depth:
            raise RingError(f"{self.descriptor}: expected {self.depth} coefficients")
        return self.elem(tuple(parts))

    def elem_to_json(self, x: RingElem):
        return x.vec[0] if self.depth == 1 else list(x.vec)

    def elem_from_json(self, obj) -> RingElem:
        return RingElem(self, self.vec_from_json(obj))

    def vec_from_json(self, obj) -> Vec:
        """Canonical vector of a JSON entry: an integer, which lifts into slot
        0, or a list of `depth` integers."""
        if type(obj) is int:
            return (obj % self.q,) + (0,) * (self.depth - 1)
        if isinstance(obj, (list, tuple)) and len(obj) == self.depth and all(type(c) is int for c in obj):
            return tuple(c % self.q for c in obj)
        raise RingError(f"bad {self.descriptor} entry {obj!r}: "
                        f"expected an integer or a list of {self.depth} integers")

    # -- random sampling (tests and seeded suites) ----------------------------

    def random_element(self, rng) -> RingElem:
        return self.elem(tuple(rng.randrange(self.q) for _ in range(self.depth)))

    def random_unit(self, rng) -> RingElem:
        while True:
            x = self.random_element(rng)
            if self.is_unit_vec(x.vec):
                return x

    def random_radical(self, rng) -> RingElem:
        """A uniform element of the radical J, drawn by rejection.  Over a
        field J = {0} (nilpotency 1): zero, with no draw, where rejection
        would take q tries on average."""
        if self.nilpotency == 1:
            return self.zero
        while True:
            x = self.random_element(rng)
            if not self.is_unit_vec(x.vec):
                return x

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Ring) and self.descriptor == other.descriptor

    def __hash__(self) -> int:
        return hash(self.descriptor)

    def __repr__(self) -> str:
        return f"Ring({self.descriptor})"


INT64_MAX = 2**63 - 1
# the largest module the kernels are sized for: the adjoint module of E8
MAX_DIM = 248
# the largest slot modulus; at n = MAX_DIM the bound depth * n * (q - 1)^2 <
# 2^63 then leaves room for a depth of 14
_MAX_MODULUS = 50_000_000
# the most slots a ring may have, checked before the ring builds its
# multiplication tensor, which holds depth^3 int64 (2 MiB at 64)
MAX_DEPTH = 64


class LocalRing(Ring):
    """Z/p^k (kind 'zmod'), its k = 1 field flavour F_p (kind 'gf'), or
    F_p[eps]/(eps^k) (kind 'trunc').  Each is local with residue field F_p:
    a is a unit iff its slot 0 is prime to p, and the radical J is generated
    by `eps`, which is p for zmod and gf and eps for trunc, with J^k = 0."""

    def __init__(self, p: int, k: int, kind: str):
        if p == 2:
            raise RingError("p = 2 rejected: the ring has no 1/2")
        if k < 1:
            raise RingError("k >= 1 required")
        if kind == "gf" and k != 1:
            raise RingError("gf takes a single prime")
        # trunc has k slots mod p, zmod and gf one slot mod p^k; p^k >= 2^k,
        # so a k past the cap's bit length is refused before p^k is formed
        depth, e = (k, 1) if kind == "trunc" else (1, k)
        if e > _MAX_MODULUS.bit_length() or p**e > _MAX_MODULUS:
            raise RingError(f"modulus {p}^{e} too large for exact int64 products")
        if not _is_prime(p):
            raise RingError(f"{p} is not prime")
        self.kind, self.p, self.k, self.q = kind, p, k, p**e
        self.descriptor = {"zmod": f"zmod:{p}^{k}", "gf": f"gf:{p}", "trunc": f"trunc:{p}:{k}"}[kind]
        self._check_depth(depth)
        if kind == "trunc":
            i = np.arange(k)
            self._set_tensor((i[None, :, None] + i[None, None, :] == i[:, None, None]).astype(np.int64))
            self.eps = self.elem(tuple(int(s == 1) for s in range(k)))
        else:
            self._set_tensor(np.ones((1, 1, 1), dtype=np.int64))
            self.eps = self.from_int(p)
        self.local = True
        self.nilpotency = k

    def is_unit_vec(self, a: Vec) -> bool:
        return a[0] % self.p != 0

    def radical_vec(self, a: Vec) -> bool:
        return a[0] % self.p == 0

    def radical_power_vec(self, a: Vec, e: int) -> bool:
        """a in J^e: slot 0 divisible by p^e for zmod and gf, slots below e
        zero for trunc; J^e = 0 from e = k on."""
        e = min(e, self.k)
        if self.kind == "trunc":
            return not any(a[:e])
        return a[0] % self.p**e == 0

    def mat_radical_all(self, data: np.ndarray) -> bool:
        return bool((data[0] % self.p == 0).all())

    def residue_field(self) -> Ring:
        return make_ring(f"gf:{self.p}")

    def residue_vec(self, a: Vec) -> RingElem:
        return self.residue_field().from_int(a[0])


class ExtRing(Ring):
    """base[y]/(y^m - r): free rank-m extension adjoining an m-th root of a unit r."""

    kind = "ext"

    def __init__(self, base: Ring, r: RingElem, m: int):
        if base.kind == "ext":
            raise RingError("nested extensions are not supported")
        if m < 2:
            raise RingError("m >= 2 required")
        if not base.is_unit_vec(base.coerce(r)):
            raise RingError(f"{base.format_elem(r)} is not a unit of {base.descriptor}")
        self.base = base
        self.r = r
        self.m = m
        self.p, self.q = base.p, base.q
        self.descriptor = f"ext:{base.descriptor}:{base.format_elem(r)}:{m}"
        self._check_depth(m * base.depth)
        # slot I*d + i holds base slot i of the coefficient of y^I; a product
        # of degree I + J >= m wraps to degree I + J - m times r
        d, Cb = base.depth, base.tensor
        rCb = np.tensordot(base.regular(np.asarray(r.vec, dtype=np.int64)), Cb, axes=(1, 0))
        C = np.zeros((m, d, m, d, m, d), dtype=np.int64)
        for I in range(m):
            for J in range(m):
                C[(I + J) % m, :, I, :, J, :] = Cb if I + J < m else rCb
        self._set_tensor(C.reshape(m * d, m * d, m * d))
        self.local = False
        self.nilpotency = None

    # block i of an element vector is the base coefficient of y^i
    def _join(self, blocks) -> Vec:
        return tuple(c for blk in blocks for c in blk)

    def embed(self, x: RingElem) -> RingElem:
        if x.ring.descriptor != self.base.descriptor:
            raise RingError("embed expects a base-ring element")
        zero = self.base.zero.vec
        return RingElem(self, self._join([x.vec] + [zero] * (self.m - 1)))

    @property
    def gen(self) -> RingElem:
        zero = self.base.zero.vec
        blocks = [zero] * self.m
        blocks[1] = self.base.one.vec
        return RingElem(self, self._join(blocks))


_DESCRIPTOR_RE = re.compile(r"^(zmod|gf|trunc|ext):")


@lru_cache(maxsize=None)
def make_ring(descriptor: str) -> Ring:
    """Build a ring from its descriptor string (see module docstring)."""
    descriptor = descriptor.strip()
    if not _DESCRIPTOR_RE.match(descriptor):
        raise RingError(f"unknown ring descriptor {descriptor!r}")
    kind, rest = descriptor.split(":", 1)
    if kind == "zmod":
        mobj = re.fullmatch(r"(\d+)\^(\d+)", rest) or re.fullmatch(r"(\d+)", rest)
        if mobj is None:
            raise RingError(f"bad zmod descriptor {descriptor!r}")
        p = int(mobj.group(1))
        k = int(mobj.group(2)) if mobj.lastindex == 2 else 1
        return LocalRing(p, k, "zmod")
    if kind == "gf":
        return LocalRing(int(rest), 1, "gf")
    if kind == "trunc":
        p, k = rest.split(":")
        return LocalRing(int(p), int(k), "trunc")
    # ext:<base>:<r>:<m> -- the base descriptor may itself contain colons
    parts = rest.rsplit(":", 2)
    if len(parts) != 3:
        raise RingError(f"bad ext descriptor {descriptor!r}")
    base = make_ring(parts[0])
    r = base.parse_elem(parts[1])
    return ExtRing(base, r, int(parts[2]))


def is_unit(x: RingElem) -> bool:
    return x.ring.is_unit_vec(x.vec)


def radical_member(x: RingElem) -> bool:
    """Membership in the maximal ideal; defined only for local ring kinds."""
    if not x.ring.local:
        raise RingError(f"{x.ring.descriptor}: locality not guaranteed")
    return x.ring.radical_vec(x.vec)


def residue(x: RingElem) -> RingElem:
    """The image of x in the residue field R/J."""
    if not x.ring.local:
        raise RingError(f"{x.ring.descriptor}: locality not guaranteed")
    return x.ring.residue_vec(x.vec)


def adjoin_root(base: Ring, r: RingElem, m: int) -> tuple[ExtRing, RingElem]:
    """Return (S, s) with S = base[y]/(y^m - r) and s the adjoined root y."""
    S = ExtRing(base, r if isinstance(r, RingElem) else base.from_int(r), m)
    return S, S.gen
