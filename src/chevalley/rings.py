"""Exact arithmetic in commutative local rings with 1/2, and root-adjunction extensions.

Supported ring kinds:

* ``zmod:<p>^<k>``  -- Z/p^k with p an odd prime (local, radical (p), J^k = 0)
* ``gf:<p>``        -- the prime field F_p, p odd
* ``trunc:<p>:<k>`` -- F_p[eps]/(eps^k), p odd (local, radical (eps))
* ``ext:<base>:<r>:<m>`` -- base[y]/(y^m - r) for a unit r of the base
  (commutative with 1, generally not local)

Elements are stored as fixed-length tuples of canonical integer residues, so
equality is representational equality.  Matrices over a ring are stored as
numpy int64 stacks of shape (depth, rows, cols), one slice per coefficient
slot, and each ring supplies the kernels that multiply such stacks exactly.
"""

from __future__ import annotations

import re
from functools import cached_property, lru_cache

import numpy as np

Vec = tuple[int, ...]


class RingError(ValueError):
    """Invalid ring construction or an operation outside a ring's contract."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    # deterministic Miller-Rabin, valid far beyond any modulus used here
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


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
    """Common interface; concrete kinds fill in the vector/matrix kernels."""

    kind: str
    descriptor: str
    depth: int
    moduli: Vec
    local: bool
    nilpotency: int | None  # least k with J^k = 0 when local

    # -- element constructors -------------------------------------------------

    def elem(self, vec: Vec) -> RingElem:
        return RingElem(self, tuple(int(v) % m for v, m in zip(vec, self.moduli)))

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

    @cached_property
    def half(self) -> RingElem:
        return self.from_int(2).inv()

    def coerce(self, x) -> Vec:
        if isinstance(x, RingElem):
            if x.ring.descriptor != self.descriptor:
                raise RingError(f"element of {x.ring.descriptor} used in {self.descriptor}")
            return x.vec
        if isinstance(x, int):
            return self.from_int(x).vec
        raise RingError(f"cannot coerce {x!r}")

    # -- vector kernels (implemented per kind) --------------------------------

    def add_vec(self, a: Vec, b: Vec) -> Vec:
        return tuple((x + y) % m for x, y, m in zip(a, b, self.moduli))

    def neg_vec(self, a: Vec) -> Vec:
        return tuple((-x) % m for x, m in zip(a, self.moduli))

    def mul_vec(self, a: Vec, b: Vec) -> Vec:
        raise NotImplementedError

    def inv_vec(self, a: Vec) -> Vec:
        raise NotImplementedError

    def is_unit_vec(self, a: Vec) -> bool:
        raise NotImplementedError

    def solve(self, A: list[list[Vec]], B: list[list[Vec]]) -> list[list[Vec]]:
        """X with A X = B, by Gauss-Jordan elimination on unit pivots.

        A is n x n and B is n x k, both lists of rows of canonical vectors.
        Over a local ring this succeeds exactly when A is invertible; a column
        with no unit on or below the diagonal raises RingError.
        """
        n = len(A)
        mul, add, zero = self.mul_vec, self.add_vec, self.zero.vec
        rows = [list(a) + list(b) for a, b in zip(A, B)]
        width = len(rows[0])
        for c in range(n):
            piv = next((r for r in range(c, n) if self.is_unit_vec(rows[r][c])), None)
            if piv is None:
                raise RingError(f"no unit pivot in column {c} over {self.descriptor}")
            rows[c], rows[piv] = rows[piv], rows[c]
            top = rows[c]
            # columns up to c are final: only columns beyond c are updated
            f = self.inv_vec(top[c])
            for j in range(c + 1, width):
                if top[j] != zero:
                    top[j] = mul(f, top[j])
            for r, row in enumerate(rows):
                if r != c and row[c] != zero:
                    g = self.neg_vec(row[c])
                    for j in range(c + 1, width):
                        if top[j] != zero:
                            row[j] = add(row[j], mul(g, top[j]))
        return [row[n:] for row in rows]

    # -- matrix kernels: data is int64 of shape (depth, r, c), canonical ------

    def mat_mod(self, data: np.ndarray) -> np.ndarray:
        return data % np.asarray(self.moduli, dtype=np.int64)[:, None, None]

    def mat_mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self._conv3(a, b, lambda x, y: x @ y)

    def mat_elemmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self._conv3(a, b, lambda x, y: x * y)

    def _conv3(self, a, b, op) -> np.ndarray:
        raise NotImplementedError

    def lift_int_matrix(self, intmat: np.ndarray) -> np.ndarray:
        out = np.zeros((self.depth,) + intmat.shape, dtype=np.int64)
        out[0] = intmat
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
            return (obj % self.moduli[0],) + (0,) * (self.depth - 1)
        if isinstance(obj, (list, tuple)) and len(obj) == self.depth and all(type(c) is int for c in obj):
            return tuple(c % m for c, m in zip(obj, self.moduli))
        raise RingError(f"bad {self.descriptor} entry {obj!r}: "
                        f"expected an integer or a list of {self.depth} integers")

    # -- random sampling (tests and seeded suites) ----------------------------

    def random_element(self, rng) -> RingElem:
        return self.elem(tuple(rng.randrange(m) for m in self.moduli))

    def random_unit(self, rng) -> RingElem:
        while True:
            x = self.random_element(rng)
            if self.is_unit_vec(x.vec):
                return x

    def random_radical(self, rng) -> RingElem:
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


# int64 matrix products stay exact while n * (q - 1)^2 < 2^63; the adjoint
# modules here have n <= 248, so cap the modulus well inside that bound
_MAX_MODULUS = 50_000_000


class ModRing(Ring):
    """Z/p^k (kind 'zmod'), or its k = 1 field flavour (kind 'gf')."""

    def __init__(self, p: int, k: int, kind: str):
        if p == 2:
            raise RingError("p = 2 rejected: the ring has no 1/2")
        if not _is_prime(p):
            raise RingError(f"{p} is not prime")
        if k < 1:
            raise RingError("k >= 1 required")
        if kind == "gf" and k != 1:
            raise RingError("gf takes a single prime")
        self.p, self.k = p, k
        self.q = p**k
        if self.q > _MAX_MODULUS:
            raise RingError(f"modulus {self.q} too large for exact int64 products")
        self.kind = kind
        self.descriptor = f"gf:{p}" if kind == "gf" else f"zmod:{p}^{k}"
        self.depth = 1
        self.moduli = (self.q,)
        self.local = True
        self.nilpotency = k

    def mul_vec(self, a: Vec, b: Vec) -> Vec:
        return (a[0] * b[0] % self.q,)

    def inv_vec(self, a: Vec) -> Vec:
        if a[0] % self.p == 0:
            raise RingError(f"{a[0]} is not a unit in {self.descriptor}")
        return (pow(a[0], -1, self.q),)

    def is_unit_vec(self, a: Vec) -> bool:
        return a[0] % self.p != 0

    def radical_vec(self, a: Vec) -> bool:
        return a[0] % self.p == 0

    def mat_radical_all(self, data: np.ndarray) -> bool:
        return bool((data[0] % self.p == 0).all())

    def residue_field(self) -> Ring:
        return make_ring(f"gf:{self.p}")

    def residue_vec(self, a: Vec) -> RingElem:
        return self.residue_field().from_int(a[0])

    def _conv3(self, a, b, op):
        return op(a[0], b[0])[None, :, :] % self.q


class TruncRing(Ring):
    """F_p[eps]/(eps^k): truncated polynomials, coefficients mod p."""

    kind = "trunc"

    def __init__(self, p: int, k: int):
        if p == 2:
            raise RingError("p = 2 rejected: the ring has no 1/2")
        if not _is_prime(p):
            raise RingError(f"{p} is not prime")
        if k < 1:
            raise RingError("k >= 1 required")
        if p > _MAX_MODULUS:
            raise RingError(f"modulus {p} too large for exact int64 products")
        self.p, self.k = p, k
        self.descriptor = f"trunc:{p}:{k}"
        self.depth = k
        self.moduli = (p,) * k
        self.local = True
        self.nilpotency = k

    @property
    def eps(self) -> RingElem:
        vec = [0] * self.k
        if self.k > 1:
            vec[1] = 1
        return self.elem(tuple(vec))

    def mul_vec(self, a: Vec, b: Vec) -> Vec:
        p, k = self.p, self.k
        out = [0] * k
        for i, ai in enumerate(a):
            if ai:
                for j in range(k - i):
                    out[i + j] = (out[i + j] + ai * b[j]) % p
        return tuple(out)

    def inv_vec(self, a: Vec) -> Vec:
        if a[0] % self.p == 0:
            raise RingError(f"{a} is not a unit in {self.descriptor}")
        p, k = self.p, self.k
        b = [pow(a[0], -1, p)] + [0] * (k - 1)
        for d in range(1, k):
            acc = sum(a[i] * b[d - i] for i in range(1, d + 1)) % p
            b[d] = (-b[0] * acc) % p
        return tuple(b)

    def is_unit_vec(self, a: Vec) -> bool:
        return a[0] % self.p != 0

    def radical_vec(self, a: Vec) -> bool:
        return a[0] % self.p == 0

    def mat_radical_all(self, data: np.ndarray) -> bool:
        return bool((data[0] == 0).all())

    def residue_field(self) -> Ring:
        return make_ring(f"gf:{self.p}")

    def residue_vec(self, a: Vec) -> RingElem:
        return self.residue_field().from_int(a[0])

    def _conv3(self, a, b, op):
        k, p = self.k, self.p
        out = np.zeros((k,) + op(a[0], b[0]).shape, dtype=np.int64)
        for i in range(k):
            for j in range(k - i):
                out[i + j] += op(a[i], b[j])
                out[i + j] %= p
        return out


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
        self.descriptor = f"ext:{base.descriptor}:{base.format_elem(r)}:{m}"
        self.depth = base.depth * m
        self.moduli = base.moduli * m
        self.local = False
        self.nilpotency = None

    # block i of an element vector is the base coefficient of y^i
    def _blocks(self, a: Vec) -> list[Vec]:
        d = self.base.depth
        return [a[i * d:(i + 1) * d] for i in range(self.m)]

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

    def mul_vec(self, a: Vec, b: Vec) -> Vec:
        base, m = self.base, self.m
        ab, bb = self._blocks(a), self._blocks(b)
        out = [base.zero.vec for _ in range(m)]
        rvec = self.r.vec
        for i in range(m):
            for j in range(m):
                prod = base.mul_vec(ab[i], bb[j])
                if i + j < m:
                    out[i + j] = base.add_vec(out[i + j], prod)
                else:
                    out[i + j - m] = base.add_vec(out[i + j - m], base.mul_vec(rvec, prod))
        return self._join(out)

    def is_unit_vec(self, a: Vec) -> bool:
        try:
            self.inv_vec(a)
            return True
        except RingError:
            return False

    def inv_vec(self, a: Vec) -> Vec:
        # a x = 1 is m linear equations over the base: column j of the matrix
        # of multiplication by a holds the blocks of a y^j, and multiplying
        # by y moves each block up one place and wraps the last round by r
        base = self.base
        cols = [self._blocks(a)]
        for _ in range(self.m - 1):
            prev = cols[-1]
            cols.append([base.mul_vec(self.r.vec, prev[-1])] + prev[:-1])
        A = [list(row) for row in zip(*cols)]
        rhs = [[base.one.vec]] + [[base.zero.vec]] * (self.m - 1)
        try:
            x = base.solve(A, rhs)
        except RingError:
            raise RingError("not a unit in the extension ring") from None
        return self._join(row[0] for row in x)

    def _conv3(self, a, b, op):
        base, m, d = self.base, self.m, self.base.depth
        shape = op(a[0], b[0]).shape
        out = np.zeros((self.depth,) + shape, dtype=np.int64)
        for i in range(m):
            for j in range(m):
                prod = base._conv3(a[i * d:(i + 1) * d], b[j * d:(j + 1) * d], op)
                if i + j < m:
                    k = i + j
                    out[k * d:(k + 1) * d] += prod
                else:
                    k = i + j - m
                    out[k * d:(k + 1) * d] += _scale_stack(base, self.r.vec, prod)
        return self.mat_mod(out)


def _scale_stack(ring: Ring, svec: Vec, data: np.ndarray) -> np.ndarray:
    """Multiply a (depth, r, c) stack over `ring` by one ring scalar."""
    one = np.ones(data.shape[1:], dtype=np.int64)
    svec3 = np.stack([c * one for c in svec])
    return ring.mat_elemmul(svec3, data)


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
        return ModRing(p, k, "zmod")
    if kind == "gf":
        return ModRing(int(rest), 1, "gf")
    if kind == "trunc":
        p, k = rest.split(":")
        return TruncRing(int(p), int(k))
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
