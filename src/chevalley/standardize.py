"""Normalizer linearization and standardness certificates.

The linearized system collects, for every generator block e in
{a_1..a_l, -a_1..-a_l}, the n^2 scalar equations

    Z x_e(1) - x_e(1) (Z + sum_i a_i T_i + sum_b b_b X_b + sum_b c_b X_{-b}) = 0

over the residue field, with the n + 1 designated cells of Z frozen to zero
and each block's own-root unipotent coefficient omitted (it is absorbed by
the x_e(1) factor).  A trivial kernel pins the normalizer down to the group
itself, which the certificate pipeline then witnesses element by element.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decompose import RecoveryError, designated_positions, gauge_normal_form
from .group import GroupElement, congruence_member, graph_matrix, word_to_matrix, x_elem
from .lie import ad_x, ad_x_squared, structure_constants, t_matrix
from .rings import RingError
from .roots import RootSystem, neg


@dataclass(frozen=True)
class LinSystem:
    system: str
    p: int
    matrix: np.ndarray          # equations x unknowns, entries mod p
    z_unknowns: int
    abc_unknowns: int
    blocks: tuple[tuple[int, ...], ...]
    control: bool = False

    @property
    def unknowns(self) -> int:
        return self.z_unknowns + self.abc_unknowns

    @property
    def equations(self) -> int:
        return self.matrix.shape[0]


def _x_unit_int(sys: RootSystem, r) -> np.ndarray:
    N = structure_constants(sys)
    X2 = ad_x_squared(sys, N, r)
    if (X2 % 2).any():
        raise ArithmeticError(f"(ad x_{r})^2 has an odd entry: x_{r}(1) is not integral")
    return np.eye(sys.n, dtype=np.int64) + ad_x(sys, N, r) + X2 // 2


def _z_block(sys: RootSystem, xe: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Coefficients of vec(Z xe - xe Z) on the kept z-cells (row-major vec)."""
    n = sys.n
    eye = np.eye(n, dtype=np.int64)
    # vec(A Z B) = (A kron B^T) vec(Z) for row-major vec
    M = np.kron(eye, xe.T) - np.kron(xe, eye)
    return M[:, keep]


def build_linearized_system(sys: RootSystem, p: int) -> LinSystem:
    """Blocks for the simple roots and their negatives, with designated zeros."""
    table = designated_positions(sys)
    n = sys.n
    zeros = table.cell_set()
    keep = np.array([i * n + j for i in range(n) for j in range(n) if (i, j) not in zeros])
    z_cols = len(keep)

    blocks = [s for s in sys.simple] + [neg(s) for s in sys.simple]
    per_block_mats = []
    for e in blocks:
        mats = [t_matrix(sys, i) for i in range(sys.rank)]
        N = structure_constants(sys)
        for r in sys.positive:
            if r != e:
                mats.append(ad_x(sys, N, r))
        for r in sys.positive:
            if neg(r) != e:
                mats.append(ad_x(sys, N, neg(r)))
        per_block_mats.append(mats)

    abc_cols = sum(len(m) for m in per_block_mats)
    rows = 2 * sys.rank * n * n
    A = np.zeros((rows, z_cols + abc_cols), dtype=np.int64)
    off = z_cols
    for bi, e in enumerate(blocks):
        xe = _x_unit_int(sys, e)
        sl = slice(bi * n * n, (bi + 1) * n * n)
        A[sl, :z_cols] = _z_block(sys, xe, keep)
        for k, M in enumerate(per_block_mats[bi]):
            A[sl, off + k] = -(xe @ M).reshape(-1)
        off += len(per_block_mats[bi])
    return LinSystem(
        system=sys.name,
        p=p,
        matrix=A % p,
        z_unknowns=z_cols,
        abc_unknowns=abc_cols,
        blocks=tuple(tuple(e) for e in blocks),
    )


def build_commutation_system(sys: RootSystem, p: int) -> LinSystem:
    """Control system: plain commutation with every x_alpha(1), no frozen cells."""
    n = sys.n
    keep = np.arange(n * n)
    rows = []
    for r in sys.roots:
        rows.append(_z_block(sys, _x_unit_int(sys, r), keep))
    return LinSystem(
        system=sys.name,
        p=p,
        matrix=np.vstack(rows) % p,
        z_unknowns=n * n,
        abc_unknowns=0,
        blocks=tuple(tuple(r) for r in sys.roots),
        control=True,
    )


def rank_mod_p(matrix: np.ndarray, p: int) -> int:
    """Row-echelon rank over F_p; first nonzero in row-major order pivots."""
    A = (matrix % p).astype(np.int64, copy=True)
    rows, cols = A.shape
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if A[i, c]:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            A[[r, piv]] = A[[piv, r]]
        A[r] = A[r] * pow(int(A[r, c]), -1, p) % p
        colv = A[r + 1:, c]
        mask = colv != 0
        if mask.any():
            A[r + 1:][mask] = (A[r + 1:][mask] - np.outer(colv[mask], A[r])) % p
        r += 1
        if r == rows:
            break
    return r


def kernel_dimension(lin: LinSystem) -> int:
    return lin.unknowns - rank_mod_p(lin.matrix, lin.p)


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


def conjugation_defect(sys: RootSystem, C: GroupElement, alpha) -> tuple[GroupElement, bool]:
    """g_a with C x_a(1) C^{-1} = x_a(1) g_a, and whether g_a = I mod radical."""
    ring = C.ring
    one = ring.one
    xa = x_elem(sys, ring, tuple(alpha), one)
    g = xa.inverse() @ C @ xa @ C.inverse()
    return g, congruence_member(g)


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
    with C' congruent to the identity.  The residue-field factorization
    itself is out of scope here and must come from the caller.
    """
    ring = C.ring
    if not ring.local:
        raise RingError("certificates need a local base ring")
    work = C
    if delta is not None or residue_word is not None:
        g_prime = word_to_matrix(sys, ring, residue_word or ())
        a_delta = graph_matrix(sys, ring, delta or "identity")
        lifted = GroupElement(sys, ring, g_prime, None)
        work = lifted.inverse() @ a_delta.inverse() @ C
    if not congruence_member(work):
        return Certificate(
            verdict="nonstandard-or-outside-scope",
            delta=delta,
            d_word=None,
            residual_zero=False,
        )
    try:
        D, resid = gauge_normal_form(sys, work)
    except RecoveryError:
        return Certificate(
            verdict="nonstandard-or-outside-scope",
            delta=delta,
            d_word=None,
            residual_zero=False,
        )
    ok = resid.is_identity()
    return Certificate(
        verdict="standard" if ok else "nonstandard-or-outside-scope",
        delta=delta,
        d_word=D.word_to_json() if ok else None,
        residual_zero=ok,
    )
