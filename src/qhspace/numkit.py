"""Dense complex linear-algebra kernel shared by every other module.

All morphisms are plain ``numpy`` arrays of ``complex128``.  Three pieces of
policy live here.  One is the deterministic phase convention for computed
bases: every downstream structure constant depends on the basis choice, so it
has to be canonical and reproducible bit-for-bit.  Another is the budget
``RUN_ENTRIES`` of the kernels that work in runs: a run's live entries
together stay within it.  The third is the rule for NaN and inf: a residual
carries them (``largest`` and ``max_residual`` keep a NaN that ``max`` would
drop), so the check that reads one fails with the value NaN, not an error.
"""

from __future__ import annotations

import numpy as np

DEFAULT_TOL = 1e-9

# the module builds, the cocycle and triple coherence checks and the intertwiner average work in runs: a
# run's live entries together stay within this many complex entries (an int64 or a float64 counts half)
RUN_ENTRIES = 1 << 15


class NumericalRankError(ValueError):
    """A singular value, residual or eigenvalue gap lies within a factor 10 of its cut (``above``)."""


def kron(a, b) -> np.ndarray:
    """Kronecker product of two complex matrices, with the (i, j) -> i*dim(b)+j index convention."""
    return np.kron(np.asarray(a, dtype=np.complex128), np.asarray(b, dtype=np.complex128))


def dagger(a) -> np.ndarray:
    return np.conj(np.asarray(a)).T


def block_offsets(sizes) -> np.ndarray:
    """Start of each block in a concatenation of blocks of the given sizes; the last entry is the total.

    An n-d array of sizes gives one offset vector per position of its
    leading axes, over the last axis.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    out = np.zeros(sizes.shape[:-1] + (sizes.shape[-1] + 1,), dtype=np.int64)
    np.cumsum(sizes, axis=-1, out=out[..., 1:])
    return out


def successors(src: np.ndarray, n_nodes: int):
    """The join of paths with the edges leaving their end, for edges given by their source nodes ``src``.

    ``successors(src, n_nodes)(ends)`` pairs each path ending at node ends[i] with every edge leaving
    it: (path index, edge index) arrays, grouped by path in edge order.  The edges are sorted once.
    """
    order = np.argsort(src, kind="stable")
    count = np.bincount(src, minlength=n_nodes)
    start = np.cumsum(count) - count
    def join(ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        per_path = count[ends]
        path = np.repeat(np.arange(len(ends)), per_path)
        offset = np.arange(len(path)) - np.repeat(np.cumsum(per_path) - per_path, per_path)
        return path, order[start[ends][path] + offset]
    return join


def stack_by_shape(blocks: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Regroup stacks of matrices into one stack per matrix shape.

    ``blocks`` is a list of (n_i, ...) arrays.  Returns (kind, pos, stacks):
    the j-th matrix of the concatenated blocks is ``stacks[kind[j]][pos[j]]``,
    and each stack keeps the order of the concatenation.
    """
    shapes: dict[tuple[int, ...], int] = {}
    block_kind = [shapes.setdefault(blk.shape[1:], len(shapes)) for blk in blocks]
    groups: list[list[np.ndarray]] = [[] for _ in shapes]
    for blk, k in zip(blocks, block_kind):
        groups[k].append(blk)
    kind = np.repeat(np.array(block_kind, dtype=np.int64), [len(blk) for blk in blocks])
    count = np.bincount(kind, minlength=len(shapes))
    order = np.argsort(kind, kind="stable")
    pos = np.empty_like(kind)
    pos[order] = np.arange(len(kind)) - np.repeat(np.cumsum(count) - count, count)
    return kind, pos, [np.concatenate(g) for g in groups]


def phase_fix(v: np.ndarray) -> np.ndarray:
    """Rotate a vector so its largest-modulus coordinate is real positive.

    Ties are broken by lowest index.  Zero vectors are returned unchanged.
    """
    flat = v.ravel()
    mags = np.abs(flat)
    j = int(np.argmax(mags))
    if mags[j] == 0.0:
        return v
    # rotate by the argument rather than dividing by the modulus: the
    # division overflows for subnormal coordinates
    phase = np.exp(-1j * np.angle(flat[j]))
    w = v * phase
    out = np.abs(w.ravel())
    if int(np.argmax(out)) != j:
        # rounding in the rotation lifted a near-tied coordinate to the top;
        # pin the pivot above it so the pivot stays the argmax and a second
        # call is the identity
        top = out.max()
        w.ravel()[j] = top if out[:j].max(initial=0.0) < top else np.nextafter(top, np.inf)
    return w


def above(values, cut: float, what: str) -> np.ndarray:
    """``values > cut``; a value within a factor 10 of ``cut`` raises ``NumericalRankError`` naming ``what``."""
    values = np.asarray(values)
    near = values[(values > cut / 10.0) & (values < cut * 10.0)]
    if near.size:
        raise NumericalRankError(f"{what} {near} cluster at threshold {cut:.3e}")
    return ~(values <= cut)  # a NaN is above every cut, so it is never taken for zero


def solution_basis(constraint, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the kernel of a constraint matrix, as the rows of a (k, dim) array.

    ``constraint`` is an (m, dim) matrix whose rows are the linear
    constraints on C^dim; stack several constraint sets with ``np.vstack``.
    A matrix with no rows yields the standard basis.  Rank is decided by
    ``above`` at ``tol`` times the largest singular value.
    """
    stacked = np.asarray(constraint, dtype=np.complex128)
    dim = stacked.shape[1]
    if not stacked.shape[0]:
        return np.eye(dim, dtype=np.complex128)

    # the full SVD stays: the one pipeline caller passes a square matrix, for
    # which the reduced SVD saves nothing; a tall matrix pays for a U that is
    # never read, but the reduced SVD would move the last bits of its kernel
    _, svals, vh = np.linalg.svd(stacked)
    # floor the cutoff at tol itself so an all-zero constraint matrix is
    # recognized as rank 0 instead of rank decided by roundoff noise
    rank = int(np.sum(above(svals, tol * max(1.0, svals[0]), "singular values"))) if svals.size else 0
    kernel = vh[rank:, :].conj()  # rows span the kernel
    return np.array([phase_fix(row) for row in kernel], dtype=np.complex128).reshape(len(kernel), dim)


def largest(values) -> float:
    """The largest of some residuals, 0.0 for none, NaN if any is NaN (``max`` would drop it)."""
    return float(np.max(np.asarray(values, dtype=np.float64), initial=0.0))


def max_residual(a, b) -> float:
    """Max-norm distance between two arrays (broadcast-compatible)."""
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)))) if np.asarray(a).size else 0.0
