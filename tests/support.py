"""Builders, transforms, readers and assertions that only the tests use; no pipeline stage calls them."""

import tracemalloc
from dataclasses import replace
from itertools import product

import numpy as np

from qhspace.grouprep import FiniteGroup, UnitaryRep
from qhspace.modcat import BigradedFunctor, ModuleDataError, _assemble
from qhspace.numkit import DEFAULT_TOL, block_offsets, dagger, max_residual
from qhspace.project_io import decode_array
from qhspace.reconstruct import ModuleMorphism, ReconstructionError
from qhspace.tensorcat import CategoryPresentation


def trivial_rep(group: FiniteGroup) -> UnitaryRep:
    return UnitaryRep(group, np.ones((group.order, 1, 1), dtype=np.complex128))


def regular_rep(group: FiniteGroup) -> UnitaryRep:
    n = group.order
    mats = np.zeros((n, n, n), dtype=np.complex128)
    idx = np.arange(n)
    mats[idx[:, None], group.mult_table, idx[None, :]] = 1.0  # g sends h to gh
    return UnitaryRep(group, mats)


def with_rescaled_conjugates(cat: CategoryPresentation, scale: complex) -> CategoryPresentation:
    """Copy with every conjugate pair (R, Rbar) -> (s R, conj(s)^-1 Rbar)."""
    s = complex(scale)
    if s == 0:
        raise ValueError("conjugate rescaling must be nonzero")
    new_conj = {
        a: (s * r, (1.0 / np.conj(s)) * rbar) for a, (r, rbar) in cat.conj_solutions.items()
    }
    return replace(cat, conj_solutions=new_conj)


def disjoint_union_module(f1: BigradedFunctor, f2: BigradedFunctor) -> BigradedFunctor:
    """Disjoint union of two modules over the same category.

    Legal module data whose base graph is disconnected; used to exercise the
    connectedness diagnostic.  The base labels of ``f2`` follow those of
    ``f1``, so every table is the block-diagonal concatenation of the two.
    """
    if f1.cat is not f2.cat:
        raise ModuleDataError("disjoint union needs modules over the same category")
    cut = f1.n_base
    bases = dict(f1.bases)
    bases.update({(a, r + cut, s + cut): v for (a, r, s), v in f2.bases.items()})
    width = max(f1.phase.shape[3], f2.phase.shape[3])
    phase = np.ones((*f1.phase.shape[:2], cut + f2.n_base, width), dtype=np.complex128)
    phase[:, :, :cut, : f1.phase.shape[3]] = f1.phase
    phase[:, :, cut:, : f2.phase.shape[3]] = f2.phase
    return _assemble(f1.cat, f"{f1.name}+{f2.name}", f1.base_dims + f2.base_dims, bases,
                     f1.handle, f1.fuse, phase)


def _block_diag(blocks: list[np.ndarray]) -> np.ndarray:
    off = block_offsets([len(blk) for blk in blocks])
    out = np.zeros((off[-1], off[-1]), dtype=np.complex128)
    for blk, lo, hi in zip(blocks, off[:-1], off[1:]):
        out[lo:hi, lo:hi] = blk
    return out


def gauge_transform(mor: ModuleMorphism,
                    unitaries: dict[tuple[int, int], np.ndarray]) -> ModuleMorphism:
    """Change the multiplicity-space bases by block unitaries.

    ``unitaries[(p, r)]`` rotates the (p, r) multiplicity space and must be a
    (fdims[p, r], fdims[p, r]) unitary; missing blocks default to the
    identity.  The block at the two distinguished bases must stay the
    identity so the normalization vector is preserved.  Each exchange block
    psi[(a, p, r)] becomes R^dagger psi C, with R block-diagonal over the
    target labels q (blocks I (x) U[(q, r)]) and C over the source labels s
    (blocks U[(p, s)] (x) I).
    """
    for key, u in unitaries.items():
        d = int(mor.fdims[key])
        if np.shape(u) != (d, d):
            raise ReconstructionError(f"gauge block {key} has shape {np.shape(u)}, not ({d}, {d})")
        if max_residual(dagger(u) @ u, np.eye(d)) > DEFAULT_TOL:
            raise ReconstructionError(f"gauge block {key} is not unitary")
    key0 = (mor.y_base, mor.x_base)
    if key0 in unitaries and max_residual(unitaries[key0], np.eye(int(mor.fdims[key0]))) > 0:
        raise ReconstructionError("gauge must fix the distinguished multiplicity vector")

    def u(p, r):
        d = int(mor.fdims[p, r])
        return np.asarray(unitaries.get((p, r), np.eye(d)), dtype=np.complex128)

    fx, fy = mor.source, mor.target
    new_psi = {}
    for (a, p, r), blk in mor.psi.items():
        row_t = _block_diag([np.kron(np.eye(fy.dims[a, p, q]), u(q, r)) for q in range(fy.n_base)])
        col_t = _block_diag([np.kron(u(p, s), np.eye(fx.dims[a, s, r])) for s in range(fx.n_base)])
        new_psi[(a, p, r)] = dagger(row_t) @ blk @ col_t
    return ModuleMorphism(fx, fy, mor.fdims.copy(), new_psi, mor.x_base, mor.y_base)


def random_gauge(mor: ModuleMorphism, seed: int) -> dict[tuple[int, int], np.ndarray]:
    """A random unitary on every nonzero multiplicity space but the distinguished one."""
    rng = np.random.default_rng(seed)
    unitaries = {}
    for (p, r), d in np.ndenumerate(mor.fdims):
        if (p, r) != (mor.y_base, mor.x_base) and d:
            z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            unitaries[(p, r)] = np.linalg.qr(z)[0]
    return unitaries


def algebra_from_dict(d: dict) -> dict:
    n = len(d["basis"])
    t = np.zeros((n, n, n), dtype=np.complex128)
    for p, q, r, pair in d["structure_constants"]:
        t[p, q, r] = complex(pair[0], pair[1])
    return {
        "basis": [tuple(b) for b in d["basis"]],
        "grading": list(d["grading"]),
        "unit_index": int(d["unit_index"]),
        "tensor": t,
        "star_matrix": decode_array(d["star_matrix"]),
    }


def _cuts(off) -> list[slice]:
    return [slice(lo, hi) for lo, hi in zip(off[:-1].tolist(), off[1:].tolist())]


def dense_tensor(blocks: dict, off: np.ndarray) -> np.ndarray:
    """The (n, n, n) tensor whose blocks, cut at ``off`` on every axis, are ``blocks``, and zero elsewhere."""
    cut, n = _cuts(off), int(off[-1])
    t = np.zeros((n, n, n), dtype=np.complex128)
    for (i, j, k), blk in blocks.items():
        t[cut[i], cut[j], cut[k]] = blk
    return t


def corner_blocks(t: np.ndarray, off: np.ndarray) -> dict:
    """The blocks of t, cut at ``off`` on every axis, that have a nonzero entry; NaN and inf count as nonzero."""
    cut = _cuts(off)
    blocks = {(i, j, k): t[cut[i], cut[j], cut[k]] for i, j, k in product(range(len(cut)), repeat=3)}
    return {key: blk for key, blk in blocks.items() if blk.any()}


# the size of the faults the tests inject, and the least residual that catches one
EPS = 1e-3


def traced_peak(fn, *args):
    """``fn(*args)`` and the tracemalloc peak, in bytes, reached while it ran."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def assert_caught(clean, bad, check, unchanged=(), failing=None):
    """``clean`` passes and ``bad`` fails ``check`` with a value of at least ``EPS``.

    Each check named in ``unchanged`` keeps its clean verdict and value.  When
    ``failing`` is given, it is the exact set of checks that ``bad`` fails.
    """
    before = {c.name: c for c in clean.checks}
    after = {c.name: c for c in bad.checks}
    assert clean.passed, clean.to_text()
    assert not after[check].passed and after[check].value >= EPS, after[check]
    for name in unchanged:
        assert after[name] == before[name], name
    if failing is not None:
        assert {c.name for c in bad.checks if not c.passed} == set(failing), bad.to_text()
