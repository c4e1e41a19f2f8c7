from dataclasses import replace

import numpy as np
import pytest

from qhspace.grouprep import Subgroup, cyclic_group, extract_irreps
from qhspace import tensorcat
from qhspace.modcat import (
    CocycleError,
    ModuleDataError,
    disjoint_union_module,
    equivalence_check,
    functor_dimension_matrix,
    module_from_pointed,
    module_from_subgroup,
    validate_module,
)
from qhspace.modcat import _triple_coherence_residual
from qhspace.numkit import dagger, kron, max_residual
from qhspace.reconstruct import ReconstructionError, restriction_morphism


def test_all_s3_modules_validate(s3_modules):
    for name, f in s3_modules.items():
        cert = validate_module(f)
        assert cert.passed, f"{name}: {cert.to_text()}"


def test_s3_order2_multiplicity_matrices(s3_cat, s3_modules):
    f = s3_modules["order2"]
    two = [a for a in s3_cat.labels if s3_cat.dim(a) == 2][0]
    assert f.dims[two].tolist() == [[1, 1], [1, 1]]
    assert np.array_equal(f.dims[0], np.eye(2, dtype=np.int64))


def test_module_over_itself_base_count(s3_modules):
    # H = G: base labels are the irreducibles of the category itself
    assert s3_modules["full"].n_base == 3


def test_pointed_module_validates(z4_pointed_module, z4_coset_module):
    assert validate_module(z4_pointed_module).passed
    assert validate_module(z4_coset_module).passed


def test_pointed_module_dims_are_permutations(z4_pointed_module):
    for a in range(4):
        m = z4_pointed_module.dims[a]
        assert equivalence_check(m)


def test_pointed_cochain_coboundary_checked(z4_pointed_cat, z4):
    # nontrivial cocycle restricted to the subgroup <2> admits no cochain;
    # the message names the first failing (k,l,m) in lexicographic order
    with pytest.raises(CocycleError, match=r"at \(2,2,2\)$"):
        module_from_pointed(z4_pointed_cat, Subgroup.generated(z4, [2]))
    z8_cat = tensorcat.from_pointed(tensorcat.standard_cyclic_cocycle(8))
    with pytest.raises(CocycleError, match=r"at \(2,2,6\)$"):
        module_from_pointed(z8_cat, Subgroup.generated(cyclic_group(8), [2]))


def test_mismatched_backend_rejected(s3_cat, z4):
    with pytest.raises(ModuleDataError):
        module_from_subgroup(s3_cat, Subgroup.generated(z4, []))


def test_disjoint_union_is_disconnected(z4_coset_module):
    fu = disjoint_union_module(z4_coset_module, z4_coset_module)
    strict = validate_module(fu)
    assert not strict.passed
    assert [c.name for c in strict.checks if not c.passed] == ["connectedness"]
    waived = validate_module(fu, require_connected=False)
    assert waived.passed


def test_disjoint_union_is_block_diagonal(s3_modules, z4_pointed_module, z4_coset_module):
    for f in (z4_pointed_module, z4_coset_module, s3_modules["order2"]):
        fu = disjoint_union_module(f, f)
        j = f.n_base
        for a in f.cat.labels:
            want = np.zeros((2 * j, 2 * j), dtype=np.int64)
            want[:j, :j] = want[j:, j:] = f.dims[a]
            assert np.array_equal(fu.dims[a], want)
        assert len(fu.coherence) == 2 * len(f.coherence)
        for (a, b, r, t), blocks in f.coherence.items():
            for shift in (0, j):
                got = fu.coherence[(a, b, r + shift, t + shift)]
                assert got.keys() == blocks.keys()
                for c in blocks:
                    assert np.array_equal(got[c], blocks[c])


def test_perturbed_copy_fails_and_original_passes(s3_modules):
    f = s3_modules["order2"]
    key = max(f.coherence, key=lambda k: sum(arr.size for arr in f.coherence[k].values()))
    bad = {c: arr.copy() for c, arr in f.coherence[key].items()}
    next(arr for arr in bad.values() if arr.size).flat[0] += 1e-3
    g = replace(f, coherence={**f.coherence, key: bad})
    cert = validate_module(g)
    assert [c.name for c in cert.checks if not c.passed] == ["coherence_unitarity"]
    assert validate_module(f).passed


def test_restriction_of_coset_module_refused(z4_coset_module, z4_pointed_module):
    with pytest.raises(ReconstructionError, match="subgroup-backed"):
        restriction_morphism(z4_coset_module, z4_coset_module)
    with pytest.raises(ReconstructionError, match="subgroup-backed"):
        restriction_morphism(z4_pointed_module, z4_pointed_module)


def test_morphism_bases_are_isometries(s3_modules):
    f = s3_modules["order2"]
    for a in f.cat.labels:
        for r in range(f.n_base):
            for s in range(f.n_base):
                for t in f.mor_basis(a, r, s):
                    assert max_residual(dagger(t) @ t, np.eye(f.base_dims[r])) < 1e-12


def test_unit_basis_bitwise_identity(s3_modules, z4_coset_module):
    for f in (s3_modules["order2"], z4_coset_module):
        for r in range(f.n_base):
            assert np.array_equal(f.mor_basis(0, r, r)[0], np.eye(f.base_dims[r]))


def test_coherence_unitary(s3_modules):
    f = s3_modules["order2"]
    for blocks in f.coherence.values():
        u = np.vstack([blocks[c].reshape(-1, blocks[c].shape[2]) for c in sorted(blocks)])
        assert u.shape[1] and max_residual(dagger(u) @ u, np.eye(u.shape[1])) < 1e-12


def test_functor_dimension_matrix_identity(s3_table):
    m = functor_dimension_matrix(s3_table, list(s3_table.irreps))
    assert equivalence_check(m)
    assert np.array_equal(m, np.eye(3, dtype=np.int64))


def test_functor_dimension_matrix_restriction(s3_table, s3_subgroups):
    from qhspace.grouprep import UnitaryRep, restrict

    sub = s3_subgroups["order2"]
    h_table = extract_irreps(sub.as_group, seed=0)
    images = [restrict(r, sub) for r in s3_table.irreps]
    m = functor_dimension_matrix(h_table, images)
    # each column decomposes an S3 irrep over the two Z2 characters
    assert m.sum(axis=0).tolist() == [1, 1, 2]
    assert not equivalence_check(m)


def test_frobenius_dims_symmetry(s3_modules, z4_pointed_module):
    for f in (s3_modules["order2"], z4_pointed_module):
        cat = f.cat
        for a in cat.labels:
            abar = cat.dual_map[a]
            assert np.array_equal(f.dims[a], f.dims[abar].T)


def _flipped_z4_module(z4):
    """Z4 standard cocycle, trivial K, built after flipping cocycle[1, 2, 2].

    A fresh category: the flip would leak into the session fixtures.
    """
    cat = tensorcat.from_pointed(tensorcat.standard_cyclic_cocycle(4))
    assert abs(cat.pointed.cocycle[1, 2, 2] - 1j) < 1e-12
    cat.pointed.cocycle[1, 2, 2] *= -1
    return module_from_pointed(cat, Subgroup.generated(z4, []))


def test_triple_coherence_catches_flipped_cocycle(z4_pointed_module, z4):
    assert validate_module(z4_pointed_module).passed
    cert = validate_module(_flipped_z4_module(z4))
    assert [c.name for c in cert.checks if not c.passed] == ["triple_coherence"]
    check = next(c for c in cert.checks if c.name == "triple_coherence")
    assert check.value == pytest.approx(2.0, abs=1e-9)


def test_triple_coherence_residual_small(s3_modules, z4_pointed_module, z4_coset_module):
    for f in (*s3_modules.values(), z4_pointed_module, z4_coset_module):
        check = next(c for c in validate_module(f).checks if c.name == "triple_coherence")
        assert check.passed and check.value < 1e-12, f.name


def _assoc_diag(f, h1, h2, r, fibre):
    """The module associator diagonal, read from the phase table."""
    return np.tile(f.phase[h1, h2, r, :f.base_dims[r]], fibre)


def _coherence_loop(f, a, b, r, t):
    """Column-by-column form of ``modcat._coherence``: the reference."""
    cat = f.cat
    cols = f.columns(a, b, r, t)
    phi_conj = np.conj(_assoc_diag(f, f.handle[a], f.handle[b], t, cat.dim(a) * cat.dim(b)))
    eye_a = np.eye(cat.dim(a), dtype=np.complex128)
    eye_t = np.eye(f.base_dims[t], dtype=np.complex128)
    composites = [
        phi_conj[:, None] * (kron(eye_a, f.mor_basis(b, s, t)[n]) @ f.mor_basis(a, r, s)[m])
        for s, m, n in cols
    ]
    out = {}
    for c in cat.channels(a, b):
        tcs = f.mor_basis(c, r, t)
        arr = np.zeros((cat.mult(a, b, c), len(tcs), len(cols)), dtype=np.complex128)
        for k, iota in enumerate(cat.isometries(a, b, c)):
            proj_map = kron(dagger(iota), eye_t)
            for col, comp in enumerate(composites):
                proj = proj_map @ comp
                for p, tc in enumerate(tcs):
                    arr[k, p, col] = np.trace(dagger(tc) @ proj) / f.base_dims[r]
        out[c] = arr
    return out


def _triple_loop(f):
    """Chain-by-chain form of ``_triple_coherence_residual``: the reference."""
    cat = f.cat
    worst = 0.0
    for a in cat.labels:
        for b in cat.labels:
            for c in cat.labels:
                ha, hb, hc = f.handle[a], f.handle[b], f.handle[c]
                hab, hbc = f.fuse[ha, hb], f.fuse[hb, hc]
                da, db, dc = cat.dim(a), cat.dim(b), cat.dim(c)
                eye_a = np.eye(cat.dim(a), dtype=np.complex128)
                eye_b = np.eye(cat.dim(b), dtype=np.complex128)
                eye_ab = np.eye(cat.dim(a) * cat.dim(b), dtype=np.complex128)
                for r in range(f.n_base):
                    for s in range(f.n_base):
                        for t in range(f.n_base):
                            for w in range(f.n_base):
                                for ta in f.mor_basis(a, r, s):
                                    for tb in f.mor_basis(b, s, t):
                                        for tc in f.mor_basis(c, t, w):
                                            two = np.conj(_assoc_diag(f, ha, hb, t, da * db))[:, None] * (
                                                kron(eye_a, tb) @ ta)
                                            left = np.conj(_assoc_diag(f, hab, hc, w, da * db * dc))[:, None] * (
                                                kron(eye_ab, tc) @ two)
                                            inner = np.conj(_assoc_diag(f, hb, hc, w, db * dc))[:, None] * (
                                                kron(eye_b, tc) @ tb)
                                            right = np.conj(_assoc_diag(f, ha, hbc, w, da * db * dc))[:, None] * (
                                                kron(eye_a, inner) @ ta)
                                            right = np.conj(cat.assoc_scalar(a, b, c)) * right
                                            worst = max(worst, max_residual(left, right))
    return worst


def test_coherence_matches_column_loop(s3_modules, z4_pointed_module, z4_coset_module):
    # the batched form does the same products in the same order: equal bits
    for f in (s3_modules["order2"], s3_modules["full"], z4_pointed_module, z4_coset_module):
        labels, bases = f.cat.labels, range(f.n_base)
        linked = [(a, b, r, t) for a in labels for b in labels for r in bases for t in bases
                  if f.columns(a, b, r, t)]
        assert sorted(f.coherence) == linked
        for key in linked:
            got, want = f.coherence[key], _coherence_loop(f, *key)
            assert got.keys() == want.keys()
            for c in want:
                assert np.array_equal(got[c], want[c]), (f.name, key, c)


def test_triple_coherence_matches_chain_loop(s3_modules, z4_pointed_module, z4_coset_module, z4):
    # einsum sums in another order: residuals agree to a few units of roundoff
    flipped = _flipped_z4_module(z4)
    for f in (*s3_modules.values(), z4_pointed_module, z4_coset_module, flipped):
        assert abs(_triple_coherence_residual(f) - _triple_loop(f)) < 1e-14, f.name
