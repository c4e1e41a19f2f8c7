import re
import os
import subprocess
import sys
from dataclasses import replace
from itertools import combinations_with_replacement, permutations

import numpy as np
import pytest

import qhspace
from qhspace.grouprep import (Subgroup, cyclic_group, dihedral_group, extract_irreps, group_from_permutations,
                              symmetric_group)
from qhspace import grouprep, tensorcat
from qhspace.modcat import (
    CocycleError,
    ModuleDataError,
    module_from_pointed,
    module_from_subgroup,
    validate_module,
)
from qhspace import modcat
from qhspace.modcat import _assemble, _triple_coherence_residual
from qhspace.numkit import DEFAULT_TOL, block_offsets, dagger, kron, max_residual, successors
from qhspace.reconstruct import (ReconstructionError, build_algebra, build_bimodule, classical_roundtrip,
                                 restriction_morphism)
from qhspace.verify import run_suite

from support import EPS, assert_caught, disjoint_union_module, traced_peak
from test_grouprep import _quaternion_group


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
        assert m.shape == (4, 4) and set(m.ravel().tolist()) <= {0, 1}
        assert m.sum(axis=0).tolist() == m.sum(axis=1).tolist() == [1] * 4


def test_pointed_cochain_coboundary_checked(z4_pointed_cat, z4):
    # nontrivial cocycle restricted to the subgroup <2> admits no cochain;
    # the message names the first failing (k,l,m) in lexicographic order
    with pytest.raises(CocycleError, match=r"at \(2,2,2\)$"):
        module_from_pointed(z4_pointed_cat, Subgroup.generated(z4, [2]))
    z8_cat = tensorcat.from_pointed(tensorcat.standard_cyclic_cocycle(8))
    with pytest.raises(CocycleError, match=r"at \(2,2,6\)$"):
        module_from_pointed(z8_cat, Subgroup.generated(cyclic_group(8), [2]))


def test_pointed_cochain_with_a_nan_entry_is_refused(z4_trivial_pointed_cat, z4):
    mu = np.ones((2, 2), dtype=np.complex128)
    mu[1, 1] = np.nan
    with pytest.raises(ModuleDataError, match="unit modulus"):
        module_from_pointed(z4_trivial_pointed_cat, Subgroup.generated(z4, [2]), mu=mu)


def test_mismatched_backend_rejected(s3_cat, z4):
    with pytest.raises(ModuleDataError):
        module_from_subgroup(s3_cat, Subgroup.generated(z4, []))


def test_irrep_table_of_another_group_rejected(s3_cat, s3_subgroups):
    order2, order3 = s3_subgroups["order2"], s3_subgroups["order3"]
    with pytest.raises(ModuleDataError, match="irrep table is not on the subgroup's group"):
        module_from_subgroup(s3_cat, order2, extract_irreps(order3.as_group, seed=0))
    # an equal table built afresh on the subgroup's group is taken, and gives the default module's bases
    given = module_from_subgroup(s3_cat, order2, extract_irreps(Subgroup(order2.parent, order2.elements).as_group))
    default = module_from_subgroup(s3_cat, order2)
    assert given.bases.keys() == default.bases.keys()
    assert all(given.bases[k].tobytes() == default.bases[k].tobytes() for k in default.bases)


def _count_solves(monkeypatch, drop: int = 0) -> list:
    """Record every call of ``grouprep.intertwiner_basis``, which each returns short of its last ``drop`` vectors."""
    calls, solve = [], grouprep.intertwiner_basis

    def counting(u, v, tol):
        calls.append((u, v))
        basis = solve(u, v, tol)
        return basis[:len(basis) - drop]

    monkeypatch.setattr(grouprep, "intertwiner_basis", counting)
    return calls


def test_subgroup_module_solves_only_the_nonzero_blocks(s4_over_s3, monkeypatch):
    # given the subgroup's table, no extraction runs: one solve per nonzero block, where solving
    # every (a, r, s) with a != 0 would take 36 and 32
    d24 = dihedral_group(12)
    flip = Subgroup.generated(d24, [12])
    cases = [(s4_over_s3.cat, s4_over_s3.subgroup, s4_over_s3.irrep_table, 22),
             (tensorcat.from_group(extract_irreps(d24, seed=0)), flip, extract_irreps(flip.as_group, seed=0), 26)]
    calls = _count_solves(monkeypatch)
    for cat, sub, table, solved in cases:
        calls.clear()
        mod = module_from_subgroup(cat, sub, table)
        assert len(calls) == np.count_nonzero(mod.dims[1:]) == solved


def test_restriction_morphism_solves_only_the_nonzero_pairs(s3_modules, monkeypatch):
    calls = _count_solves(monkeypatch)
    mor = restriction_morphism(s3_modules["full"], s3_modules["order2"])
    assert len(calls) == np.count_nonzero(mor.fdims) == 4 < mor.fdims.size


def test_a_short_solved_space_is_refused_by_block(s3_cat, s3_subgroups, s3_modules, monkeypatch):
    # one vector dropped from each solved basis: both builders refuse and name the first block
    mod, mor = s3_modules["order2"], restriction_morphism(s3_modules["full"], s3_modules["order2"])
    r, p = int(np.flatnonzero(mod.dims[1, :, 0])[0]), int(np.flatnonzero(mor.fdims[:, 0])[0])
    _count_solves(monkeypatch, drop=1)
    message = f"block (1, r, 0): intertwiner space of irreducible {r} has dimension 0, characters give 1"
    with pytest.raises(ModuleDataError, match=re.escape(message)):
        module_from_subgroup(s3_cat, s3_subgroups["order2"], mod.irrep_table)
    message = f"block (p, 0): intertwiner space of irreducible {p} has dimension 0, characters give 1"
    with pytest.raises(ReconstructionError, match=re.escape(message)):
        restriction_morphism(s3_modules["full"], s3_modules["order2"])


def _subgroup_classes(group) -> list:
    """One subgroup of each conjugacy class, found as the closures of element pairs."""
    subs = {group.close_subset(pair) for pair in combinations_with_replacement(range(group.order), 2)}
    conj = group.mult_table[group.mult_table, group.inverse[:, None]]  # conj[x, e] = x e x^-1
    classes = {min(tuple(sorted(row)) for row in conj[:, list(sub)]): sub for sub in sorted(subs)}
    return [Subgroup(group, sub) for sub in classes.values()]


def test_every_subgroup_class_meets_the_index_oracles():
    # the dihedral groups of order 8 and 12, Q8, A4 and S4, every subgroup class (40 modules, 127 bases):
    # algebra dimension [G:H] d_x^2 and corner dimension [G:H] d_x d_y; the classical round trip passes
    # exactly at the one-dimensional bases, where A_x is C(G/H), and elsewhere fails only the two checks
    # that need a commutative algebra
    even4 = [p for p in permutations(range(4))
             if sum(p[i] > p[j] for i in range(4) for j in range(i + 1, 4)) % 2 == 0]
    groups = [dihedral_group(4), _quaternion_group(), group_from_permutations(even4),
              symmetric_group(4), dihedral_group(6)]
    counts = []
    for group in groups:
        cat = tensorcat.from_group(extract_irreps(group, seed=0))
        classes = _subgroup_classes(group)
        counts.append(len(classes))
        for sub in classes:
            mod = module_from_subgroup(cat, sub)
            assert validate_module(mod).passed, (group.order, sub.elements)
            index, d = group.order // sub.order, mod.base_dims
            for x in range(mod.n_base):
                cert = classical_roundtrip(build_algebra(mod, x))
                failing = set() if d[x] == 1 else {"commutativity", "point_count"}
                assert {c.name for c in cert.checks if not c.passed} == failing, (sub.elements, x, cert.to_text())
            for x, y in np.ndindex(mod.n_base, mod.n_base):
                assert build_algebra(mod, x).dim == index * d[x] ** 2
                assert build_bimodule(mod, x, y).dim == index * d[x] * d[y], (sub.elements, x, y)
    assert counts == [8, 6, 5, 11, 10]


def test_disjoint_union_is_disconnected(z4_coset_module):
    fu = disjoint_union_module(z4_coset_module, z4_coset_module)
    strict = validate_module(fu)
    assert not strict.passed
    assert [c.name for c in strict.checks if not c.passed] == ["connectedness"]


def test_disjoint_union_is_block_diagonal(s3_modules, z4_pointed_module, z4_coset_module):
    for f in (z4_pointed_module, z4_coset_module, s3_modules["order2"]):
        fu = disjoint_union_module(f, f)
        j = f.n_base
        for a in f.cat.labels:
            want = np.zeros((2 * j, 2 * j), dtype=np.int64)
            want[:j, :j] = want[j:, j:] = f.dims[a]
            assert np.array_equal(fu.dims[a], want)
        assert fu.coherence.size == 2 * f.coherence.size
        for a, b, r, t in _coherence_keys(f):
            for shift in (0, j):
                for c in f.cat.channels(a, b):
                    got = fu.coherence_channel(a, b, r + shift, t + shift, c)
                    assert np.array_equal(got, f.coherence_channel(a, b, r, t, c))


def test_perturbed_copy_fails_and_original_passes(s3_modules, z4_pointed_module):
    f = s3_modules["order2"]
    key = max(_coherence_keys(f), key=lambda k: _coherence_block(f, k).size)
    first = next(c for c in f.cat.channels(*key[:2]) if f.coherence_channel(*key, c).size)
    g = replace(f, coherence=f.coherence.copy())
    g.coherence_channel(*key, first).flat[0] += 1e-3
    cert = validate_module(g)
    assert [c.name for c in cert.checks if not c.passed] == ["coherence_unitarity"]
    assert validate_module(f).passed
    # a zeroed row: U U^* has a zero on its diagonal, while every entry of U^* U - 1 stays below 1
    assert np.abs(f.coherence_channel(*key, first)[0, 0]).max() < 0.9
    zero_row = replace(f, coherence=f.coherence.copy())
    zero_row.coherence_channel(*key, first)[0, 0] = 0.0
    cert = validate_module(zero_row)
    assert [(c.name, c.value) for c in cert.checks if not c.passed] == [("coherence_unitarity", 1.0)]
    # module associator phases moved by 1e-3 break the Frobenius round trip
    phase = z4_pointed_module.phase.copy()
    phase[1, 3] *= np.exp(1e-3j)
    h = replace(z4_pointed_module, phase=phase)
    assert "frobenius_roundtrip" in [c.name for c in validate_module(h).checks if not c.passed]
    for copy in (f, g, zero_row, h):
        _assert_checks_match_loops(copy)


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


def _coherence_keys(f):
    """The blocks (a, b, r, t) with at least one column (s, m, n), decoded from the index."""
    nl, j = len(f.cat.obj_dim), f.n_base
    return list(zip(*(v.tolist() for v in np.unravel_index(f.index.code, (nl, nl, j, j)))))


def _coherence_block(f, key):
    """Block ``key`` as one matrix, its channels stacked in ascending order."""
    chans = [f.coherence_channel(*key, c) for c in f.cat.channels(*key[:2])]
    return np.vstack([arr.reshape(-1, arr.shape[2]) for arr in chans])


def _dense_column_offsets(f):
    """The dense table the index replaced: [a, b, r, t, s] is where s starts in the columns of block (a, b, r, t).

    The columns run over (s, m, n); the block of s is (dims[a, r, s], dims[b, s, t]), m major.  The last
    entry is the column count.
    """
    sizes = f.dims[:, None, :, :, None] * f.dims[None, :, None, :, :]  # [a, b, r, s, t]
    return block_offsets(sizes.transpose(0, 1, 2, 4, 3))


def _dense_block_rows(f):
    """rows[a, b, r, t] = sum_c N_ab^c dims[c, r, t], the row count of block (a, b, r, t)."""
    mult = np.zeros((len(f.cat.obj_dim),) * 3, dtype=np.int64)
    for (a, b), chans in f.cat.fusion.items():
        mult[a, b, list(chans)] = [len(isos) for isos in chans.values()]
    return np.einsum("abc,crt->abrt", mult, f.dims)


def _dense_coherence_offsets(f):
    """[a, b, r, t]: where block (a, b, r, t) starts in ``coherence``, dense over every block."""
    sizes = _dense_block_rows(f) * _dense_column_offsets(f)[..., -1]
    return block_offsets(sizes.ravel())[:-1].reshape(sizes.shape)


@pytest.fixture(scope="module")
def index_modules(s4_over_s3, s3_modules):
    """S4 > S3, D12 > flip, Z12 (standard cocycle) over its trivial subgroup, Z8 > Z2, a disjoint union."""
    d12, z8 = dihedral_group(12), cyclic_group(8)
    z12 = tensorcat.standard_cyclic_cocycle(12)
    z8_cat = tensorcat.from_pointed(tensorcat.PointedFusionData(z8, np.ones((8, 8, 8))))
    return [s4_over_s3,
            module_from_subgroup(tensorcat.from_group(extract_irreps(d12, seed=0)), Subgroup.generated(d12, [12])),
            module_from_pointed(tensorcat.from_pointed(z12), Subgroup(z12.group, (0,))),
            module_from_pointed(z8_cat, Subgroup(z8, (0, 4))),
            disjoint_union_module(s3_modules["order2"], s3_modules["trivial"])]


def test_index_matches_dense_tables(index_modules):
    # every block, dead ones included: the accessors give the dense tables' start, rows and
    # per-s column offsets, and the index holds the blocks with a column, in (a, b, r, t) order
    for f in index_modules:
        off, rows, start = _dense_column_offsets(f), _dense_block_rows(f), _dense_coherence_offsets(f)
        live = np.argwhere(off[..., -1])
        assert _coherence_keys(f) == [tuple(key) for key in live.tolist()], f.name
        ix, at = f.index, tuple(live.T)
        assert all(arr.dtype == np.int64 and arr.ndim == 1 for arr in ix)
        assert np.array_equal(ix.start, start[at]) and np.array_equal(ix.rows, rows[at])
        assert np.array_equal(ix.cols, off[..., -1][at])
        assert ix.ptr[0] == 0 and ix.ptr[-1] == len(ix.label) == len(ix.col) and np.all(np.diff(ix.ptr) > 0)
        assert 16 * (ix.start[-1] + ix.rows[-1] * ix.cols[-1]) == f.coherence.nbytes
        # a dead block starts where the next block with a column does, as the dense table had it
        after = ix.code.searchsorted(np.arange(rows.size))
        assert np.array_equal(np.append(ix.start, f.coherence.size)[after], start.ravel()), f.name
        base, every = f.coherence.__array_interface__["data"][0], f.coherence_blocks()
        assert list(every) == _coherence_keys(f)
        for key in np.ndindex(rows.shape):
            blk, cols = f.coherence_block(*key)
            assert blk.shape == (rows[key], off[key][-1]), (f.name, key)
            if blk.size:
                assert blk.__array_interface__["data"][0] - base == 16 * start[key], (f.name, key)
            assert cols == {s: off[key][s] for s in range(f.n_base) if off[key][s + 1] > off[key][s]}, (f.name, key)
            if key in every:
                assert every[key][1] == cols and every[key][0].shape == blk.shape
                assert every[key][0].__array_interface__ == blk.__array_interface__, (f.name, key)
            for c in f.cat.channels(*key[:2]):
                k, p = f.cat.mult(key[0], key[1], c), f.dims[c, key[2], key[3]]
                assert f.coherence_channel(*key, c).shape == (k, p, off[key][-1]), (f.name, key, c)


def test_index_is_sparse_and_module_memory_is_bounded():
    # Z24 over its trivial subgroup: 13824 of the 331776 blocks have a column.  The dense tables took
    # 66 MB, and build + validate peaked at 131 MB traced; with the index (0.77 MB) the peak is 7.3 MB
    group = cyclic_group(24)
    cat = tensorcat.from_pointed(tensorcat.PointedFusionData(group, np.ones((24, 24, 24))))

    def build_and_validate():
        f = module_from_pointed(cat, Subgroup(group, (0,)))
        return f, validate_module(f)

    (f, cert), peak = traced_peak(build_and_validate)
    assert cert.passed and len(f.index.code) == 24**3
    assert sum(arr.nbytes for arr in f.index) < 1e6
    assert peak < 16e6, peak


def test_coherence_unitary(s3_modules):
    f = s3_modules["order2"]
    for key in _coherence_keys(f):
        u = _coherence_block(f, key)
        assert u.shape[1] and max_residual(dagger(u) @ u, np.eye(u.shape[1])) < 1e-12


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
    """Column-by-column form of ``modcat._coherence_blocks`` at one block: the reference."""
    cat = f.cat
    off = f.coherence_block(a, b, r, t)[1]
    phi_conj = np.conj(_assoc_diag(f, f.handle[a], f.handle[b], t, cat.dim(a) * cat.dim(b)))
    eye_a = np.eye(cat.dim(a), dtype=np.complex128)
    eye_t = np.eye(f.base_dims[t], dtype=np.complex128)
    # column (s, m, n) sits at off[s] + m * dims[b, s, t] + n
    composites = [None] * int(f.dims[a, r] @ f.dims[b, :, t])
    for s in range(f.n_base):
        for m, ta in enumerate(f.mor_basis(a, r, s)):
            for n, tb in enumerate(f.mor_basis(b, s, t)):
                composites[off[s] + m * f.dims[b, s, t] + n] = phi_conj[:, None] * (kron(eye_a, tb) @ ta)
    out = {}
    for c in cat.channels(a, b):
        tcs = f.mor_basis(c, r, t)
        arr = np.zeros((cat.mult(a, b, c), len(tcs), len(composites)), dtype=np.complex128)
        for k, iota in enumerate(cat.isometries(a, b, c)):
            proj_map = kron(dagger(iota), eye_t)
            for col, comp in enumerate(composites):
                proj = proj_map @ comp
                for p, tc in enumerate(tcs):
                    arr[k, p, col] = np.trace(dagger(tc) @ proj) / f.base_dims[r]
        out[c] = arr
    return out


def _coherence_unitarity_loop(f):
    """Block-by-block form of the ``coherence_unitarity`` check: the reference."""
    coh = 0.0
    for key in _coherence_keys(f):
        u = _coherence_block(f, key)
        coh = max(coh, max_residual(dagger(u) @ u, np.eye(u.shape[1])))
        if u.shape[0]:
            coh = max(coh, max_residual(u @ dagger(u), np.eye(u.shape[0])))
    return coh


def _frobenius_image_loop(f, a, r, s, m):
    """The partner in Mor(X_s, u_abar (x) X_r) of the m-th basis morphism, one at a time."""
    cat = f.cat
    abar = cat.dual_map[a]
    ds = f.base_dims[s]
    rvec = cat.canonical_conjugates(a)[0]
    phi = _assoc_diag(f, f.handle[abar], f.handle[a], s, cat.dim(abar) * cat.dim(a))
    lift = phi[:, None] * kron(rvec.reshape(-1, 1), np.eye(ds, dtype=np.complex128))
    return kron(np.eye(cat.dim(abar), dtype=np.complex128), dagger(f.bases[(a, r, s)][m])) @ lift


def _frobenius_back_loop(f, a, r, g):
    """From Mor(X_s, u_abar (x) X_r) back to Mor(X_r, u_a (x) X_s), one morphism at a time."""
    cat = f.cat
    abar = cat.dual_map[a]
    dr = f.base_dims[r]
    rbar = cat.canonical_conjugates(a)[1]
    phi_conj = np.conj(_assoc_diag(f, f.handle[a], f.handle[abar], r, cat.dim(a) * cat.dim(abar)))
    lifted = phi_conj[:, None] * kron(np.eye(cat.dim(a), dtype=np.complex128), g)
    return dagger(kron(dagger(rbar), np.eye(dr, dtype=np.complex128)) @ lifted)


def _frobenius_roundtrip_loop(f):
    """Morphism-by-morphism form of the ``frobenius_roundtrip`` check: the reference."""
    worst = 0.0
    for (a, r, s), stack in f.bases.items():
        for m, t in enumerate(stack):
            back = _frobenius_back_loop(f, a, r, _frobenius_image_loop(f, a, r, s, m))
            worst = max(worst, max_residual(back, t))
    return worst


def _frobenius_block_loop(f, a, r, s):
    """Trace-by-trace form of ``frobenius_block``: the reference."""
    tbars = f.mor_basis(f.cat.dual_map[a], s, r)
    imgs = [_frobenius_image_loop(f, a, r, s, m) for m in range(int(f.dims[a, r, s]))]
    out = [[np.trace(dagger(tb) @ img) / f.base_dims[s] for img in imgs] for tb in tbars]
    return np.array(out, dtype=np.complex128).reshape(len(tbars), len(imgs))


def _check_values(f):
    return {c.name: (c.value, c.passed) for c in validate_module(f).checks}


def _assert_checks_match_loops(f):
    # batched in another grouping: the values agree with the loops to roundoff
    got = _check_values(f)
    for name, loop in (("coherence_unitarity", _coherence_unitarity_loop),
                       ("frobenius_roundtrip", _frobenius_roundtrip_loop)):
        value, passed = got[name]
        ref = loop(f)
        assert abs(value - ref) < 1e-14, (f.name, name, value, ref)
        assert passed == (ref <= DEFAULT_TOL), (f.name, name)


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
                                            right = np.conj(cat.assoc_table()[a, b, c]) * right
                                            worst = max(worst, max_residual(left, right))
    return worst


@pytest.fixture(scope="module")
def coset_modules():
    """Coset modules with |K| > 1: Z8 > Z2 (four cosets) and Z10 > Z10 (one), trivial cocycle."""
    out = []
    for n, k in ((8, (0, 4)), (10, tuple(range(10)))):
        group = cyclic_group(n)
        cat = tensorcat.from_pointed(tensorcat.PointedFusionData(group, np.ones((n, n, n))))
        out.append(module_from_pointed(cat, Subgroup(group, k)))
    return out


@pytest.fixture(scope="module")
def shape_modules(s3_modules, z4_pointed_module, z4_coset_module, a4_modules, coset_modules):
    """Modules whose blocks come in several product shapes, with fusion multiplicity two (A4)."""
    return [s3_modules["order2"], s3_modules["full"], z4_pointed_module, z4_coset_module,
            *a4_modules, *coset_modules]


def test_coherence_matches_column_loop(shape_modules):
    # the shape-grouped form does the same products on the same matrices: equal bits,
    # signed zeros included
    for f in shape_modules:
        labels, bases = f.cat.labels, range(f.n_base)
        linked = [(a, b, r, t) for a in labels for b in labels for r in bases for t in bases
                  if f.dims[a, r] @ f.dims[b, :, t]]
        assert _coherence_keys(f) == linked
        wants = {key: _coherence_loop(f, *key) for key in linked}
        assert f.coherence.dtype == np.complex128 and f.coherence.ndim == 1
        assert f.coherence.size == sum(arr.size for want in wants.values() for arr in want.values())
        for key, want in wants.items():
            assert list(want) == list(f.cat.channels(*key[:2]))
            for c in want:
                got = f.coherence_channel(*key, c)
                assert got.dtype == want[c].dtype and got.shape == want[c].shape
                assert np.array_equal(got, want[c]), (f.name, key, c)
                assert got.tobytes() == want[c].tobytes(), (f.name, key, c)


def test_frobenius_block_matches_loop(shape_modules):
    # the star matrices read these blocks, so they must be equal bit for bit
    for f in shape_modules:
        for a, r, s in f.bases:
            got, want = f.frobenius_block(a, r, s), _frobenius_block_loop(f, a, r, s)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (f.name, a, r, s)


def test_module_checks_match_loops(shape_modules, s3_modules, z4):
    for f in (*shape_modules, s3_modules["trivial"], s3_modules["order3"], _flipped_z4_module(z4)):
        _assert_checks_match_loops(f)


def test_triple_coherence_matches_chain_loop(s3_modules, z4_pointed_module, z4_coset_module, z4, monkeypatch):
    # einsum sums in another order: residuals agree to a few units of roundoff, for the
    # shipped entry budget, for one run per composable pair and for one run in all
    flipped = _flipped_z4_module(z4)
    joins = []

    def counted(*args):
        join = successors(*args)
        return lambda ends: joins.append(ends) or join(ends)

    monkeypatch.setattr(modcat, "successors", counted)
    for budget in (modcat.RUN_ENTRIES, 1, np.iinfo(np.int64).max):
        monkeypatch.setattr(modcat, "RUN_ENTRIES", budget)
        for f in (*s3_modules.values(), z4_pointed_module, z4_coset_module, flipped):
            joins.clear()
            assert abs(_triple_coherence_residual(f) - _triple_loop(f)) < 1e-14, (f.name, budget)
            # one join lists the composable pairs, then one join per run extends them to chains
            edges = f.dims.sum(axis=0)  # edges[r, s]: basis morphisms from X_r to some u_a (x) X_s
            if budget == 1:  # one run per composable pair
                assert len(joins) == 1 + int((edges @ edges).sum()), (f.name, len(joins))
            elif budget == np.iinfo(np.int64).max:
                assert len(joins) == 2, (f.name, len(joins))


def test_triple_coherence_reads_fibre_dependent_phases():
    # Z8 > Z2 = {0, 4} over the square of the standard cocycle (the standard cocycle itself is not a
    # coboundary on Z2): phase[g, h, r, k] = omega(g, h, t_r k) depends on the fibre coordinate k
    group = cyclic_group(8)
    cat = tensorcat.from_pointed(tensorcat.PointedFusionData(group, tensorcat.standard_cyclic_cocycle(8).cocycle ** 2))
    f = module_from_pointed(cat, Subgroup(group, (0, 4)))
    assert validate_module(f).passed and f.phase[1, 2, 2, 1] != f.phase[1, 2, 2, 0]
    # flip omega(1, 2, t_2 4), which only fibre coordinate k = 1 of X_2 reads; 1 + 2 is no
    # dual pair, so the Frobenius checks never read it
    for bad in (-f.phase[1, 2, 2, 1], np.nan):
        phase = f.phase.copy()
        phase[1, 2, 2, 1] = bad
        g = replace(f, phase=phase)
        failed = [(c.name, c.value) for c in validate_module(g).checks if not c.passed]
        assert [name for name, _ in failed] == ["triple_coherence"], failed
        if np.isnan(bad):
            assert np.isnan(failed[0][1]) and np.isnan(_triple_coherence_residual(g))
        else:
            assert abs(failed[0][1] - _triple_loop(g)) < 1e-14 and failed[0][1] > 1.0


def _z10_over_z10():
    group = cyclic_group(10)
    cat = tensorcat.from_pointed(tensorcat.PointedFusionData(group, np.ones((10, 10, 10))))
    return module_from_pointed(cat, Subgroup(group, tuple(range(10))))


def test_triple_coherence_memory_is_bounded():
    # Z10 > Z10 (trivial cocycle): 1000 chains of 10 x 10 matrices; Z12 over its trivial subgroup
    # (standard cocycle): 20736 chains of 1 x 1 matrices.  Traced, runs of 512 chains peaked at 7.9 to
    # 8.3 MB on Z10 > Z10; runs of 2^14 product entries at 2.1 and 3.8 MB; runs of 2^15 live entries
    # peak at 0.75 and 0.65 MB
    z12 = module_from_pointed(tensorcat.from_pointed(tensorcat.standard_cyclic_cocycle(12)),
                              Subgroup(cyclic_group(12), (0,)))
    for f in (_z10_over_z10(), z12):
        value, peak = traced_peak(_triple_coherence_residual, f)
        assert value < 1e-12, f.name
        assert peak < 1e6, (f.name, peak)


def test_coherence_blocks_keep_every_bit_in_runs(s3_modules, z4_coset_module, monkeypatch):
    # Z10 > Z10 has 100 coefficients of one shape, each with 10 x 10 factors.  Traced, one run per shape
    # peaked at 1.35 MB; runs of 2^15 live entries peak at 0.58 MB
    z10 = _z10_over_z10()
    assert traced_peak(modcat._coherence_blocks, z10)[1] < 1e6
    # only the run boundaries depend on the budget: one run per coefficient, the shipped budget and one
    # run per shape give the same buffer, bit for bit.  Each run ends in one np.trace
    runs, counts = [], {}
    trace = np.trace
    monkeypatch.setattr(np, "trace", lambda *args, **kwargs: runs.append(None) or trace(*args, **kwargs))
    budgets = (1, modcat.RUN_ENTRIES, np.iinfo(np.int64).max)
    for f in (*s3_modules.values(), z4_coset_module, z10):
        for budget in budgets:
            monkeypatch.setattr(modcat, "RUN_ENTRIES", budget)
            runs.clear()
            g = modcat._coherence_blocks(f)
            assert g.coherence.tobytes() == f.coherence.tobytes(), (f.name, budget)
            assert all(np.array_equal(x, y) for x, y in zip(g.index, f.index, strict=True)), (f.name, budget)
            counts.setdefault(f.name, []).append(len(runs))
    # runs at budget 1, at the shipped budget and at no bound: one per coefficient, then one per shape,
    # except on Z10 > Z10, whose coefficients keep 1011 entries live each: 32 of them to a run of 2^15
    assert counts == {"subgroup[1]": [36, 5, 5], "subgroup[2]": [40, 5, 5], "subgroup[3]": [54, 5, 5],
                      "subgroup[6]": [49, 15, 15], "coset[2]": [32, 1, 1], "coset[10]": [100, 4, 1]}, counts


def _rebuilt(f, bases):
    """``f`` with other module bases, coherence and index computed anew from them."""
    return _assemble(f.cat, f.name, f.base_dims, bases, f.handle, f.fuse, f.phase, f.subgroup, f.irrep_table)


def test_unit_grading_and_morphism_isometry_catch_their_faults(s3_modules, z4_pointed_module):
    for f in (s3_modules["full"], z4_pointed_module):
        clean = validate_module(f)
        assert clean.passed, clean.to_text()
        # a second unit morphism on X_0.  Any unit block off the identity that keeps every diagonal block
        # adds to a column of dims[0], so decomposition_count fails with it; a missing diagonal block
        # fails unit_basis too (the next test).  unit_grading is a flag without a measured value, so it
        # is read by its verdict alone
        doubled = validate_module(_rebuilt(f, {**f.bases, (0, 0, 0): np.concatenate([f.bases[(0, 0, 0)]] * 2)}))
        failed = {c.name for c in doubled.checks if not c.passed}
        assert failed == {"unit_grading", "decomposition_count", "coherence_unitarity"}, doubled.to_text()
        # one entry of the first non-unit basis morphism bumped by EPS: in the module data, which also
        # moves the coherence blocks, and in the record alone, which keeps the clean coherence blocks
        key = min(k for k in f.bases if k[0] != 0)
        bumped = f.bases[key].copy()
        bumped[0].flat[np.flatnonzero(bumped[0])[0]] += EPS
        bases = {**f.bases, key: bumped}
        assert_caught(clean, validate_module(_rebuilt(f, bases)), "morphism_isometry",
                      failing=("morphism_isometry", "coherence_unitarity"))
        assert_caught(clean, validate_module(replace(f, bases=bases)), "morphism_isometry",
                      failing=("morphism_isometry",))


def test_missing_unit_block_fails_unit_basis(z4_pointed_module):
    # pointed Z4 over its trivial subgroup without its one unit block (0, 0, 0): unit_basis reads
    # the first morphism of an empty stack, and fails with the value inf instead of raising
    f = z4_pointed_module
    dropped = _rebuilt(f, {key: basis for key, basis in f.bases.items() if key != (0, 0, 0)})
    bad = validate_module(dropped)
    assert_caught(validate_module(f), bad, "unit_basis",
                  failing=("unit_grading", "unit_basis", "decomposition_count", "coherence_unitarity"))
    assert next(c.value for c in bad.checks if c.name == "unit_basis") == np.inf
    # the algebra at base 0 needs the unit block: run_suite stops at build_algebra's refusal
    with pytest.raises(ReconstructionError, match="unit label"):
        run_suite(f.cat, dropped)


@pytest.mark.parametrize("shape", [(1, 2, 1), (1, 2, 2)])
def test_misshapen_basis_block_fails_named_checks(s3_modules, shape):
    # S3 over its trivial subgroup with its unit block (0, 0, 0) replaced by a stack of another shape than
    # (dims, d_a d_s, d_r) = (1, 1, 1): the block has no edges, and the two checks that read it fail with
    # inf instead of raising
    f = s3_modules["trivial"]
    bad = np.zeros(shape, dtype=np.complex128)
    bad[0, 0, 0] = 1.0
    cert = validate_module(replace(f, bases={**f.bases, (0, 0, 0): bad}))
    failed = {c.name: c.value for c in cert.checks if not c.passed}
    assert failed == {"unit_basis": np.inf, "morphism_isometry": np.inf}, cert.to_text()


def test_nan_entry_fails_module_checks(s3_modules):
    # a max(worst, x) fold keeps worst when x is NaN; the NaN must reach the check value
    f = s3_modules["full"]
    key = max(_coherence_keys(f), key=lambda k: _coherence_block(f, k).size)
    first = next(c for c in f.cat.channels(*key[:2]) if f.coherence_channel(*key, c).size)
    g = replace(f, coherence=f.coherence.copy())
    g.coherence_channel(*key, first).flat[0] = np.nan
    failed = [(c.name, c.value) for c in validate_module(g).checks if not c.passed]
    assert [name for name, _ in failed] == ["coherence_unitarity"] and np.isnan(failed[0][1])
    # a NaN in a module basis reaches the triple check
    bases = dict(f.bases)
    big = max(bases, key=lambda k: bases[k].size)
    bases[big] = bases[big].copy()
    bases[big].flat[0] = np.nan
    assert np.isnan(_triple_coherence_residual(replace(f, bases=bases)))


# builds Z10 > Z10 and Z8 > Z2 over the trivial cocycle and saves every basis,
# structure tensor and star matrix to the .npz file named by argv[1]
_COSET_DUMP = """
import sys
import numpy as np
from qhspace import tensorcat
from qhspace.grouprep import Subgroup, cyclic_group
from qhspace.modcat import module_from_pointed
from qhspace.reconstruct import build_algebra

out = {}
for n, k in ((10, tuple(range(10))), (8, (0, 4))):
    group = cyclic_group(n)
    cat = tensorcat.from_pointed(tensorcat.PointedFusionData(group, np.ones((n, n, n))))
    f = module_from_pointed(cat, Subgroup(group, k))
    for key, basis in f.bases.items():
        out[f"{n}/basis{key}"] = basis
    for r in range(f.n_base):
        alg = build_algebra(f, r)
        out[f"{n}/tensor{r}"] = alg.tensor
        out[f"{n}/star{r}"] = alg.star_mat
np.savez(sys.argv[1], **out)
"""


def test_coset_bits_independent_of_blas_threads_and_kernel(tmp_path):
    # the closed-form bases use no BLAS, so nothing downstream inherits its
    # thread- or kernel-dependent rounding
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OPENBLAS_CORETYPE")}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(qhspace.__file__))
    runs = []
    for name, extra in (("default", {}), ("threads2", {"OPENBLAS_NUM_THREADS": "2"}),
                        ("haswell", {"OPENBLAS_CORETYPE": "Haswell"})):
        out = tmp_path / f"{name}.npz"
        subprocess.run([sys.executable, "-c", _COSET_DUMP, str(out)], env={**env, **extra},
                       check=True, timeout=300)
        runs.append(np.load(out))
    ref = runs[0]
    assert len(ref.files) == 12 + 40
    for run in runs[1:]:
        assert run.files == ref.files
        assert [k for k in ref.files if not np.array_equal(run[k], ref[k])] == []
