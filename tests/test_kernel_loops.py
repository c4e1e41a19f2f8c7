"""Loop references for the block kernels of ``reconstruct``, ``tensorcat`` and ``modcat``.

Each reference is the element-by-element form of a kernel: it lists the
index triples of every space and finds each basis element with
``list.index``, so it shares no layout code with the kernel it checks.
The certificate checks are compared with their whole-tensor einsum and
pair-by-pair loop forms.  The closed-form coset-module bases are compared
with the kernel of the full constraint matrix, found by an SVD.  The
stacked-array kernels of ``grouprep`` are compared with their
tuple-of-matrices forms, which loop over the group elements (and, for the
averaging projector, over the matrix units).
"""

import re
from dataclasses import replace
from itertools import permutations, product

import numpy as np
import pytest

from qhspace import tensorcat
from qhspace import grouprep
from qhspace.grouprep import (
    FiniteGroup,
    Subgroup,
    _regular_average,
    cyclic_group,
    dihedral_group,
    extract_irreps,
    group_from_permutations,
    symmetric_group,
    tensor_rep,
)
from qhspace.modcat import _assemble, module_from_pointed, validate_module
from qhspace.numkit import DEFAULT_TOL, NumericalRankError, above, dagger, kron, max_residual, solution_basis
from qhspace import reconstruct
from qhspace.reconstruct import (
    _hexagon_residual,
    algebra_map,
    basis_triples,
    block_algebra,
    block_consistency,
    block_structure_tensor,
    build_algebra,
    build_bimodule,
    restriction_morphism,
    star_matrix,
    structure_tensor,
    verify_algebra,
    verify_algebra_map,
    validate_morphism,
    verify_bimodule,
)
from qhspace.tensorcat import UNIT_LABEL

from qhspace.verify import run_suite

from support import corner_blocks, dense_tensor, regular_rep, with_rescaled_conjugates


def _columns(f, a, b, r, t):
    """Coherence columns (s, m, n) of F_{rs}(a) (x) F_{st}(b), in order."""
    return [(s, m, n) for s in range(f.n_base) for m in range(int(f.dims[a, r, s]))
            for n in range(int(f.dims[b, s, t]))]


def _rows(mor, a, p, r):
    """Rows (q, n, beta) of psi[(a, p, r)], in order."""
    return [(q, n, beta) for q in range(mor.target.n_base) for n in range(int(mor.target.dims[a, p, q]))
            for beta in range(int(mor.fdims[q, r]))]


def _cols(mor, a, p, r):
    """Columns (s, alpha, m) of psi[(a, p, r)], in order."""
    return [(s, alpha, m) for s in range(mor.source.n_base) for alpha in range(int(mor.fdims[p, s]))
            for m in range(int(mor.source.dims[a, s, r]))]


def _structure_loop(f, x, y, z):
    """Entry-by-entry form of ``structure_tensor``: the reference."""
    left = basis_triples(f, x, y)
    right = basis_triples(f, y, z)
    out = basis_triples(f, x, z)
    out_pos = {t: i for i, t in enumerate(out)}
    tensor = np.zeros((len(left), len(right), len(out)), dtype=np.complex128)
    cat = f.cat
    for p, (a, m, i) in enumerate(left):
        if a == UNIT_LABEL:
            for q, triple in enumerate(right):
                tensor[p, q, out_pos[triple]] = 1.0
            continue
        for q, (b, n, j) in enumerate(right):
            if b == UNIT_LABEL:
                tensor[p, q, out_pos[(a, m, i)]] = 1.0
                continue
            db = cat.dim(b)
            col = _columns(f, a, b, x, z).index((y, m, n))
            for c in cat.channels(a, b):
                arr = f.coherence_channel(a, b, x, z, c)
                for k, iota in enumerate(cat.isometries(a, b, c)):
                    for pp in range(arr.shape[1]):
                        coeff = arr[k, pp, col]
                        if coeff == 0.0:
                            continue
                        for l in range(cat.dim(c)):
                            w = coeff * iota[i * db + j, l]
                            if w != 0.0:
                                tensor[p, q, out_pos[(c, pp, l)]] += w
    return tensor


def _star_loop(f, x, y):
    """Column-by-column form of ``star_matrix``: the reference."""
    src = basis_triples(f, x, y)
    dst = basis_triples(f, y, x)
    dst_pos = {t: i for i, t in enumerate(dst)}
    cat = f.cat
    s = np.zeros((len(dst), len(src)), dtype=np.complex128)
    for col, (a, m, i) in enumerate(src):
        abar = cat.dual_map[a]
        dbar = cat.dim(abar)
        rbar = cat.canonical_conjugates(a)[1].ravel()
        b = f.frobenius_block(a, x, y)
        for q in range(b.shape[0]):
            if b[q, m] == 0.0:
                continue
            for l in range(dbar):
                w = b[q, m] * np.conj(rbar[i * dbar + l])
                if w != 0.0:
                    s[dst_pos[(abar, q, l)], col] += w
    return s


def _block_loop(f, blocks):
    """Entry-by-entry form of ``block_structure_tensor``: the reference."""
    basis = []
    for u, ru in enumerate(blocks):
        for v, rv in enumerate(blocks):
            for t in basis_triples(f, ru, rv):
                basis.append((u, v) + t)
    pos = {b: i for i, b in enumerate(basis)}
    n = len(basis)
    tensor = np.zeros((n, n, n), dtype=np.complex128)
    for p, (u, v, a, m, i) in enumerate(basis):
        for q, (v2, w, b, nn, j) in enumerate(basis):
            if v2 != v:
                continue
            ct = structure_tensor(f, blocks[u], blocks[v], blocks[w])
            t1 = basis_triples(f, blocks[u], blocks[v])
            t2 = basis_triples(f, blocks[v], blocks[w])
            t3 = basis_triples(f, blocks[u], blocks[w])
            row = ct[t1.index((a, m, i)), t2.index((b, nn, j)), :]
            for r3, triple in enumerate(t3):
                if row[r3] != 0.0:
                    tensor[p, q, pos[(u, w) + triple]] += row[r3]
    return basis, tensor


def _hexagon_loop(mor):
    """Entry-by-entry form of ``_hexagon_residual``: the reference."""
    fx, fy = mor.source, mor.target
    cat = fx.cat
    worst = 0.0
    for a in cat.labels:
        for b in cat.labels:
            for p in range(fy.n_base):
                for r in range(fx.n_base):
                    dom = []
                    for s in range(fx.n_base):
                        for t in range(fx.n_base):
                            for alpha in range(int(mor.fdims[p, s])):
                                for m in range(int(fx.dims[a, s, t])):
                                    for n in range(int(fx.dims[b, t, r])):
                                        dom.append((s, t, alpha, m, n))
                    if not dom:
                        continue
                    for c in cat.channels(a, b):
                        tgt = _rows(mor, c, p, r)
                        for k in range(cat.mult(a, b, c)):
                            pa = np.zeros((len(tgt), len(dom)), dtype=np.complex128)
                            pb = np.zeros((len(tgt), len(dom)), dtype=np.complex128)
                            for di, (s, t, alpha, m, n) in enumerate(dom):
                                # path one: exchange a, exchange b, fuse on target
                                ca_i = _cols(mor, a, p, t).index((s, alpha, m))
                                for ra, (q, na, beta) in enumerate(_rows(mor, a, p, t)):
                                    va = mor.psi[(a, p, t)][ra, ca_i]
                                    if va == 0.0:
                                        continue
                                    cb_i = _cols(mor, b, q, r).index((t, beta, n))
                                    for rb, (w, nb, gamma) in enumerate(_rows(mor, b, q, r)):
                                        vb = mor.psi[(b, q, r)][rb, cb_i]
                                        if vb == 0.0:
                                            continue
                                        ycoh = fy.coherence_channel(a, b, p, w, c)
                                        yc_i = _columns(fy, a, b, p, w).index((q, na, nb))
                                        for pp in range(int(fy.dims[c, p, w])):
                                            ti = tgt.index((w, pp, gamma))
                                            pa[ti, di] += va * vb * ycoh[k, pp, yc_i]
                                # path two: fuse on source, exchange the channel
                                xcoh = fx.coherence_channel(a, b, s, r, c)
                                xc_i = _columns(fx, a, b, s, r).index((t, m, n))
                                rows_c, cols_c = _rows(mor, c, p, r), _cols(mor, c, p, r)
                                for mm in range(int(fx.dims[c, s, r])):
                                    xv = xcoh[k, mm, xc_i]
                                    if xv == 0.0:
                                        continue
                                    cc_i = cols_c.index((s, alpha, mm))
                                    for rc, (w, pp, gamma) in enumerate(rows_c):
                                        ti = tgt.index((w, pp, gamma))
                                        pb[ti, di] += xv * mor.psi[(c, p, r)][rc, cc_i]
                            worst = max(worst, max_residual(pa, pb))
    return worst


@pytest.fixture(scope="module")
def modules(s3_modules, z4_pointed_module, z4_coset_module, a4_modules):
    return [*s3_modules.values(), z4_pointed_module, z4_coset_module, *a4_modules]


def test_structure_tensor_matches_loop(modules):
    # the einsum forms the same products and sums as the loop: equal bits
    for f in modules:
        for x, y, z in product(range(f.n_base), repeat=3):
            assert np.array_equal(structure_tensor(f, x, y, z), _structure_loop(f, x, y, z)), (f.name, x, y, z)


def test_star_matrix_matches_loop(modules):
    for f in modules:
        for x, y in product(range(f.n_base), repeat=2):
            assert np.array_equal(star_matrix(f, x, y), _star_loop(f, x, y)), (f.name, x, y)


def test_block_structure_tensor_places_corners(modules):
    for f in modules:
        for x in range(f.n_base):
            for y in range(x + 1, f.n_base):
                basis, corners = block_structure_tensor(f, (x, y))
                ref_basis, ref = _block_loop(f, (x, y))
                off = block_algebra(f, x, y).offsets
                assert basis == ref_basis and np.array_equal(dense_tensor(corners, off), ref), (f.name, x, y)
                # the kept blocks are exactly the nonzero ones
                assert list(corners) == list(corner_blocks(ref, off)), (f.name, x, y)


@pytest.fixture(scope="module")
def restrictions(s3_modules, a4_modules):
    nested = [("order2", "trivial"), ("order3", "trivial"), ("full", "order2"),
              ("full", "order3"), ("order2", "order2")]
    return [restriction_morphism(s3_modules[src], s3_modules[tgt]) for src, tgt in nested] + \
        [restriction_morphism(*a4_modules)]


def _perturbed(mor):
    """A copy with one entry of its largest exchange block moved by 1e-3."""
    key = max(mor.psi, key=lambda k: mor.psi[k].size)
    bad = mor.psi[key].copy()
    bad.flat[0] += 1e-3
    return replace(mor, psi={**mor.psi, key: bad})


def test_hexagon_matches_loop(restrictions, monkeypatch):
    # the blocks sum in another order: residuals agree to a few units of roundoff
    for mor in restrictions:
        for m in (mor, _perturbed(mor)):
            assert abs(_hexagon_residual(m) - _hexagon_loop(m)) < 1e-14
        assert _hexagon_residual(mor) < 1e-12
        assert _hexagon_residual(_perturbed(mor)) > DEFAULT_TOL

    calls = []
    monkeypatch.setattr(reconstruct, "_hexagon_residual",
                        lambda mor: calls.append(mor) or _hexagon_residual(mor))
    reconstruct.validate_morphism(restrictions[0])
    assert len(calls) == 1


def test_hexagon_covers_every_sub_block(s3_modules):
    # S3 full -> order2: the target has two base labels, so every exchange block has row blocks q and
    # column blocks s; moving one entry of any nonempty (s, q) sub-block must fail the hexagon, with
    # the value of the loop
    mor = restriction_morphism(s3_modules["full"], s3_modules["order2"])
    assert mor.target.n_base == 2
    copies = 0
    for (a, p, r), blk in mor.psi.items():
        rows, cols = mor.row_offsets[a, p, r], mor.col_offsets[a, p, r]
        for q, s in product(range(mor.target.n_base), range(mor.source.n_base)):
            if rows[q + 1] > rows[q] and cols[s + 1] > cols[s]:
                bad = blk.copy()
                bad[rows[q], cols[s]] += 1e-3
                m = replace(mor, psi={**mor.psi, (a, p, r): bad})
                check = next(c for c in validate_morphism(m).checks if c.name == "hexagon")
                assert not check.passed and abs(check.value - _hexagon_loop(m)) < 1e-14, (a, p, r, q, s)
                copies += 1
    assert copies > len(mor.psi)


def _restriction_loop(fx, fy, tol=DEFAULT_TOL):
    """Entry-by-entry form of ``restriction_morphism``'s exchange blocks: one trace per (row, column)."""
    pos_x = {g: i for i, g in enumerate(fx.subgroup.elements)}
    hy_in_hx = Subgroup(fx.subgroup.as_group, tuple(pos_x[g] for g in fy.subgroup.elements))
    fbases = {(p, r): np.sqrt(fy.base_dims[p]) * grouprep.intertwiner_basis(
        fy.irrep_table.irreps[p], grouprep.restrict(fx.irrep_table.irreps[r], hy_in_hx), tol)
        for p in range(fy.n_base) for r in range(fx.n_base)}
    psi = {}
    for a in fx.cat.labels:
        eye_a = np.eye(fx.cat.dim(a), dtype=np.complex128)
        for p in range(fy.n_base):
            for r in range(fx.n_base):
                comps = [tx @ fa for s in range(fx.n_base) for fa in fbases[(p, s)]
                         for tx in fx.mor_basis(a, s, r)]
                targets = [kron(eye_a, fb) @ ty for q in range(fy.n_base) for ty in fy.mor_basis(a, p, q)
                           for fb in fbases[(q, r)]]
                blk = [[np.trace(t.conj().T @ comp) / fy.base_dims[p] for comp in comps] for t in targets]
                psi[(a, p, r)] = np.array(blk, dtype=np.complex128).reshape(len(targets), len(comps))
    return psi


def test_restriction_matches_loop(restrictions):
    # one stacked product and one batched trace take the same BLAS calls and sums: equal bits
    for mor in restrictions:
        ref = _restriction_loop(mor.source, mor.target)
        assert mor.psi.keys() == ref.keys()
        for key, blk in mor.psi.items():
            assert blk.dtype == ref[key].dtype and np.array_equal(blk, ref[key]), key


def _assoc_einsum(ab, bc, left, right):
    """The n^4 form of ``_assoc_residual``: both bracketings as whole tensors."""
    assoc = np.einsum("pqu,urs->pqrs", ab, bc) - np.einsum("qru,pus->pqrs", left, right)
    return float(np.max(np.abs(assoc))) if assoc.size else 0.0


def _assoc_rows(ab, bc, left, right):
    """The dense row-GEMM form of ``_assoc_residual``: two whole GEMMs per row p."""
    nq, nr, nu = left.shape
    ns = bc.shape[2]
    bc_rows = bc.reshape(len(bc), nr * ns)
    left_rows = left.reshape(nq * nr, nu)
    worst = 0.0
    for p in range(len(ab)):
        d = ab[p] @ bc_rows - (left_rows @ right[p]).reshape(nq, nr * ns)
        worst = max(worst, float(np.max(np.abs(d), initial=0.0)))
    return worst


def _star_product_loop(t, s, sp, t_op):
    """Pair-by-pair form of (f g)* = g* f*: the ``antimultiplicative`` and ``star_exchanges_actions`` checks."""
    worst = 0.0
    for p in range(t.shape[0]):
        for q in range(t.shape[1]):
            lhs = s @ np.conj(t[p, q, :])
            rhs = np.einsum("u,v,uvr->r", s[:, q], sp[:, p], t_op)
            worst = max(worst, max_residual(lhs, rhs))
    return worst


def _multiplicative_loop(th, tx, ty):
    """Pair-by-pair form of the ``multiplicative`` check of ``verify_algebra_map``."""
    worst = 0.0
    for p in range(len(tx)):
        for q in range(len(tx)):
            lhs = th @ tx[p, q, :]
            rhs = np.einsum("p,q,pqr->r", th[:, p], th[:, q], ty)
            worst = max(worst, max_residual(lhs, rhs))
    return worst


def _gram_loop(alg):
    """Row-by-row form of ``gram_from_product``."""
    o = int(np.flatnonzero(alg.unit)[0])
    g = np.zeros((alg.dim, alg.dim), dtype=np.complex128)
    for p in range(alg.dim):
        g[p, :] = np.einsum("u,uqr->qr", alg.star_mat[:, p], alg.tensor)[:, o]
    return g


def _noisy(t, seed=0):
    """A copy moved by 1e-3 in every entry, so that no residual is at roundoff level."""
    rng = np.random.default_rng(seed)
    return t + 1e-3 * (rng.standard_normal(t.shape) + 1j * rng.standard_normal(t.shape))


def _values(cert):
    return {c.name: c.value for c in cert.checks}


def test_algebra_checks_match_loops(modules):
    for f in modules:
        for x in range(f.n_base):
            clean = build_algebra(f, x)
            # the star matrices of these algebras are symmetric; the noisy one is not
            for t, s in ((clean.tensor, clean.star_mat), (_noisy(clean.tensor), _noisy(clean.star_mat, 1))):
                alg = replace(clean, blocks={(0, 0, 0): t}, star=[s])
                got = _values(verify_algebra(alg))
                assert abs(got["associativity"] - _assoc_einsum(t, t, t, t)) < 1e-14, (f.name, x)
                # one block per axis: the dense GEMMs, bit for bit
                assert got["associativity"] == _assoc_rows(t, t, t, t), (f.name, x)
                assert abs(got["antimultiplicative"] - _star_product_loop(t, s, s, t)) < 1e-14, (f.name, x)
                assert max_residual(alg.gram_from_product(), _gram_loop(alg)) < 1e-14, (f.name, x)


def test_bimodule_checks_match_loops(modules):
    # corners whose size differs from the left algebra's: a transposed index fails here
    corners = [(f, x, y) for f in modules for x, y in product(range(f.n_base), repeat=2)
               if build_algebra(f, x).dim != build_bimodule(f, x, y).dim]
    assert len(corners) >= 4
    for f, x, y in corners:
        ax, ay = build_algebra(f, x), build_algebra(f, y)
        clean = build_bimodule(f, x, y)
        for lt, rt in ((clean.left_tensor, clean.right_tensor),
                       (_noisy(clean.left_tensor, 1), _noisy(clean.right_tensor, 2))):
            g = replace(f)
            g.memo[x, x, y], g.memo[x, y, y] = lt, rt
            bim = build_bimodule(g, x, y)
            got = _values(verify_bimodule(bim))
            assert abs(got["left_associativity"] - _assoc_einsum(ax.tensor, lt, lt, lt)) < 1e-14, (f.name, x, y)
            assert abs(got["right_associativity"] - _assoc_einsum(rt, rt, ay.tensor, rt)) < 1e-14, (f.name, x, y)
            assert abs(got["commuting_actions"] - _assoc_einsum(lt, rt, rt, lt)) < 1e-14, (f.name, x, y)
            assert got["left_associativity"] == _assoc_rows(ax.tensor, lt, lt, lt), (f.name, x, y)
            assert got["right_associativity"] == _assoc_rows(rt, rt, ay.tensor, rt), (f.name, x, y)
            assert got["commuting_actions"] == _assoc_rows(lt, rt, rt, lt), (f.name, x, y)
            ref = _star_product_loop(lt, bim.star_mat, ax.star_mat, structure_tensor(f, y, x, x))
            assert abs(got["star_exchanges_actions"] - ref) < 1e-14, (f.name, x, y)


def _uncomposable_bump(basis, t):
    """A copy with 1e-3 added at p in corner (0, 0), q in corner (1, 1): a product the algebra never forms."""
    q = next(i for i, b in enumerate(basis) if b[:2] == (1, 1))
    assert basis[0][:2] == (0, 0) and not t[0, q].any()
    bad = t.copy()
    bad[0, q, 0] += 1e-3
    return bad


def test_block_associativity_matches_einsum(modules, s4_over_s3, monkeypatch):
    # the block-sparse residual skips corner products that are exactly zero; the einsum forms them all
    pairs = [(f, x, y) for f in modules for x in range(f.n_base) for y in range(x + 1, f.n_base)]
    pairs.append((s4_over_s3, 0, 2))
    assert len(pairs) >= 10
    # read before any patch below: block_algebra calls block_structure_tensor
    cases = [(f, x, y, *block_structure_tensor(f, (x, y)), block_algebra(f, x, y).offsets) for f, x, y in pairs]
    for f, x, y, basis, corners, off in cases:
        tensor = dense_tensor(corners, off)
        for t in (tensor, _noisy(tensor), _uncomposable_bump(basis, tensor)):
            monkeypatch.setattr(reconstruct, "block_structure_tensor", lambda f, blocks: (basis, corner_blocks(t, off)))
            got = next(c for c in block_consistency(f, x, y).checks if c.name == "associativity")
            ref = _assoc_einsum(t, t, t, t)
            assert abs(got.value - ref) < 1e-14, (f.name, x, y)
            assert got.passed == (ref <= DEFAULT_TOL), (f.name, x, y)


def test_multiplicative_matches_loop(restrictions, s3_modules):
    # every algebra at a trivial base is commutative; the identity of S3 > S3
    # read at the two-dimensional base maps the noncommutative M_2 to itself
    full = s3_modules["full"]
    matrix_map = replace(restriction_morphism(full, full), x_base=2, y_base=2)
    assert build_algebra(full, 2).dim == 4
    for mor in [*restrictions, matrix_map]:
        noisy = replace(mor, psi={k: _noisy(v) for k, v in mor.psi.items()})
        for m in (mor, noisy):
            ref = _multiplicative_loop(algebra_map(m), build_algebra(m.source, m.x_base).tensor,
                                       build_algebra(m.target, m.y_base).tensor)
            assert abs(_values(verify_algebra_map(m))["multiplicative"] - ref) < 1e-14


def _recoupling_loop(cat, a, b, c):
    """Path-by-path form of ``tensorcat._recoupling_residual`` at one triple: the reference."""
    worst = 0.0
    dims = cat.obj_dim
    eye_c = np.eye(dims[c], dtype=np.complex128)
    eye_a = np.eye(dims[a], dtype=np.complex128)
    alpha_inv = np.conj(cat.assoc_table()[a, b, c])
    totals = set()
    for d in cat.channels(a, b):
        totals.update(cat.channels(d, c))
    for e in sorted(totals):
        left = []
        for d in cat.channels(a, b):
            for iota_ab in cat.isometries(a, b, d):
                for iota_dc in cat.isometries(d, c, e):
                    left.append(np.kron(iota_ab, eye_c) @ iota_dc)
        right = []
        for dd in cat.channels(b, c):
            for iota_bc in cat.isometries(b, c, dd):
                for iota_ad in cat.isometries(a, dd, e):
                    right.append(alpha_inv * (np.kron(eye_a, iota_bc) @ iota_ad))
        if len(left) != len(right):
            return float("inf")
        w = np.empty((len(left), len(right)), dtype=np.complex128)
        for i, x in enumerate(left):
            for j, y in enumerate(right):
                w[i, j] = np.trace(np.conj(x).T @ y) / dims[e]
        worst = max(worst, max_residual(np.conj(w).T @ w, np.eye(len(left))))
    return worst


def _with_noisy_isometry(cat, key, chan, k):
    """A copy of the category with the k-th fusion isometry of (key, chan) moved by 1e-3."""
    bad = list(cat.fusion[key][chan])
    bad[k] = _noisy(bad[k])
    return replace(cat, fusion={**cat.fusion, key: {**cat.fusion[key], chan: tuple(bad)}})


def test_recoupling_matches_loop(s3_cat, z4_pointed_cat, a4_modules):
    # the batched check against the worst of the per-triple loops, over every
    # (a, b, c); A4's 3 (x) 3 holds the 3 twice, Z8 has the standard cocycle
    a4 = a4_modules[0].cat
    three = next(a for a in a4.labels if a4.mult(a, a, a) == 2)
    z8 = tensorcat.from_pointed(tensorcat.standard_cyclic_cocycle(8))
    # noisy copies, so that the residuals are not at roundoff level
    noisy = [_with_noisy_isometry(s3_cat, (1, 1), s3_cat.channels(1, 1)[0], 0),
             _with_noisy_isometry(a4, (three, three), three, 1)]
    # and one with that second isometry dropped: the 3 x 3 channel 3 is no longer complete
    isos = a4.fusion[(three, three)]
    short = replace(a4, fusion={**a4.fusion, (three, three): {**isos, three: isos[three][:1]}})
    for cat in [s3_cat, z4_pointed_cat, a4, z8, *noisy, short]:
        got = tensorcat._recoupling_residual(cat, tensorcat.fusion_table(cat))
        ref = max(_recoupling_loop(cat, a, b, c) for a, b, c in product(cat.labels, repeat=3))
        assert abs(got - ref) < 1e-14, (cat.kind, len(cat.labels))
        assert (got <= DEFAULT_TOL) == (ref <= DEFAULT_TOL)
    assert all(tensorcat._recoupling_residual(cat, tensorcat.fusion_table(cat)) > DEFAULT_TOL for cat in [*noisy, short])


def _coset_bases_svd(cat, subgroup, mu=None, tol=DEFAULT_TOL):
    """Coset-module bases as the kernel of the grading and linearity constraints: the reference.

    Column j of the constraint matrix of each (a, s) is the image of the
    j-th unit matrix under the grading and linearity maps; its kernel, found
    by an SVD, is phase-fixed at its largest coordinate.
    """
    group = cat.pointed.group
    om, mul = cat.pointed.cocycle, group.mult_table
    k_el = np.array(subgroup.elements)
    nk = len(k_el)
    mu = np.ones((nk, nk), dtype=np.complex128) if mu is None else mu
    kpos = np.full(group.order, -1)
    kpos[k_el] = np.arange(nk)
    cosets = subgroup.left_cosets()
    reps_t = np.array([c[0] for c in cosets])
    coset_of = {g: r for r, coset in enumerate(cosets) for g in coset}
    grade = mul[reps_t[:, None], k_el[None, :]]
    # free[r, l]: e_k -> omega(t_r, k, l) mu(k, l) e_kl on X_r
    free = np.zeros((len(cosets), nk, nk, nk), dtype=np.complex128)
    for r, l, k in product(range(len(cosets)), range(nk), range(nk)):
        free[r, l, kpos[mul[k_el[k], k_el[l]]], k] = om[reps_t[r], k_el[k], k_el[l]] * mu[k, l]
    # the standard basis of the nk x nk matrices, one per column of the constraint matrix
    units = np.eye(nk * nk, dtype=np.complex128).reshape(-1, nk, nk)
    bases = {}
    for a in cat.labels:
        for s in range(len(cosets)):
            r = coset_of[mul[a, reps_t[s]]]
            allowed = mul[a, grade[s]][:, None] == grade[r][None, :]
            shifted = free[s] * om[a, grade[s][None, :], k_el[:, None]][:, None, :]
            grading = units[:, ~allowed]
            linearity = [(units @ free[r, l] - shifted[l] @ units).reshape(nk * nk, -1) for l in range(nk)]
            basis = solution_basis(np.hstack([grading, *linearity]).T, tol)
            if len(basis):
                bases[(a, r, s)] = np.sqrt(nk) * basis.reshape(-1, nk, nk)
    return bases


def _cyclic_subgroups(group):
    return sorted({Subgroup.generated(group, [g]).elements for g in range(group.order)})


def _klein_twisted():
    """Z2 x Z2 (element 2 a2 + a1) with K = G and mu(a, b) = (-1)^(a1 b2), a bilinear 2-cocycle."""
    el = np.arange(4)
    k4 = FiniteGroup(el[:, None] ^ el[None, :])
    mu = (-1.0 + 0j) ** ((el[:, None] & 1) * (el[None, :] >> 1))
    cat = tensorcat.from_pointed(tensorcat.PointedFusionData(k4, np.ones((4, 4, 4))))
    return cat, Subgroup(k4, tuple(range(4))), mu


def _trivial_pointed(group):
    return tensorcat.from_pointed(tensorcat.PointedFusionData(group, np.ones((group.order,) * 3)))


def _coset_cases(z4_pointed_cat, z4_trivial_pointed_cat, z4):
    cases = [(z4_pointed_cat, Subgroup.generated(z4, []), None),
             (z4_trivial_pointed_cat, Subgroup.generated(z4, [1]), None),
             _klein_twisted()]
    for group in (symmetric_group(3), dihedral_group(8)):
        cat = _trivial_pointed(group)
        cases += [(cat, Subgroup(group, k), None) for k in _cyclic_subgroups(group)]
    z8 = cyclic_group(8)
    cases.append((_trivial_pointed(z8), Subgroup(z8, (0, 4)), None))
    return cases


def test_coset_bases_match_svd_kernel(z4_pointed_cat, z4_trivial_pointed_cat, z4):
    cases = _coset_cases(z4_pointed_cat, z4_trivial_pointed_cat, z4)
    assert len(cases) == 3 + 5 + 12 + 1
    for cat, sub, mu in cases:
        got = module_from_pointed(cat, sub, mu=mu).bases
        ref = _coset_bases_svd(cat, sub, mu)
        assert got.keys() == ref.keys(), (cat.pointed.group.order, sub.elements)
        for key, t in got.items():
            assert t.shape == ref[key].shape == (1, len(sub.elements), len(sub.elements))
            # equal up to one unit phase, and the entry at (pi(e), e) is exactly 1
            z = np.vdot(ref[key], t) / np.vdot(ref[key], ref[key])
            assert abs(abs(z) - 1.0) < 1e-12 and max_residual(t, z * ref[key]) < 1e-12, key
            assert t[0, :, sub.elements.index(0)].tolist().count(1.0) == 1


def _tampered_z8(entry):
    """Z8 with the trivial cocycle, omega[3, 1, 4] set in place after the category is made."""
    cat = _trivial_pointed(cyclic_group(8))
    cat.pointed.cocycle[3, 1, 4] = entry
    return cat, Subgroup(cat.pointed.group, (0, 4))


def test_tampered_cocycle_drops_the_same_block():
    cat, sub = _tampered_z8(-1.0)
    got = module_from_pointed(cat, sub)
    ref = _coset_bases_svd(cat, sub)
    assert len(got.bases) == len(ref) == 31 and got.bases.keys() == ref.keys()
    failed = ["decomposition_count", "coherence_unitarity", "triple_coherence", "frobenius_dims"]
    for f in (got, _assemble(cat, "svd", got.base_dims, ref, got.handle, got.fuse, got.phase)):
        assert [c.name for c in validate_module(f).checks if not c.passed] == failed


def test_tampered_cocycle_near_threshold_refuses():
    cat, sub = _tampered_z8(np.exp(1e-9j))
    with pytest.raises(NumericalRankError):
        module_from_pointed(cat, sub)


def _coset_loop(cat, subgroup, mu=None, tol=DEFAULT_TOL):
    """Block-by-block form of ``module_from_pointed``'s bases, one ``above`` call per block: the reference."""
    group = cat.pointed.group
    om, mul = cat.pointed.cocycle, group.mult_table
    k_el = np.array(subgroup.elements, dtype=np.int64)
    nk = len(k_el)
    mu = np.ones((nk, nk), dtype=np.complex128) if mu is None else np.asarray(mu, dtype=np.complex128)
    kpos = np.full(group.order, -1, dtype=np.int64)
    kpos[k_el] = np.arange(nk)
    cosets = subgroup.left_cosets()
    reps_t = np.array([c[0] for c in cosets], dtype=np.int64)
    coset_of = np.empty(group.order, dtype=np.int64)
    for r, coset in enumerate(cosets):
        coset_of[list(coset)] = r
    grade = mul[reps_t[:, None], k_el[None, :]]
    rho = om[reps_t[:, None, None], k_el[None, :, None], k_el[None, None, :]] * mu
    prod = kpos[mul[k_el[:, None], k_el[None, :]]]
    e = int(kpos[group.identity])
    bases = {}
    for a in cat.labels:
        for s in range(len(cosets)):
            if a == UNIT_LABEL:
                bases[(a, s, s)] = np.eye(nk, dtype=np.complex128)[None]
                continue
            at = mul[a, reps_t[s]]
            r = int(coset_of[at])
            g = mul[group.inverse[at], reps_t[r]]
            perm = kpos[mul[g, k_el]]
            rho_s = rho[s] * om[a, grade[s][:, None], k_el[None, :]]
            c = rho_s[perm[e]] / rho[r, e]
            c[e] = 1.0
            res = max_residual(c[prod] * rho[r], c[:, None] * rho_s[perm])
            if not above(res, tol, f"module-map residual of block {(a, r, s)}"):
                t = np.zeros((1, nk, nk), dtype=np.complex128)
                t[0, perm, np.arange(nk)] = c
                bases[(a, r, s)] = t
    return bases


def _pointed_ladder():
    """The four twisted-coset cases of the ``pointed_ladder`` benchmark."""
    z8, z10, z12 = cyclic_group(8), cyclic_group(10), cyclic_group(12)
    cases = [(tensorcat.standard_cyclic_cocycle(8), (0,)), (tensorcat.standard_cyclic_cocycle(12), (0,)),
             (tensorcat.PointedFusionData(z10, np.ones((10, 10, 10))), tuple(range(10))),
             (tensorcat.PointedFusionData(z8, np.ones((8, 8, 8))), (0, 4))]
    return [(tensorcat.from_pointed(data), Subgroup(data.group, k), None) for data, k in cases]


def test_coset_build_matches_block_loop(z4_pointed_cat, z4_trivial_pointed_cat, z4):
    # every block solved in one pass and decided by one above call, against one solve and one call per
    # block: the same bits and the same key order
    for cat, sub, mu in _coset_cases(z4_pointed_cat, z4_trivial_pointed_cat, z4) + _pointed_ladder():
        got, ref = module_from_pointed(cat, sub, mu=mu).bases, _coset_loop(cat, sub, mu)
        assert list(got) == list(ref), (cat.pointed.group.order, sub.elements)
        assert all(got[key].shape == ref[key].shape and got[key].tobytes() == ref[key].tobytes() for key in ref)


def test_coset_build_names_the_refused_block():
    cat, sub = _tampered_z8(np.exp(1e-9j))
    with pytest.raises(NumericalRankError) as err:
        _coset_loop(cat, sub)
    with pytest.raises(NumericalRankError, match=re.escape(str(err.value).split(" [")[0])):
        module_from_pointed(cat, sub)


def _snake_loop(cat, a):
    """One label's two snake identities, matrix by matrix: the reference."""
    abar = cat.dual_map[a]
    eye_a, eye_bar = np.eye(cat.dim(a), dtype=np.complex128), np.eye(cat.dim(abar), dtype=np.complex128)
    r, rbar = cat.conj_solutions[a]
    assoc = cat.assoc_table()
    s1 = kron(dagger(rbar), eye_a) @ (np.conj(assoc[a, abar, a]) * kron(eye_a, r))
    s2 = kron(dagger(r), eye_bar) @ (np.conj(assoc[abar, a, abar]) * kron(eye_bar, rbar))
    return max_residual(s1, eye_a), max_residual(s2, eye_bar)


def test_snakes_match_label_loop(s3_cat, a4_modules, s4_over_s3):
    # the kernel over all labels, grouped by (d_a, d_abar), and snake_residuals on one label, against
    # the per-label products; rescaled stored pairs count, and so does a NaN in one of them
    z4, z12 = (tensorcat.from_pointed(tensorcat.standard_cyclic_cocycle(n)) for n in (4, 12))
    cats = [s3_cat, a4_modules[0].cat, s4_over_s3.cat, z4, z12, with_rescaled_conjugates(s4_over_s3.cat, 2.0 - 1j)]
    nan = replace(s3_cat, conj_solutions=dict(s3_cat.conj_solutions))
    nan.conj_solutions[2] = (nan.conj_solutions[2][0].copy(), nan.conj_solutions[2][1])
    nan.conj_solutions[2][0][1, 0] = np.nan
    for cat in [*cats, nan]:
        ref = np.array([_snake_loop(cat, a) for a in cat.labels])
        got = cat._snakes(cat.labels)
        assert got.shape == ref.shape and np.array_equal(np.isnan(got), np.isnan(ref))
        assert np.allclose(got, ref, rtol=0.0, atol=1e-14, equal_nan=True), (cat.kind, len(cat.labels))
        assert np.array_equal(got <= DEFAULT_TOL, ref <= DEFAULT_TOL)
        for a in cat.labels:
            assert np.array_equal(cat.snake_residuals(a), got[a], equal_nan=True)


def _flags_loop(cat, mod):
    """The ``fixedpoint_dims`` and ``component_roundtrip`` verdicts as counts of ``basis_triples``: the reference."""
    fixed, roundtrip = True, True
    for x, y in product(range(mod.n_base), repeat=2):
        triples = basis_triples(mod, x, y)
        fixed &= sum(1 for (a, m, i) in triples if a == UNIT_LABEL) == (1 if x == y else 0)
        roundtrip &= all(sum(1 for (aa, m, i) in triples if aa == a) == int(mod.dims[a, x, y]) * cat.dim(a)
                         for a in cat.labels)
    return {"fixedpoint_dims": fixed, "component_roundtrip": roundtrip}


def test_suite_flags_match_triple_counts(s3_modules, s4_over_s3, z4_pointed_module, z4_coset_module):
    mods = [*s3_modules.values(), s4_over_s3, z4_pointed_module, z4_coset_module]
    # a second unit morphism on X_0: the invariant part of corner (0, 0) is two-dimensional
    f = s3_modules["order2"]
    doubled = replace(f, dims=f.dims.copy())
    doubled.dims[UNIT_LABEL, 0, 0] = 2
    for mod in [*mods, doubled]:
        cert = run_suite(mod.cat, mod, suites=("fixedpoint", "roundtrip"))
        assert {c.name: c.passed for c in cert.checks} == _flags_loop(mod.cat, mod), mod.name
    assert [c.name for c in run_suite(f.cat, doubled, suites=("fixedpoint",)).checks if not c.passed] == \
        ["fixedpoint_dims"]


# ---------------------------------------------------------------- group layer


@pytest.fixture(scope="module")
def group_tables():
    """S3, A4 and S4 with their irreducibles; A4 and S4 have irreps of dimension 3."""
    even = [p for p in permutations(range(4))
            if sum(p[i] > p[j] for i in range(4) for j in range(i + 1, 4)) % 2 == 0]
    groups = [symmetric_group(3), group_from_permutations(even), symmetric_group(4)]
    return [extract_irreps(g, seed=0) for g in groups]


def _constraint_loop(u, v):
    """Column-by-column constraint matrix of the averaging projector, one outer product per term.

    v(g) E_ij u(g)^-1 is the outer product of column i of v(g) with row j of
    u(g)^-1; the terms of each matrix unit are added one g at a time, in g order.
    For a one-dimensional u each complex product is two real products and their
    sum, rounded apart.
    """
    group = u.group
    du, dv = u.dim, v.dim
    columns = []
    for i in range(dv):
        for j in range(du):
            acc = np.zeros((dv, du), dtype=np.complex128)
            for g in range(group.order):
                col, row = v.mats[g][:, i, None], u.mats[group.inv(g)][None, j, :]
                if du > 1:
                    acc += col * row
                else:
                    term = np.empty((dv, du), dtype=np.complex128)
                    term.real = col.real * row.real - col.imag * row.imag
                    term.imag = col.real * row.imag + col.imag * row.real
                    acc += term
            unit = np.zeros((dv, du), dtype=np.complex128)
            unit[i, j] = 1.0
            columns.append((acc / group.order - unit).ravel())
    return np.column_stack(columns)


def _constraint_matmul_loop(u, v):
    """Column-by-column constraint matrix of the tuple-of-matrices ``intertwiner_basis``."""
    group = u.group
    mats_u, mats_v = tuple(u.mats), tuple(v.mats)
    du, dv = u.dim, v.dim

    def avg_minus_id(vec):
        t = vec.reshape(dv, du)
        acc = np.zeros_like(t)
        for g in range(group.order):
            acc += mats_v[g] @ t @ mats_u[group.inv(g)]
        return (acc / group.order - t).ravel()

    eye = np.eye(du * dv, dtype=np.complex128)
    return np.column_stack([avg_minus_id(eye[:, j]) for j in range(du * dv)])


def _regular_loop(group):
    """The regular representation as a tuple of permutation matrices."""
    mats = []
    for g in range(group.order):
        m = np.zeros((group.order, group.order), dtype=np.complex128)
        for h in range(group.order):
            m[group.mul(g, h), h] = 1.0
        mats.append(m)
    return tuple(mats)


def test_tensor_rep_matches_kron_loop(group_tables):
    for table in group_tables:
        for u in table.irreps:
            for v in table.irreps:
                ref = np.stack([kron(mu, mv) for mu, mv in zip(tuple(u.mats), tuple(v.mats))])
                assert np.array_equal(tensor_rep(u, v).mats, ref)


def test_intertwiner_constraint_matches_loop(group_tables, monkeypatch):
    seen = []

    def recording(constraint, tol):
        seen.append(constraint)
        return solution_basis(constraint, tol)

    monkeypatch.setattr(grouprep, "solution_basis", recording)
    default, worst = grouprep.RUN_ENTRIES, 0.0
    for table in group_tables:
        reps = table.irreps
        for a, b, c in product(range(len(reps)), repeat=3):
            prod = tensor_rep(reps[a], reps[b])
            ref = _constraint_loop(reps[c], prod)
            # runs of many group elements, and runs of one
            for budget in (default, 1):
                monkeypatch.setattr(grouprep, "RUN_ENTRIES", budget)
                seen.clear()
                grouprep.intertwiner_basis(reps[c], prod)
                assert len(seen) == 1
                assert np.array_equal(seen[0], ref), (table.group.order, a, b, c, budget)
            worst = max(worst, max_residual(seen[0], _constraint_matmul_loop(reps[c], prod)))
    # one matmul pair per g rounds each term as that matmul does: numpy's own loop for 1 x 1
    # factors, which the outer products copy, otherwise the BLAS kernel.  Measured on an
    # AVX-512 CPU: 2.8e-17 away with the default OpenBLAS kernel, 1.1e-16 with
    # OPENBLAS_CORETYPE=Haswell, and 0 for every one-dimensional u with either kernel
    assert worst < 1e-15, worst


def test_regular_average_matches_loop(group_tables):
    for table in group_tables:
        group = table.group
        n = group.order
        reg = _regular_loop(group)
        for seed in range(3):
            rng = np.random.default_rng(seed)
            h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            h = (h + np.conj(h).T) / 2.0
            c = np.zeros((n, n), dtype=np.complex128)
            for g in range(n):
                c += reg[g] @ h @ reg[group.inv(g)]
            ref = (c + np.conj(c).T) / (2.0 * n)
            assert np.array_equal(_regular_average(group, h), ref), (n, seed)
        assert np.array_equal(regular_rep(group).mats, np.stack(reg))
