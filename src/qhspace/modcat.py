"""Module C*-categories over a category presentation, in bi-graded form.

A module category over the presented category is held as one frozen record,
``BigradedFunctor``: the dimensions of a finite set J of simple module
objects, the multiplicity tensor dims[a, r, s] = dim Mor(X_r, u_a (x) X_s),
a stacked isometry basis of every nonzero multiplicity space, the coherence
blocks of every iterated action against the fusion isometries of the
category, and the module associator as three phase tables.  Builders fill it
once: restriction to a subgroup (module = Rep(H) over Rep(G)), twisted coset
modules over a pointed category (Ostrik's (K, mu) data over Vec_G^omega).
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .certificate import Certificate
from .grouprep import IrrepExtractionError, IrrepTable, Subgroup, decompose, extract_irreps, restrict, tensor_rep
from .numkit import (DEFAULT_TOL, RUN_ENTRIES, NumericalRankError, above, largest, max_residual, stack_by_shape,
                     successors)
from .tensorcat import UNIT_LABEL, CategoryPresentation, CocycleError, fusion_table


class ModuleDataError(ValueError):
    pass


CoherenceIndex = namedtuple("CoherenceIndex", "code start rows cols ptr label col")


@dataclass(frozen=True, eq=False)
class BigradedFunctor:
    """Normal form of a module category: bi-graded multiplicity data.

    One record, filled once by a builder and read by everything downstream.

    - ``base_dims[r]`` is the dimension of the simple module object X_r.
    - ``dims[a, r, s]`` is dim Mor(X_r, u_a (x) X_s).
    - ``bases[(a, r, s)]`` stacks an isometry basis of that space, shape
      (dims[a, r, s], d_a d_s, d_r), for every nonzero block; the unit label
      has the exact identity matrix.
    - ``coherence`` is one 1-d buffer: the expansion of the iterated action
      against the fusion isometries (see ``_coherence_blocks``), block
      (a, b, r, t) after block, each a row-major matrix with rows (c, k, p),
      channels c ascending, and columns (s, m, n).
    - ``index``: per block with a column, in (a, b, r, t) order, its code
      ((a L + b) J + r) J + t, start, rows and cols; block i's labels s and
      first columns are label[u], col[u], ptr[i] <= u < ptr[i + 1].
    - The module associator on u_a (x) u_b (x) X_r is diagonal, with entry
      ``phase[handle[a], handle[b], r, k]`` at fibre coordinate (i, j, k);
      ``fuse[h1, h2]`` is the handle of a fused pair.  A subgroup module has
      one handle and all-ones phases; a coset module has handle = label,
      ``fuse`` = the group law and phase[g, h, r, k] = omega(g, h, t_r k).
    - ``subgroup`` and ``irrep_table`` (H and its irreducibles) are set for
      subgroup modules only.
    - ``memo`` holds the read-only corner structure tensors, keyed by
      (x, y, z), and star matrices, keyed by (x, y), that ``reconstruct``
      has built from this record.  It starts empty, also in a copy made
      with ``dataclasses.replace``; so do the cached ``edges`` and ``frobenius``.
    """

    cat: CategoryPresentation
    name: str
    base_dims: tuple[int, ...]
    dims: np.ndarray
    bases: dict[tuple[int, int, int], np.ndarray]
    coherence: np.ndarray
    index: CoherenceIndex
    handle: np.ndarray
    fuse: np.ndarray
    phase: np.ndarray
    subgroup: Subgroup | None = None
    irrep_table: IrrepTable | None = None
    memo: dict[tuple[int, ...], np.ndarray] = field(init=False, repr=False, default_factory=dict)

    @property
    def n_base(self) -> int:
        return len(self.base_dims)

    def mor_basis(self, a: int, r: int, s: int) -> np.ndarray:
        """The stacked basis of Mor(X_r, u_a (x) X_s); empty when the block is zero."""
        if (a, r, s) in self.bases:
            return self.bases[(a, r, s)]
        shape = (0, self.cat.dim(a) * self.base_dims[s], self.base_dims[r])
        return np.zeros(shape, dtype=np.complex128)

    def _entry(self, a: int, b: int, r: int, t: int) -> tuple[int, ...]:
        """(start, rows, cols, lo, hi) of block (a, b, r, t) in ``index``; zeros if absent."""
        ix, (nl, j, _) = self.index, self.dims.shape
        i = int(ix.code.searchsorted(key := ((a * nl + b) * j + r) * j + t))
        return (*(v.item(i) for v in ix[1:5]), ix.ptr.item(i + 1)) if ix.code[i:i + 1].tolist() == [key] else (0,) * 5

    def coherence_block(self, a: int, b: int, r: int, t: int) -> tuple[np.ndarray, dict[int, int]]:
        """Block (a, b, r, t) as a (rows, #columns) view and {s: its first column}; empty if absent."""
        start, rows, cols, lo, hi = self._entry(a, b, r, t)
        return (self.coherence[start:start + rows * cols].reshape(rows, cols),
                dict(zip(self.index.label[lo:hi].tolist(), self.index.col[lo:hi].tolist())))

    def coherence_blocks(self) -> dict[tuple[int, int, int, int], tuple[np.ndarray, dict[int, int]]]:
        """Every ``coherence_block`` with a column, keyed by (a, b, r, t)."""
        ix, (nl, j, _) = self.index, self.dims.shape
        keys = zip(*(v.tolist() for v in np.unravel_index(ix.code, (nl, nl, j, j))))
        label, col, ptr = ix.label.tolist(), ix.col.tolist(), ix.ptr.tolist()
        return {key: (self.coherence[at:at + nr * nc].reshape(nr, nc), dict(zip(label[u:v], col[u:v])))
                for key, at, nr, nc, u, v in zip(keys, *(arr.tolist() for arr in ix[1:4]), ptr, ptr[1:])}

    def coherence_channel(self, a: int, b: int, r: int, t: int, c: int) -> np.ndarray:
        """The (N_ab^c, dims[c, r, t], #columns) rows of channel c in block (a, b, r, t), a view."""
        (start, _, cols, _, _), chans = self._entry(a, b, r, t), self.cat.fusion[(a, b)]
        start += cols * sum([len(isos) * self.dims[e, r, t] for e, isos in chans.items() if e < c])
        k, p = len(chans.get(c, ())), self.dims[c, r, t]
        return self.coherence[start:start + k * p * cols].reshape(k, p, cols)

    @cached_property
    def edges(self) -> tuple:
        """One edge per basis morphism t in Mor(X_src, u_lab (x) X_dst), regrouped by shape; built once per record.

        (lab, src, dst, m, kind, pos, stacks): the edges run in (lab, src, dst,
        m) order, m is the place of t in its block, and t, reshaped to (d_lab,
        d_dst, d_src), is ``stacks[kind[i]][pos[i]]``.  Only the blocks of the
        shape (dims[a, r, s], d_a d_s, d_r) have edges.  A ``replace`` copy builds anew.
        """
        ldim, bdim = self.cat.obj_dim, self.base_dims
        keys = np.argwhere(self.dims)
        mult = self.dims[tuple(keys.T)]
        shaped = [self.mor_basis(a, r, s).shape == (n, ldim[a] * bdim[s], bdim[r])
                  for (a, r, s), n in zip(keys.tolist(), mult.tolist())]
        keys, mult = keys[shaped], mult[shaped]
        lab, src, dst = np.repeat(keys, mult, axis=0).T
        m = np.arange(len(lab)) - np.repeat(np.cumsum(mult) - mult, mult)
        kind, pos, stacks = stack_by_shape([self.bases[(a, r, s)].reshape(-1, ldim[a], bdim[s], bdim[r])
                                            for a, r, s in keys.tolist()])
        return lab, src, dst, m, kind, pos, stacks

    @cached_property
    def frobenius(self) -> tuple[list[tuple[np.ndarray, np.ndarray]], dict[tuple[int, int, int], np.ndarray]]:
        """(images, blocks), built once per record: (edges, ``_frobenius_images``) per shape and dual dimension,
        and each block's read-only ``frobenius_block``, one batched trace per group.  A ``replace`` copy builds anew."""
        lab, src, dst, _, kind, pos, stacks = self.edges
        dual, ldim, j = np.asarray(self.cat.dual_map), np.asarray(self.cat.obj_dim), self.n_base
        code = (lab * j + src) * j + dst
        edge, partner = successors(code, len(ldim) * j * j)((dual[lab] * j + dst) * j + src)
        group = kind * (ldim.max() + 1) + ldim[dual[lab]]
        images, traced = [], np.empty(len(edge), dtype=np.complex128)
        for g in np.flatnonzero(np.bincount(group)).tolist():
            sel, at = np.flatnonzero(group == g), np.flatnonzero(group[edge] == g)
            t = stacks[kind[sel[0]]][pos[sel]]
            imgs = _frobenius_images(self, lab[sel], dst[sel], t.reshape(len(sel), -1, t.shape[3]))
            images.append((sel, imgs))
            if len(at):  # every edge against each basis morphism of its dual block
                tbar = np.conj(stacks[kind[partner[at[0]]]][pos[partner[at]]].reshape(len(at), -1, t.shape[2]))
                traced[at] = np.trace(tbar.transpose(0, 2, 1) @ imgs[sel.searchsorted(edge[at])], axis1=-2, axis2=-1)
        traced = (traced / np.asarray(self.base_dims)[dst[edge]])[np.lexsort((edge, partner, code[edge]))]
        traced.flags.writeable = False  # the blocks are views of it, kept for the life of the record
        first = np.flatnonzero(np.diff(code, prepend=-1))  # the first edge of each block
        last = np.append(first[1:], len(lab))[:len(first)]
        ends = np.cumsum(np.bincount(edge, minlength=len(lab)))[last - 1].tolist()
        return images, {(lab.item(u), src.item(u), dst.item(u)): traced[lo:hi].reshape(-1, v - u)
                        for u, v, lo, hi in zip(first.tolist(), last.tolist(), [0] + ends, ends)}

    def frobenius_block(self, a: int, r: int, s: int) -> np.ndarray:
        """Matrix B[q, m] expanding each Frobenius image in the dual-label basis (dims[a, r, s] > 0)."""
        return self.frobenius[1][(a, r, s)]


def _conjugates(cat: CategoryPresentation, lab: np.ndarray, which: int) -> np.ndarray:
    """The canonical R (which=0) or Rbar (which=1) of each label, stacked; the labels share one dimension."""
    labels = np.flatnonzero(np.bincount(lab))
    stacked = np.stack([cat.canonical_conjugates(a)[which] for a in labels.tolist()])
    return stacked[np.searchsorted(labels, lab)]


def _frobenius_images(f: BigradedFunctor, lab: np.ndarray, dst: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Partners in Mor(X_dst, u_abar (x) X_src) of basis morphisms t[i] in Mor(X_src, u_lab[i] (x) X_dst).

    ``t`` stacks matrices of one shape.  Computed with the canonical conjugate
    pair, so the result never depends on user rescalings of the stored duality.
    """
    cat = f.cat
    abar = np.asarray(cat.dual_map)[lab]
    da, dbar, ds = cat.dim(int(lab[0])), cat.dim(int(abar[0])), f.base_dims[int(dst[0])]
    phi = np.tile(f.phase[f.handle[abar], f.handle[lab], dst, :ds], (1, dbar * da))
    lift = phi[:, :, None] * np.kron(_conjugates(cat, lab, 0), np.eye(ds, dtype=np.complex128))
    return np.kron(np.eye(dbar, dtype=np.complex128), np.conj(t).transpose(0, 2, 1)) @ lift


def _frobenius_back(f: BigradedFunctor, lab: np.ndarray, src: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Inverse of ``_frobenius_images``: from Mor(X_s, u_abar (x) X_src) back to Mor(X_src, u_lab (x) X_s)."""
    cat = f.cat
    abar = np.asarray(cat.dual_map)[lab]
    da, dbar, dr = cat.dim(int(lab[0])), cat.dim(int(abar[0])), f.base_dims[int(src[0])]
    phi_conj = np.conj(np.tile(f.phase[f.handle[lab], f.handle[abar], src, :dr], (1, da * dbar)))
    lifted = phi_conj[:, :, None] * np.kron(np.eye(da, dtype=np.complex128), g)
    rbar_dag = np.conj(_conjugates(cat, lab, 1)).transpose(0, 2, 1)
    fdag = np.kron(rbar_dag, np.eye(dr, dtype=np.complex128)) @ lifted
    return np.conj(fdag).transpose(0, 2, 1)


def _coherence_blocks(f: BigradedFunctor) -> BigradedFunctor:
    """``f`` with ``coherence`` and ``index``: the iterated action against the fusion channels, as one buffer.

    Column (s, m, n) of block (a, b, r, t) is the composable pair of basis
    morphisms t_a = (a, r, s, m) and t_b = (b, s, t, n); against the k-th
    fusion isometry iota into c and the p-th basis morphism t_c of
    Mor(X_r, u_c (x) X_t) its coefficient is

        coherence_channel(a, b, r, t, c)[k, p, col]
            = tr(t_c^* (iota^* (x) id_t) phi^* (id_a (x) t_b) t_a) / d_r,

    with phi the module associator on u_a (x) u_b (x) X_t.  Every coefficient
    is listed with index arrays and evaluated in stacked chains, one per run of
    one shape of (t_a, t_b, t_c, iota) whose live entries together stay within
    ``RUN_ENTRIES``.  Each stacked product acts on the same matrices, with the
    same memory layout, as a single product would, so no bit depends on the runs.
    """
    cat = f.cat
    lab, src, dst, m, kind, pos, stacks = f.edges
    (fa, fb, fc, _), fkind, fpos, fstacks = fusion_table(cat)
    nl, j = len(cat.obj_dim), f.n_base
    # columns, sorted by block and then by (s, m, n)
    e1, e2 = successors(src, j)(dst)
    block_code = ((lab[e1] * nl + lab[e2]) * j + src[e1]) * j + dst[e2]
    order = np.lexsort((e2, e1, dst[e1], block_code))
    e1, e2 = e1[order], e2[order]
    code, first, ncols = np.unique(block_code[order], return_index=True, return_counts=True)
    block = np.repeat(np.arange(len(first)), ncols)
    col = np.arange(len(e1)) - first[block]
    s_first = np.flatnonzero(np.diff(block * j + dst[e1], prepend=-1))  # first column of each s
    # coefficients: column x fusion isometry of (a, b) x basis morphism t_c of (c, r, t);
    # in (block, c, k, p, column) order they fill the blocks one after another
    ci, fi = successors(fa * nl + fb, nl * nl)(lab[e1] * nl + lab[e2])
    xi, e3 = successors((lab * j + src) * j + dst, nl * j * j)((fc[fi] * j + src[e1[ci]]) * j + dst[e2[ci]])
    ci, fi = ci[xi], fi[xi]
    where = np.empty_like(ci)
    where[np.lexsort((col[ci], m[e3], fi, block[ci]))] = np.arange(len(ci))

    size = np.bincount(block[ci], minlength=len(first))
    index = CoherenceIndex(code, np.cumsum(size) - size, size // ncols, ncols,
                           block[s_first].searchsorted(np.arange(len(first) + 1)), dst[e1[s_first]], col[s_first])
    buf = np.empty(len(ci), dtype=np.complex128)
    i1, i2 = e1[ci], e2[ci]
    ns = len(stacks)
    code = ((kind[i1] * ns + kind[i2]) * ns + kind[e3]) * len(fstacks) + fkind[fi]
    # distinct codes from bincount: np.unique without return_index or return_counts
    # costs 0.25 to 1 MB of RSS (it touches numpy.ma or more numpy code)
    for g in np.flatnonzero(np.bincount(code)).tolist():
        every = np.flatnonzero(code == g)
        (da, ds, dr), (db, dt, _), (dc, _, _) = (stacks[kind[e[every[0]]]].shape[1:] for e in (i1, i2, e3))
        step = max(1, RUN_ENTRIES // (da * ds * dr + db * dt * ds + (3 * dc * dt + dr) * dr
                                      + da * db * (dc + dt * (1 + da * ds + 2 * dr + dc * dt))))
        for sel in (every[lo:lo + step] for lo in range(0, len(every), step)):
            ta, tb, tc = (stacks[kind[e[sel[0]]]][pos[e[sel]]] for e in (i1, i2, e3))
            iota, n = fstacks[fkind[fi[sel[0]]]][fpos[fi[sel]]], len(sel)
            phi_conj = np.conj(np.tile(f.phase[f.handle[lab[i1[sel]]], f.handle[lab[i2[sel]]], dst[i2[sel]], :dt],
                                       (1, da * db)))
            lift = np.kron(np.eye(da, dtype=np.complex128), tb.reshape(n, db * dt, ds))
            comp = phi_conj[:, :, None] * (lift @ ta.reshape(n, da * ds, dr))
            proj = np.kron(np.conj(iota).transpose(0, 2, 1), np.eye(dt, dtype=np.complex128)) @ comp
            tc_dag = np.conj(tc.reshape(n, -1, dr)).transpose(0, 2, 1)
            buf[where[sel]] = np.trace(tc_dag @ proj, axis1=-2, axis2=-1) / dr

    return replace(f, coherence=buf, index=index)


def _assemble(cat: CategoryPresentation, name: str, base_dims: tuple[int, ...],
              bases: dict[tuple[int, int, int], np.ndarray], handle: np.ndarray,
              fuse: np.ndarray, phase: np.ndarray, subgroup: Subgroup | None = None,
              irrep_table: IrrepTable | None = None) -> BigradedFunctor:
    """The record of the given bases and phases, with dims and coherence filled in."""
    j = len(base_dims)
    dims = np.zeros((len(cat.obj_dim), j, j), dtype=np.int64)
    for key, stack in bases.items():
        dims[key] = len(stack)
    f = BigradedFunctor(cat, name, tuple(base_dims), dims, bases, None, None, handle, fuse, phase, subgroup,
                        irrep_table)
    return _coherence_blocks(f)


def module_from_subgroup(cat: CategoryPresentation, subgroup: Subgroup,
                         irreps: IrrepTable | None = None, tol: float = DEFAULT_TOL) -> BigradedFunctor:
    """Representations of a subgroup H as a module over Rep(G).

    Simple module objects are the irreducibles of H: the table ``irreps``,
    which must be on ``subgroup.as_group`` and which the caller has
    validated (a project's stored table), or, when it is None, the table
    ``extract_irreps`` gives with seed 0.  The category acts by
    restricting a representation of G to H and tensoring; the blocks
    (a, ., s) are ``grouprep.decompose`` of a (x) X_s, whose refusals are
    raised as ``ModuleDataError``.  All associators are identities because
    everything lives on concrete tensor products.
    """
    if cat.kind != "group" or cat.reps is None:
        raise ModuleDataError("subgroup module needs a group-backed category")
    if not np.array_equal(subgroup.parent.mult_table, cat.reps[0].group.mult_table):
        raise ModuleDataError("subgroup does not belong to the category's group")
    h = subgroup.as_group
    table = extract_irreps(h, seed=0, tol=tol) if irreps is None else irreps
    if table.group is not h and not np.array_equal(table.group.mult_table, h.mult_table):
        raise ModuleDataError("irrep table is not on the subgroup's group")
    base_dims = tuple(x.dim for x in table.irreps)
    bases = {(UNIT_LABEL, r, r): np.eye(d, dtype=np.complex128)[None]
             for r, d in enumerate(base_dims)}
    for a in cat.labels:
        if a == UNIT_LABEL:
            continue
        restricted = restrict(cat.reps[a], subgroup)
        for s, xs in enumerate(table.irreps):
            try:
                found = decompose(table.irreps, tensor_rep(restricted, xs), tol)
            except IrrepExtractionError as err:
                raise ModuleDataError(f"block ({a}, r, {s}): {err}") from err
            for r, basis in found.items():
                bases[(a, r, s)] = np.sqrt(base_dims[r]) * basis
    n_labels, j = len(cat.obj_dim), len(base_dims)
    return _assemble(
        cat, f"subgroup[{len(subgroup.elements)}]", base_dims, bases,
        handle=np.zeros(n_labels, dtype=np.int64), fuse=np.zeros((1, 1), dtype=np.int64),
        phase=np.ones((1, 1, j, max(base_dims)), dtype=np.complex128),
        subgroup=subgroup, irrep_table=table,
    )


def _check_coboundary(om: np.ndarray, mul: np.ndarray, k_el: np.ndarray,
                      kpos: np.ndarray, mu: np.ndarray) -> None:
    """d(mu)(k,l,m) = mu(l,m) mu(k,lm) / (mu(kl,m) mu(k,l)) must equal omega on K."""
    i, j, h = np.ix_(*(np.arange(len(k_el)),) * 3)
    jh = kpos[mul[k_el[j], k_el[h]]]
    ij = kpos[mul[k_el[i], k_el[j]]]
    dmu = mu[j, h] * mu[i, jh] / (mu[ij, h] * mu[i, j])
    bad = np.argwhere(~(np.abs(dmu - om[k_el[i], k_el[j], k_el[h]]) <= 1e-10))
    if bad.size:
        k, l, m = k_el[bad[0]].tolist()
        raise CocycleError(f"coboundary of the 2-cochain differs from the cocycle at ({k},{l},{m})")


def module_from_pointed(cat: CategoryPresentation, subgroup: Subgroup,
                        mu: np.ndarray | None = None, tol: float = DEFAULT_TOL) -> BigradedFunctor:
    """Twisted coset module over a pointed category.

    Given a subgroup K of the pointed category's group and a 2-cochain mu on
    K whose coboundary matches the restricted 3-cocycle, the simple module
    objects are indexed by the left cosets of K; each is the free rank-one
    module over the mu-twisted group algebra of K, with basis labeled by K.
    Basis vector k of X_r has grade t_r k, with t_r the first element of the
    r-th coset.

    Every space Mor(X_r, delta_a (x) X_s) is at most one-dimensional, and its
    generator is written down in closed form.  Right multiplication by l sends
    e_j in X_r to rho_r(j, l) e_jl, with rho_r(j, l) = omega(t_r, j, l) mu(j, l),
    and e_i in delta_a (x) X_s to rho_s(i, l) e_il, with rho_s(i, l) =
    omega(t_s, i, l) mu(i, l) omega(a, t_s i, l).  Let g be the element of K
    with a t_s g = t_r.  A grading-preserving map sends e_j to c_j e_pi(j),
    pi(j) = g j, and it is a module map iff c_jl rho_r(j, l) = c_j rho_s(pi(j), l)
    for all j, l.  The pivot convention fixes c_e = 1, so the entry at
    (pi(e), e) is exactly 1; then c_l = rho_s(g, l) / rho_r(e, l).  The |K|^2
    equations of all blocks are checked together, in runs, and one ``above``
    call drops each block whose residual exceeds ``tol`` (its space is zero);
    a residual within a factor 10 of ``tol`` raises ``NumericalRankError``.
    """
    if cat.kind != "pointed" or cat.pointed is None:
        raise ModuleDataError("coset module needs a pointed category")
    group = cat.pointed.group
    if not np.array_equal(subgroup.parent.mult_table, group.mult_table):
        raise ModuleDataError("subgroup does not belong to the category's group")
    om, mul = cat.pointed.cocycle, group.mult_table
    k_el = np.array(subgroup.elements, dtype=np.int64)
    nk = len(k_el)
    mu = np.ones((nk, nk), dtype=np.complex128) if mu is None else np.asarray(mu, dtype=np.complex128)
    if mu.shape != (nk, nk):
        raise ModuleDataError("2-cochain shape does not match the subgroup order")
    if not np.max(np.abs(np.abs(mu) - 1.0)) <= 1e-12:  # NaN is refused
        raise ModuleDataError("2-cochain values must be unit modulus")
    kpos = np.full(group.order, -1, dtype=np.int64)
    kpos[k_el] = np.arange(nk)
    _check_coboundary(om, mul, k_el, kpos, mu)

    least = subgroup.coset_least  # the cosets are numbered by their least elements, ascending
    reps_t = np.flatnonzero(least == np.arange(group.order))
    coset_of = np.searchsorted(reps_t, least)
    grade = mul[reps_t[:, None], k_el[None, :]]
    # rho[r, j, l] = rho_r(j, l); prod[j, l] is the position of jl in K
    rho = om[reps_t[:, None, None], k_el[None, :, None], k_el[None, None, :]] * mu
    prod = kpos[mul[k_el[:, None], k_el[None, :]]]
    e = int(kpos[group.identity])

    # every block (a, s) of a non-unit label, in (a, s) order, in runs of 8 nk^2 live entries per block
    j = len(reps_t)
    a, s = np.divmod(np.arange(j, j * len(cat.labels)), j)
    r = coset_of[at := mul[a, reps_t[s]]]
    perm = kpos[mul[mul[group.inverse[at], reps_t[r]][:, None], k_el]]
    c, res = np.empty((len(a), nk), dtype=np.complex128), np.empty(len(a))
    step = max(1, RUN_ENTRIES // (8 * nk * nk))
    for b in (slice(lo, lo + step) for lo in range(0, len(a), step)):
        rho_s = rho[s[b]] * om[a[b, None, None], grade[s[b]][:, :, None], k_el]
        run = np.arange(len(rho_s))
        c[b] = rho_s[run, perm[b, e]] / rho[r[b], e]
        c[b, e] = 1.0
        res[b] = np.abs(c[b][:, prod] * rho[r[b]] - c[b, :, None] * rho_s[run[:, None], perm[b]]).max(axis=(1, 2))
    keys = list(zip(a.tolist(), r.tolist(), s.tolist()))
    try:  # one decision for every block; a refusal is made again block by block, to name the first
        live = np.flatnonzero(~above(res, tol, "module-map residual"))
    except NumericalRankError:
        any(above(v, tol, f"module-map residual of block {key}") for key, v in zip(keys, res.tolist()))
        raise
    t = np.zeros((len(live), 1, nk, nk), dtype=np.complex128)
    t[np.arange(len(live))[:, None], 0, perm[live], np.arange(nk)] = c[live]
    bases = {(UNIT_LABEL, x, x): np.eye(nk, dtype=np.complex128)[None] for x in range(j)}
    bases.update(zip([keys[i] for i in live.tolist()], t))
    return _assemble(cat, f"coset[{nk}]", (nk,) * j, bases,
                     handle=np.arange(group.order), fuse=mul, phase=om[:, :, grade])


def _strongly_connected(adj: np.ndarray) -> bool:
    """True iff every node reaches every other: the reachability closure, by repeated squaring, is full."""
    reach = (adj | np.eye(len(adj), dtype=bool)).astype(np.int64)
    for _ in range(len(adj).bit_length()):
        reach = np.minimum(reach @ reach, 1)
    return len(adj) > 0 and bool(reach.all())


def validate_module(f: BigradedFunctor, tol: float = DEFAULT_TOL) -> Certificate:
    """Check the structural axioms of the bi-graded presentation."""
    cert = Certificate(subject=f"module[{f.name}]", tolerance=tol)
    cat, dims = f.cat, f.dims
    ldim, bdim = np.asarray(cat.obj_dim), np.asarray(f.base_dims)

    cert.add_flag("unit_grading", "unit label acts as the identity grading",
                  np.array_equal(dims[UNIT_LABEL], np.eye(f.n_base, dtype=np.int64)))
    exact_unit = largest([max_residual(u[0], np.eye(d)) if len(u := f.mor_basis(UNIT_LABEL, r, r)) and
                          u.shape[1:] == (d, d) else np.inf for r, d in enumerate(f.base_dims)])
    cert.add("unit_basis", "unit morphism basis is the identity matrix", exact_unit)

    lab, src, dst, _, kind, pos, stacks = f.edges
    iso = []
    for stack in stacks:
        t = stack.reshape(len(stack), -1, stack.shape[3])
        iso.append(max_residual(np.conj(t).transpose(0, 2, 1) @ t, np.eye(t.shape[2])))
    # a block of another shape has no edges, and fails with inf
    cert.add("morphism_isometry", "module morphism bases are isometries",
             largest(iso) if len(lab) == dims.sum() else np.inf)

    cert.add_flag(
        "decomposition_count",
        "acting on a simple object decomposes with matching total dimension",
        np.array_equal(ldim[:, None] * bdim[None, :], np.einsum("ars,r->as", dims, bdim)),
    )

    # every block with a column, gathered from the buffer and multiplied once per matrix shape
    coh, (starts, rows, cols) = [], f.index[1:4]
    width = int(cols.max(initial=0)) + 1
    shape = rows * width + cols
    for g in np.flatnonzero(np.bincount(shape)).tolist():
        (nr, nc), at = divmod(g, width), starts[shape == g]
        u = f.coherence[at[:, None] + np.arange(nr * nc)].reshape(len(at), nr, nc)
        u_dag = np.conj(u).transpose(0, 2, 1)
        coh.append(max_residual(u_dag @ u, np.eye(nc)))
        if nr:
            coh.append(max_residual(u @ u_dag, np.eye(nr)))
    cert.add("coherence_unitarity", "iterated-action coherence blocks are unitary", largest(coh))

    cert.add(
        "triple_coherence",
        "the two bracketings of a triple action agree",
        _triple_coherence_residual(f),
    )

    cert.add_flag(
        "frobenius_dims",
        "multiplicity dims are symmetric under (a,r,s) -> (dual a, s, r)",
        np.array_equal(dims, dims[list(cat.dual_map)].transpose(0, 2, 1)),
    )

    frob_rt = [max_residual(_frobenius_back(f, lab[sel], src[sel], imgs).reshape(-1, *stacks[kind[sel[0]]].shape[1:]),
                            stacks[kind[sel[0]]][pos[sel]]) for sel, imgs in f.frobenius[0]]
    cert.add("frobenius_roundtrip", "dual-label pairing composes to the identity", largest(frob_rt))

    cert.add_flag("connectedness", "every base label reaches every other",
                  _strongly_connected(dims.sum(axis=0) > 0))
    return cert


def _triple_coherence_residual(f: BigradedFunctor) -> float:
    """Compare the two bracketings of acting by a, then b, then c, on every composable chain.

    For t_a = (a,r,s,m), t_b = (b,s,t,n), t_c = (c,t,w,o), fusing a, b first
    gives phi2 (id_ab (x) t_c) phi1 (id_a (x) t_b) t_a, and fusing b, c first,
    pulled back through the associator, alpha phi4 (id_a (x) phi3 (id_b (x)
    t_c) t_b) t_a.  The diagonal phi_i read only the X_t (phi1) or X_w
    coordinate, so each side is sum_t t_c[C, w, t] (t_b t_a)[a, B, t, r] times
    a phase per (w, t); left - right puts the phase defect F[w, t] = phi2[w]
    phi1[t] - alpha phi3[w] phi4[w] on t_c.  Pairs sorted by shape are cut
    into runs whose live entries together stay within ``RUN_ENTRIES``; a run
    forms t_b t_a once per pair and t_c times it once per chain, batched by shape.
    """
    handle, fuse, alpha_conj = f.handle, f.fuse, np.conj(f.cat.assoc_table())
    nh, _, j, width = f.phase.shape
    rows = np.conj(f.phase).reshape(-1, width)  # row (h1 * nh + h2) * j + x is phase[h1, h2, x]
    lab, src, dst, _, kind, pos, stacked = f.edges
    ldim, bdim, ns, hlab = np.asarray(f.cat.obj_dim), np.asarray(f.base_dims), len(stacked), handle[lab]
    by_dst = [stack.transpose(0, 2, 1, 3).copy() for stack in stacked]  # [i, dst, lab, src]
    chains = successors(src, j)  # the edges leaving each node, sorted once for every run
    first, second = chains(dst)
    by_shape = np.argsort(kind[first] * ns + kind[second], kind="stable")
    first, second = first[by_shape], second[by_shape]
    # a pair keeps its factors and product, and the live entries of its chains, one per (c, t, w) leaving
    # t; an int64 or a float counts half
    da, db, dr, ds, dt = ldim[lab[first]], ldim[lab[second]], bdim[src[first]], bdim[src[second]], bdim[dst[second]]
    n3, cw, w3 = (np.bincount(src, x, j)[dst[second]] for x in (None, ldim[lab] * bdim[dst], bdim[dst]))
    weight = ds * da * dr + dt * db * ds + (n3 + 1) * dt * db * da * dr + n3 * (5 * width + 8) + 4 + w3 * dt
    weight += cw * (2 * dt + 1.5 * db * da * dr)
    run = (np.cumsum(weight) - weight) // RUN_ENTRIES
    cuts = [0, *(np.flatnonzero(np.diff(run)) + 1).tolist(), len(first)]
    worst = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        e1, e2 = first[lo:hi], second[lo:hi]
        seg = [0, *(np.flatnonzero(np.diff(kind[e1] * ns + kind[e2])) + 1).tolist(), hi - lo]
        prods = []  # [pair, t, (b, a, r)], per pair shape
        for u, v in zip(seg[:-1], seg[1:]):
            ta, tb = by_dst[kind[e1[u]]][pos[e1[u:v]]], by_dst[kind[e2[u]]][pos[e2[u:v]]]
            (n, ds, _, _), dt = ta.shape, tb.shape[1]
            prods.append((tb.reshape(n, -1, ds) @ ta.reshape(n, ds, -1)).reshape(n, dt, -1))
        ha, hb, ab = hlab[e1], hlab[e2], lab[e1] * len(ldim) + lab[e2]
        pair, e3 = chains(dst[e2])
        chain_kind = np.repeat(np.arange(len(prods)), np.diff(seg))[pair] * ns + kind[e3]
        order = np.argsort(chain_kind, kind="stable")
        pair, e3, chain_kind = pair[order], e3[order], chain_kind[order]
        hc, w = hlab[e3], dst[e3]
        phi1 = rows.take(((ha * nh + hb) * j + dst[e2])[pair], axis=0)
        phi2 = rows.take((fuse[ha, hb][pair] * nh + hc) * j + w, axis=0)
        phi34 = rows.take((hb[pair] * nh + hc) * j + w, axis=0)
        phi34 *= rows.take((ha[pair] * nh + fuse[hb[pair], hc]) * j + w, axis=0)
        phi34 *= alpha_conj.reshape(-1, len(ldim))[ab[pair], lab[e3], None]
        ends = [0, *(np.flatnonzero(np.diff(chain_kind)) + 1).tolist(), len(chain_kind)]
        for g, h in zip(ends[:-1], ends[1:]):
            at, k3 = divmod(int(chain_kind[g]), ns)
            tc = stacked[k3][pos[e3[g:h]]]
            (n, dc, dw, dt), p = tc.shape, prods[at][pair[g:h] - seg[at]]
            defect = phi2[g:h, :dw, None] * phi1[g:h, None, :dt] - phi34[g:h, :dw, None]
            worst.append(np.max(np.abs((tc * defect[:, None]).reshape(n, dc * dw, dt) @ p)))
    return largest(worst)
