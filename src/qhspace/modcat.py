"""Module C*-categories over a category presentation, in bi-graded form.

A module category over the presented category is held as one frozen record,
``BigradedFunctor``: the dimensions of a finite set J of simple module
objects, the multiplicity tensor dims[a, r, s] = dim Mor(X_r, u_a (x) X_s),
a stacked isometry basis of every nonzero multiplicity space, the coherence
blocks of every iterated action against the fusion isometries of the
category, and the module associator as three phase tables.  Builders fill it
once: restriction to a subgroup (module = Rep(H) over Rep(G)), twisted coset
modules over a pointed category (Ostrik's (K, mu) data over Vec_G^omega),
and the disjoint union of two records.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .certificate import Certificate
from .grouprep import IrrepTable, Subgroup, UnitaryRep, extract_irreps, intertwiner_basis, restrict, tensor_rep
from .numkit import DEFAULT_TOL, dagger, kron, max_residual, solution_basis
from .tensorcat import UNIT_LABEL, CategoryPresentation, CocycleError


class ModuleDataError(Exception):
    pass


@dataclass(frozen=True, eq=False)
class BigradedFunctor:
    """Normal form of a module category: bi-graded multiplicity data.

    One record, filled once by a builder and read by everything downstream.

    - ``base_dims[r]`` is the dimension of the simple module object X_r.
    - ``dims[a, r, s]`` is dim Mor(X_r, u_a (x) X_s).
    - ``bases[(a, r, s)]`` stacks an isometry basis of that space, shape
      (dims[a, r, s], d_a d_s, d_r), for every nonzero block; the unit label
      has the exact identity matrix.
    - ``coherence[(a, b, r, t)]`` holds, for every block with at least one
      column (s, m, n), the expansion of the iterated action against the
      fusion isometries (see ``_coherence``).
    - The module associator on u_a (x) u_b (x) X_r is diagonal, with entry
      ``phase[handle[a], handle[b], r, k]`` at fibre coordinate (i, j, k);
      ``fuse[h1, h2]`` is the handle of a fused pair.  A subgroup module has
      one handle and all-ones phases; a coset module has handle = label,
      ``fuse`` = the group law and phase[g, h, r, k] = omega(g, h, t_r k).
    - ``subgroup`` and ``irrep_table`` (H and its irreducibles) are set for
      subgroup modules only.
    """

    cat: CategoryPresentation
    name: str
    base_dims: tuple[int, ...]
    dims: np.ndarray
    bases: dict[tuple[int, int, int], np.ndarray]
    coherence: dict[tuple[int, int, int, int], dict[int, np.ndarray]]
    handle: np.ndarray
    fuse: np.ndarray
    phase: np.ndarray
    subgroup: Subgroup | None = None
    irrep_table: IrrepTable | None = None

    @property
    def n_base(self) -> int:
        return len(self.base_dims)

    def mor_basis(self, a: int, r: int, s: int) -> np.ndarray:
        """The stacked basis of Mor(X_r, u_a (x) X_s); empty when the block is zero."""
        if (a, r, s) in self.bases:
            return self.bases[(a, r, s)]
        shape = (0, self.cat.dim(a) * self.base_dims[s], self.base_dims[r])
        return np.zeros(shape, dtype=np.complex128)

    def fibre_phases(self, a: int, b: int, r: int) -> np.ndarray:
        """Diagonal of the module associator on u_a (x) u_b (x) X_r."""
        row = self.phase[self.handle[a], self.handle[b], r, : self.base_dims[r]]
        return np.tile(row, self.cat.dim(a) * self.cat.dim(b))

    def columns(self, a: int, b: int, r: int, t: int) -> list[tuple[int, int, int]]:
        """Ordered index triples (s, m, n) for F_{rs}(a) (x) F_{st}(b)."""
        cols = []
        for s in range(self.n_base):
            for m in range(int(self.dims[a, r, s])):
                for n in range(int(self.dims[b, s, t])):
                    cols.append((s, m, n))
        return cols

    def frobenius_image(self, a: int, r: int, s: int, m: int,
                        pair: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
        """The partner in Mor(X_s, u_abar (x) X_r) of the m-th basis morphism.

        Computed with the canonical conjugate pair unless one is supplied, so
        the result never depends on user rescalings of the stored duality.
        """
        abar = self.cat.dual_map[a]
        dbar = self.cat.dim(abar)
        ds = self.base_dims[s]
        rvec = (self.cat.canonical_conjugates(a) if pair is None else pair)[0]
        ta = self.mor_basis(a, r, s)[m]
        phi = self.fibre_phases(abar, a, s)
        lift = phi[:, None] * kron(rvec.reshape(-1, 1), np.eye(ds, dtype=np.complex128))
        return kron(np.eye(dbar, dtype=np.complex128), dagger(ta)) @ lift

    def frobenius_back(self, a: int, r: int, g: np.ndarray,
                       pair: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
        """Inverse direction: from Mor(X_s, u_abar (x) X_r) back to Mor(X_r, u_a (x) X_s)."""
        da = self.cat.dim(a)
        dr = self.base_dims[r]
        rbar = (self.cat.canonical_conjugates(a) if pair is None else pair)[1]
        abar = self.cat.dual_map[a]
        phi_conj = np.conj(self.fibre_phases(a, abar, r))
        lifted = phi_conj[:, None] * (kron(np.eye(da, dtype=np.complex128), g))
        fdag = kron(dagger(rbar), np.eye(dr, dtype=np.complex128)) @ lifted
        return dagger(fdag)

    def frobenius_block(self, a: int, r: int, s: int,
                        pair: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
        """Matrix B[q, m] expanding each Frobenius image in the dual-label basis."""
        abar = self.cat.dual_map[a]
        tbars = self.mor_basis(abar, s, r)
        na = int(self.dims[a, r, s])
        ds = self.base_dims[s]
        out = np.zeros((len(tbars), na), dtype=np.complex128)
        for m in range(na):
            img = self.frobenius_image(a, r, s, m, pair)
            for q, tb in enumerate(tbars):
                out[q, m] = np.trace(dagger(tb) @ img) / ds
        return out


def _coherence(f: BigradedFunctor, a: int, b: int, r: int, t: int) -> dict[int, np.ndarray]:
    """Coefficients of iterated action against the fusion channels.

    For each channel c the array has shape (N_ab^c, dim F_rt(c), #columns)
    and holds the expansion of phi* (id_a (x) g) f through the fusion
    isometry iota^c_k in the chosen basis of Mor(X_r, u_c (x) X_t).  The
    block must have at least one column.
    """
    cat = f.cat
    da = cat.dim(a)
    dr, dt = f.base_dims[r], f.base_dims[t]
    phi_conj = np.conj(f.fibre_phases(a, b, t))
    eye_a = np.eye(da, dtype=np.complex128)
    eye_t = np.eye(dt, dtype=np.complex128)
    # columns in (s, m, n) order: per s, (I_a (x) t_b[n]) @ t_a[m] as one batched matmul
    blocks = []
    for s in np.flatnonzero(f.dims[a, r] * f.dims[b, :, t]).tolist():
        lifted = np.stack([kron(eye_a, tb) for tb in f.bases[(b, s, t)]])
        comp = lifted[None] @ f.bases[(a, r, s)][:, None]
        blocks.append(comp.reshape(-1, *comp.shape[2:]))
    composites = phi_conj[:, None] * np.concatenate(blocks)
    out: dict[int, np.ndarray] = {}
    for c in cat.channels(a, b):
        tcs = f.mor_basis(c, r, t)
        arr = np.zeros((cat.mult(a, b, c), len(tcs), len(composites)), dtype=np.complex128)
        if len(tcs):
            tcs_dag = np.conj(tcs).transpose(0, 2, 1)[:, None]
            for k, iota in enumerate(cat.isometries(a, b, c)):
                proj = kron(dagger(iota), eye_t) @ composites
                arr[k] = np.trace(tcs_dag @ proj[None], axis1=-2, axis2=-1) / dr
        out[c] = arr
    return out


def _assemble(cat: CategoryPresentation, name: str, base_dims: tuple[int, ...],
              bases: dict[tuple[int, int, int], np.ndarray], handle: np.ndarray,
              fuse: np.ndarray, phase: np.ndarray, subgroup: Subgroup | None = None,
              irrep_table: IrrepTable | None = None) -> BigradedFunctor:
    """The record of the given bases and phases, with dims and coherence filled in."""
    j = len(base_dims)
    dims = np.zeros((len(cat.obj_dim), j, j), dtype=np.int64)
    for key, stack in bases.items():
        dims[key] = len(stack)
    f = BigradedFunctor(cat, name, tuple(base_dims), dims, bases, {}, handle, fuse, phase,
                        subgroup, irrep_table)
    linked = np.argwhere(np.einsum("ars,bst->abrt", dims, dims))
    return replace(f, coherence={key: _coherence(f, *key) for key in map(tuple, linked.tolist())})


def module_from_subgroup(cat: CategoryPresentation, subgroup: Subgroup,
                         seed: int = 0, tol: float = DEFAULT_TOL) -> BigradedFunctor:
    """Representations of a subgroup H as a module over Rep(G).

    Simple module objects are the irreducibles of H; the category acts by
    restricting a representation of G to H and tensoring.  All associators
    are identities because everything lives on concrete tensor products.
    """
    if cat.kind != "group" or cat.reps is None:
        raise ModuleDataError("subgroup module needs a group-backed category")
    if not np.array_equal(subgroup.parent.mult_table, cat.reps[0].group.mult_table):
        raise ModuleDataError("subgroup does not belong to the category's group")
    table = extract_irreps(subgroup.as_group, seed=seed, tol=tol)
    base_dims = tuple(x.dim for x in table.irreps)
    bases = {(UNIT_LABEL, r, r): np.eye(d, dtype=np.complex128)[None]
             for r, d in enumerate(base_dims)}
    for a in cat.labels:
        if a == UNIT_LABEL:
            continue
        restricted = restrict(cat.reps[a], subgroup)
        for s, xs in enumerate(table.irreps):
            acting = tensor_rep(restricted, xs)
            for r, xr in enumerate(table.irreps):
                basis = intertwiner_basis(xr, acting, tol)
                if len(basis):
                    bases[(a, r, s)] = np.sqrt(base_dims[r]) * np.stack(basis.vectors)
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
    bad = np.argwhere(np.abs(dmu - om[k_el[i], k_el[j], k_el[h]]) > 1e-10)
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
    if np.max(np.abs(np.abs(mu) - 1.0)) > 1e-12:
        raise ModuleDataError("2-cochain values must be unit modulus")
    kpos = np.full(group.order, -1, dtype=np.int64)
    kpos[k_el] = np.arange(nk)
    _check_coboundary(om, mul, k_el, kpos, mu)

    cosets = subgroup.left_cosets()
    reps_t = np.array([c[0] for c in cosets], dtype=np.int64)
    coset_of = np.empty(group.order, dtype=np.int64)
    for r, coset in enumerate(cosets):
        coset_of[list(coset)] = r
    grade = mul[reps_t[:, None], k_el[None, :]]
    # free[r, l]: right multiplication by the l-th generator on X_r,
    # e_k -> omega(t_r, k, l) mu(k, l) e_kl
    r_, k_, l_ = np.ix_(np.arange(len(cosets)), np.arange(nk), np.arange(nk))
    free = np.zeros((len(cosets), nk, nk, nk), dtype=np.complex128)
    free[r_, l_, kpos[mul[k_el[k_], k_el[l_]]], k_] = om[reps_t[r_], k_el[k_], k_el[l_]] * mu[k_, l_]

    bases = {}
    for a in cat.labels:
        for s in range(len(cosets)):
            if a == UNIT_LABEL:
                bases[(a, s, s)] = np.eye(nk, dtype=np.complex128)[None]
                continue
            # grading-preserving module maps X_r -> delta_a (x) X_s
            r = int(coset_of[mul[a, reps_t[s]]])
            allowed = mul[a, grade[s]][:, None] == grade[r][None, :]
            # right multiplication by generator l on delta_a (x) X_s
            shifted = free[s] * om[a, grade[s][None, :], k_el[:, None]][:, None, :]
            acts = [(shifted[lpos], free[r, lpos]) for lpos in range(nk)]

            def grading(vec):
                return vec.reshape(nk, nk)[~allowed].ravel()

            def linearity(vec):
                t = vec.reshape(nk, nk)
                return np.concatenate(
                    [(t @ rho_r - rho_gs @ t).ravel() for rho_gs, rho_r in acts]
                )

            basis = solution_basis([grading, linearity], nk * nk, tol)
            if len(basis):
                bases[(a, r, s)] = np.sqrt(nk) * np.stack([v.reshape(nk, nk) for v in basis.vectors])
    return _assemble(cat, f"coset[{nk}]", (nk,) * len(cosets), bases,
                     handle=np.arange(group.order), fuse=mul, phase=om[:, :, grade])


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

def _strongly_connected(adj: np.ndarray) -> bool:
    n = adj.shape[0]
    if n == 0:
        return False

    def reach(mat):
        seen = {0}
        frontier = [0]
        while frontier:
            i = frontier.pop()
            for j in range(n):
                if mat[i, j] and j not in seen:
                    seen.add(j)
                    frontier.append(j)
        return len(seen) == n

    return reach(adj) and reach(adj.T)


def validate_module(f: BigradedFunctor, tol: float = DEFAULT_TOL,
                    require_connected: bool = True) -> Certificate:
    """Check the structural axioms of the bi-graded presentation."""
    cert = Certificate(subject=f"module[{f.name}]", tolerance=tol)
    cat = f.cat
    labels = range(len(cat.obj_dim))
    j = f.n_base
    dims = f.dims

    unit_ok = all(
        dims[UNIT_LABEL, r, s] == (1 if r == s else 0) for r in range(j) for s in range(j)
    )
    cert.add_flag("unit_grading", "unit label acts as the identity grading", unit_ok)
    exact_unit = 0.0
    for r in range(j):
        exact_unit = max(
            exact_unit,
            max_residual(f.mor_basis(UNIT_LABEL, r, r)[0], np.eye(f.base_dims[r])),
        )
    cert.add("unit_basis", "unit morphism basis is the identity matrix", exact_unit)

    iso = 0.0
    for (a, r, s), stack in f.bases.items():
        for t in stack:
            iso = max(iso, max_residual(dagger(t) @ t, np.eye(f.base_dims[r])))
    cert.add("morphism_isometry", "module morphism bases are isometries", iso)

    count_ok = all(
        cat.dim(a) * f.base_dims[s] == sum(int(dims[a, r, s]) * f.base_dims[r] for r in range(j))
        for a in labels
        for s in range(j)
    )
    cert.add_flag(
        "decomposition_count",
        "acting on a simple object decomposes with matching total dimension",
        count_ok,
    )

    coh = 0.0
    for blocks in f.coherence.values():
        # one matrix per block, rows ordered by (c, k, p)
        u = np.vstack([blocks[c].reshape(-1, blocks[c].shape[2]) for c in sorted(blocks)])
        coh = max(coh, max_residual(dagger(u) @ u, np.eye(u.shape[1])))
        if u.shape[0]:
            coh = max(coh, max_residual(u @ dagger(u), np.eye(u.shape[0])))
    cert.add("coherence_unitarity", "iterated-action coherence blocks are unitary", coh)

    cert.add(
        "triple_coherence",
        "the two bracketings of a triple action agree",
        _triple_coherence_residual(f),
    )

    frob_dims_ok = all(
        dims[a, r, s] == dims[cat.dual_map[a], s, r]
        for a in labels
        for r in range(j)
        for s in range(j)
    )
    cert.add_flag(
        "frobenius_dims",
        "multiplicity dims are symmetric under (a,r,s) -> (dual a, s, r)",
        frob_dims_ok,
    )

    frob_rt = 0.0
    for (a, r, s), stack in f.bases.items():
        for m, t in enumerate(stack):
            back = f.frobenius_back(a, r, f.frobenius_image(a, r, s, m))
            frob_rt = max(frob_rt, max_residual(back, t))
    cert.add("frobenius_roundtrip", "dual-label pairing composes to the identity", frob_rt)

    adj = (dims.sum(axis=0) > 0)
    connected = _strongly_connected(np.asarray(adj))
    if require_connected:
        cert.add_flag("connectedness", "every base label reaches every other", connected)
    else:
        cert.add_flag("connectedness_waived", "connectedness recorded but not required", True,
                      value=0.0 if connected else 1.0)
    return cert


# composable chains built and evaluated at a time; bounds the temporaries
_TRIPLE_CHUNK = 512


def _successors(ends: np.ndarray, src: np.ndarray, n_base: int) -> tuple[np.ndarray, np.ndarray]:
    """Pair each path ending at base label ends[i] with every edge leaving it.

    Returns (path index, edge index) arrays, grouped by path in edge order.
    """
    order = np.argsort(src, kind="stable")
    count = np.bincount(src, minlength=n_base)
    start = np.cumsum(count) - count
    per_path = count[ends]
    path = np.repeat(np.arange(len(ends)), per_path)
    offset = np.arange(len(path)) - np.repeat(np.cumsum(per_path) - per_path, per_path)
    return path, order[start[ends][path] + offset]


def _triple_coherence_residual(f: BigradedFunctor) -> float:
    """Compare the two bracketings of acting by a, then b, then c.

    Both sides are computed as concrete morphisms into the left-bracketed
    triple tensor product; the right-bracketed path is pulled back through
    the category associator.  Every composable chain of basis morphisms
    (a,r,s,m) -> (b,s,t,n) -> (c,t,w,o) is checked.  The chains are built in
    runs of about ``_TRIPLE_CHUNK``; within a run they are grouped by the
    shape (da, db, dc, dr, ds, dt, dw) of their matrices, and each group is
    evaluated with four batched einsums, reading the associator diagonals
    straight from the phase table.
    """
    cat, handle, fuse = f.cat, f.handle, f.fuse
    ldim = np.asarray(cat.obj_dim)
    bdim = np.asarray(f.base_dims)
    phase_conj = np.conj(f.phase)
    alpha_conj = np.conj(np.array(
        [[[cat.assoc_scalar(a, b, c) for c in cat.labels] for b in cat.labels] for a in cat.labels],
        dtype=np.complex128,
    ))

    # one edge per basis morphism t in Mor(X_src, u_lab (x) X_dst), stacked by shape
    blocks = np.argwhere(f.dims)
    lab, src, dst = np.repeat(blocks, f.dims[tuple(blocks.T)], axis=0).T
    stacks: dict[tuple[int, int, int], list[np.ndarray]] = {}
    kind, pos = [], []  # shape index of each edge, and its place in that stack
    for la, ls, ld in blocks.tolist():
        shape = (int(ldim[la]), int(bdim[ld]), int(bdim[ls]))
        if shape not in stacks:
            stacks[shape] = []
        k = list(stacks).index(shape)
        for mat in f.mor_basis(la, ls, ld):
            kind.append(k)
            pos.append(len(stacks[shape]))
            stacks[shape].append(mat.reshape(shape))
    kind, pos = np.array(kind, dtype=np.int64), np.array(pos, dtype=np.int64)
    shapes = list(stacks)
    stacked = [np.stack(mats) for mats in stacks.values()]

    first, second = _successors(dst, src, f.n_base)
    # split the composable pairs into runs that extend to about _TRIPLE_CHUNK chains
    per_pair = np.bincount(src, minlength=f.n_base)[dst[second]]
    run = (np.cumsum(per_pair) - per_pair) // _TRIPLE_CHUNK
    cuts = [0, *(np.flatnonzero(np.diff(run)) + 1).tolist(), len(first)]
    ns = len(shapes)

    worst = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        pair, e3 = _successors(dst[second[lo:hi]], src, f.n_base)
        e1, e2 = first[lo:hi][pair], second[lo:hi][pair]
        chain_kind = (kind[e1] * ns + kind[e2]) * ns + kind[e3]
        for code in np.flatnonzero(np.bincount(chain_kind)).tolist():
            k1, k2, k3 = code // ns**2, code // ns % ns, code % ns
            (da, _, _), (db, dt, _), (dc, dw, _) = shapes[k1], shapes[k2], shapes[k3]
            i1, i2, i3 = (e[chain_kind == code] for e in (e1, e2, e3))
            n = len(i1)
            ta, tb, tc = stacked[k1][pos[i1]], stacked[k2][pos[i2]], stacked[k3][pos[i3]]
            a, b, c = lab[i1], lab[i2], lab[i3]
            ha, hb, hc = handle[a], handle[b], handle[c]
            t, w = dst[i2], dst[i3]
            # the phases depend on the base coordinate only; they broadcast over the fibre
            # fuse a,b first
            two = np.einsum("nBts,nasr->naBtr", tb, ta)
            two *= phase_conj[ha, hb, t, :dt].reshape(n, 1, 1, dt, 1)
            left = np.einsum("nCwt,naBtr->naBCwr", tc, two)
            left *= phase_conj[fuse[ha, hb], hc, w, :dw].reshape(n, 1, 1, 1, dw, 1)
            # fuse b,c first, then pull through the associator
            inner = np.einsum("nCwt,nBts->nBCws", tc, tb)
            inner *= phase_conj[hb, hc, w, :dw].reshape(n, 1, 1, dw, 1)
            right = np.einsum("nBCws,nasr->naBCwr", inner, ta)
            right *= phase_conj[ha, fuse[hb, hc], w, :dw].reshape(n, 1, 1, 1, dw, 1)
            right *= alpha_conj[a, b, c].reshape(n, 1, 1, 1, 1, 1)
            worst = max(worst, max_residual(left, right))
    return worst


def functor_dimension_matrix(target: IrrepTable, images: list[UnitaryRep],
                             tol: float = DEFAULT_TOL) -> np.ndarray:
    """Multiplicity matrix of a functor given by the images of the simple objects.

    Entry (p, r) is the multiplicity of the p-th target irreducible inside
    the image of the r-th source simple object.
    """
    out = np.zeros((len(target.irreps), len(images)), dtype=np.int64)
    for r, img in enumerate(images):
        total = 0
        for p, irr in enumerate(target.irreps):
            mult = len(intertwiner_basis(irr, img, tol))
            out[p, r] = mult
            total += mult * irr.dim
        if total != img.dim:
            raise ModuleDataError(f"image {r} does not decompose into the target irreducibles")
    return out


def equivalence_check(m: np.ndarray) -> bool:
    """True iff the dimension matrix is a permutation matrix."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    return bool(
        np.all((m == 0) | (m == 1))
        and np.all(m.sum(axis=0) == 1)
        and np.all(m.sum(axis=1) == 1)
    )
