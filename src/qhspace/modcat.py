"""Module C*-categories over a category presentation, in bi-graded form.

A module category over the presented category is normalized into a bi-graded
functor: a finite base label set J of simple module objects, multiplicity
spaces Mor(X_r, u_a (x) X_s) with fixed isometry bases, and coherence data
expressed against the fusion isometries of the category.  Two concrete
backends produce this data: restriction to a subgroup (module = Rep(H) over
Rep(G)) and twisted coset modules over a pointed category.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .certificate import Certificate
from .grouprep import IrrepTable, Subgroup, UnitaryRep, extract_irreps, intertwiner_basis, restrict, tensor_rep
from .numkit import DEFAULT_TOL, dagger, kron, max_residual, solution_basis
from .tensorcat import UNIT_LABEL, CategoryPresentation, CocycleError


class ModuleDataError(Exception):
    pass


class SubgroupModule:
    """Representations of a subgroup H as a module over Rep(G).

    Simple module objects are the irreducibles of H; the category acts by
    restricting a representation of G to H and tensoring.  All associators
    are identities because everything lives on concrete tensor products.
    """

    def __init__(self, cat: CategoryPresentation, subgroup: Subgroup, seed: int = 0,
                 tol: float = DEFAULT_TOL):
        if cat.kind != "group" or cat.reps is None:
            raise ModuleDataError("subgroup module needs a group-backed category")
        parent = cat.reps[0].group
        if not np.array_equal(subgroup.parent.mult_table, parent.mult_table):
            raise ModuleDataError("subgroup does not belong to the category's group")
        self.cat = cat
        self.subgroup = subgroup
        self.tol = tol
        self.h_table: IrrepTable = extract_irreps(subgroup.as_group, seed=seed, tol=tol)
        self.restricted: tuple[UnitaryRep, ...] = tuple(
            restrict(u, subgroup) for u in cat.reps
        )
        self.base_dims = tuple(r.dim for r in self.h_table.irreps)
        self._mor_cache: dict[tuple[int, int, int], tuple[np.ndarray, ...]] = {}

    @property
    def n_base(self) -> int:
        return len(self.base_dims)

    def mor_basis(self, a: int, r: int, s: int) -> tuple[np.ndarray, ...]:
        """Isometry basis of Mor(x_r, u_a|_H (x) x_s); exact identity at the unit."""
        key = (a, r, s)
        if key not in self._mor_cache:
            if a == UNIT_LABEL:
                out = (np.eye(self.base_dims[r], dtype=np.complex128),) if r == s else ()
            else:
                basis = intertwiner_basis(
                    self.h_table.irreps[r],
                    tensor_rep(self.restricted[a], self.h_table.irreps[s]),
                    self.tol,
                )
                scale = np.sqrt(self.base_dims[r])
                out = tuple(scale * t for t in basis.vectors)
            self._mor_cache[key] = out
        return self._mor_cache[key]

    # associators are identity; handles only carry dimensions
    def handle(self, a: int) -> int:
        return self.cat.dim(a)

    def combine(self, h1: int, h2: int) -> int:
        return h1 * h2

    def assoc_diag(self, h1: int, h2: int, r: int) -> np.ndarray:
        return np.ones(h1 * h2 * self.base_dims[r], dtype=np.complex128)


class PointedCosetModule:
    """Twisted coset module over a pointed category.

    Given a subgroup K of the pointed category's group and a 2-cochain mu on
    K whose coboundary matches the restricted 3-cocycle, the simple module
    objects are indexed by the left cosets of K; each is the free rank-one
    module over the mu-twisted group algebra of K, with basis labeled by K.
    """

    def __init__(self, cat: CategoryPresentation, subgroup: Subgroup,
                 mu: np.ndarray | None = None, tol: float = DEFAULT_TOL):
        if cat.kind != "pointed" or cat.pointed is None:
            raise ModuleDataError("coset module needs a pointed category")
        group = cat.pointed.group
        if not np.array_equal(subgroup.parent.mult_table, group.mult_table):
            raise ModuleDataError("subgroup does not belong to the category's group")
        self.cat = cat
        self.group = group
        self.subgroup = subgroup
        self.tol = tol
        self.k_elements = subgroup.elements
        nk = len(self.k_elements)
        self.mu = (
            np.ones((nk, nk), dtype=np.complex128)
            if mu is None
            else np.asarray(mu, dtype=np.complex128)
        )
        if self.mu.shape != (nk, nk):
            raise ModuleDataError("2-cochain shape does not match the subgroup order")
        if np.max(np.abs(np.abs(self.mu) - 1.0)) > 1e-12:
            raise ModuleDataError("2-cochain values must be unit modulus")
        self._kpos = {g: i for i, g in enumerate(self.k_elements)}
        self._check_coboundary()
        self.cosets = subgroup.left_cosets()
        self.reps_t = tuple(c[0] for c in self.cosets)
        self.base_dims = (nk,) * len(self.cosets)
        self._coset_of = {}
        for r, coset in enumerate(self.cosets):
            for g in coset:
                self._coset_of[g] = r
        self._mor_cache: dict[tuple[int, int, int], tuple[np.ndarray, ...]] = {}

    def _check_coboundary(self):
        """d(mu)(k,l,m) = mu(l,m) mu(k,lm) / (mu(kl,m) mu(k,l)) must equal omega on K."""
        om = self.cat.pointed.cocycle
        mul = self.group.mul
        for k in self.k_elements:
            for l in self.k_elements:
                for m in self.k_elements:
                    i, j, h = self._kpos[k], self._kpos[l], self._kpos[m]
                    jh = self._kpos[mul(l, m)]
                    ij = self._kpos[mul(k, l)]
                    dmu = (
                        self.mu[j, h]
                        * self.mu[i, jh]
                        / (self.mu[ij, h] * self.mu[i, j])
                    )
                    if abs(dmu - om[k, l, m]) > 1e-10:
                        raise CocycleError(
                            f"coboundary of the 2-cochain differs from the cocycle at ({k},{l},{m})"
                        )

    @property
    def n_base(self) -> int:
        return len(self.cosets)

    def _grade(self, r: int, kpos: int) -> int:
        return self.group.mul(self.reps_t[r], self.k_elements[kpos])

    def _action_on_free(self, r: int, lpos: int) -> np.ndarray:
        """Right multiplication by the l-th algebra generator on X_r."""
        om = self.cat.pointed.cocycle
        nk = len(self.k_elements)
        out = np.zeros((nk, nk), dtype=np.complex128)
        l = self.k_elements[lpos]
        for kpos, k in enumerate(self.k_elements):
            klpos = self._kpos[self.group.mul(k, l)]
            out[klpos, kpos] = om[self.reps_t[r], k, l] * self.mu[kpos, lpos]
        return out

    def _action_on_shifted(self, g: int, s: int, lpos: int) -> np.ndarray:
        """Right multiplication by generator l on delta_g (x) X_s."""
        om = self.cat.pointed.cocycle
        base = self._action_on_free(s, lpos)
        l = self.k_elements[lpos]
        phase = np.array(
            [om[g, self._grade(s, kpos), l] for kpos in range(len(self.k_elements))]
        )
        return base * phase[None, :]

    def mor_basis(self, a: int, r: int, s: int) -> tuple[np.ndarray, ...]:
        """Grading-preserving module maps X_r -> delta_a (x) X_s."""
        key = (a, r, s)
        if key not in self._mor_cache:
            nk = len(self.k_elements)
            if a == UNIT_LABEL and r == s:
                self._mor_cache[key] = (np.eye(nk, dtype=np.complex128),)
                return self._mor_cache[key]
            if self._coset_of[self.group.mul(a, self.reps_t[s])] != r:
                self._mor_cache[key] = ()
                return self._mor_cache[key]
            allowed = np.zeros((nk, nk), dtype=bool)
            for j in range(nk):
                for k in range(nk):
                    allowed[j, k] = self.group.mul(a, self._grade(s, j)) == self._grade(r, k)

            def grading(vec):
                return vec.reshape(nk, nk)[~allowed].ravel()

            acts = [
                (self._action_on_shifted(a, s, lpos), self._action_on_free(r, lpos))
                for lpos in range(nk)
            ]

            def linearity(vec):
                t = vec.reshape(nk, nk)
                return np.concatenate(
                    [(t @ rho_r - rho_gs @ t).ravel() for rho_gs, rho_r in acts]
                )

            basis = solution_basis([grading, linearity], nk * nk, self.tol)
            scale = np.sqrt(nk)
            self._mor_cache[key] = tuple(
                scale * v.reshape(nk, nk) for v in basis.vectors
            )
        return self._mor_cache[key]

    def handle(self, a: int) -> int:
        return a

    def combine(self, h1: int, h2: int) -> int:
        return self.group.mul(h1, h2)

    def assoc_diag(self, h1: int, h2: int, r: int) -> np.ndarray:
        om = self.cat.pointed.cocycle
        return np.array(
            [om[h1, h2, self._grade(r, kpos)] for kpos in range(len(self.k_elements))],
            dtype=np.complex128,
        )


class DisjointUnionModule:
    """Disjoint union of two concrete modules over the same category.

    Legal module data whose base graph is disconnected; used to exercise the
    connectedness diagnostic.
    """

    def __init__(self, first, second):
        self.cat = first.cat
        self.first = first
        self.second = second
        self.base_dims = tuple(first.base_dims) + tuple(second.base_dims)
        self._cut = first.n_base

    @property
    def n_base(self) -> int:
        return len(self.base_dims)

    def _part(self, r: int):
        return (0, self.first, r) if r < self._cut else (1, self.second, r - self._cut)

    def mor_basis(self, a, r, s):
        pr, mod_r, rr = self._part(r)
        ps, mod_s, ss = self._part(s)
        if pr != ps:
            return ()
        return mod_r.mor_basis(a, rr, ss)

    def handle(self, a):
        return self.first.handle(a)

    def combine(self, h1, h2):
        return self.first.combine(h1, h2)

    def assoc_diag(self, h1, h2, r):
        _, mod, rr = self._part(r)
        return mod.assoc_diag(h1, h2, rr)


@dataclass
class BigradedFunctor:
    """Normal form of a module category: bi-graded multiplicity data.

    All downstream computations read the module through this interface; the
    concrete backend supplies morphism bases and associator diagonals.
    ``coherence_overrides`` allows tests to inject faults into specific
    coherence blocks without touching the backend.
    """

    cat: CategoryPresentation
    concrete: object
    name: str = "module"
    coherence_overrides: dict = field(default_factory=dict)
    _coh_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n_base(self) -> int:
        return self.concrete.n_base

    @property
    def base_dims(self) -> tuple[int, ...]:
        return tuple(self.concrete.base_dims)

    @cached_property
    def dims(self) -> np.ndarray:
        """Integer tensor dim Mor(X_r, u_a (x) X_s), indexed [a, r, s]."""
        n = len(self.cat.obj_dim)
        j = self.n_base
        out = np.zeros((n, j, j), dtype=np.int64)
        for a in range(n):
            for r in range(j):
                for s in range(j):
                    out[a, r, s] = len(self.concrete.mor_basis(a, r, s))
        return out

    def mor_basis(self, a: int, r: int, s: int) -> tuple[np.ndarray, ...]:
        return self.concrete.mor_basis(a, r, s)

    def columns(self, a: int, b: int, r: int, t: int) -> list[tuple[int, int, int]]:
        """Ordered index triples (s, m, n) for F_{rs}(a) (x) F_{st}(b)."""
        cols = []
        for s in range(self.n_base):
            for m in range(int(self.dims[a, r, s])):
                for n in range(int(self.dims[b, s, t])):
                    cols.append((s, m, n))
        return cols

    def coherence(self, a: int, b: int, r: int, t: int) -> dict[int, np.ndarray]:
        """Coefficients of iterated action against the fusion channels.

        For each channel c the array has shape (N_ab^c, dim F_rt(c), #columns)
        and holds the expansion of phi* (id_a (x) g) f through the fusion
        isometry iota^c_k in the chosen basis of Mor(X_r, u_c (x) X_t).
        """
        key = (a, b, r, t)
        if key in self.coherence_overrides:
            return self.coherence_overrides[key]
        if key in self._coh_cache:
            return self._coh_cache[key]
        da, db = self.cat.dim(a), self.cat.dim(b)
        dr, dt = self.base_dims[r], self.base_dims[t]
        phi_conj = np.conj(
            self.concrete.assoc_diag(self.concrete.handle(a), self.concrete.handle(b), t)
        )
        eye_a = np.eye(da, dtype=np.complex128)
        eye_t = np.eye(dt, dtype=np.complex128)
        # columns in (s, m, n) order: per s, (I_a (x) t_b[n]) @ t_a[m] as one batched matmul
        blocks = []
        for s in np.flatnonzero(self.dims[a, r] * self.dims[b, :, t]).tolist():
            lifted = np.stack([kron(eye_a, tb) for tb in self.mor_basis(b, s, t)])
            comp = lifted[None] @ np.stack(self.mor_basis(a, r, s))[:, None]
            blocks.append(comp.reshape(-1, *comp.shape[2:]))
        composites = (
            phi_conj[:, None] * np.concatenate(blocks)
            if blocks
            else np.zeros((0, da * db * dt, dr), dtype=np.complex128)
        )
        out: dict[int, np.ndarray] = {}
        for c in self.cat.channels(a, b):
            tcs = self.mor_basis(c, r, t)
            arr = np.zeros((self.cat.mult(a, b, c), len(tcs), len(composites)), dtype=np.complex128)
            if tcs and len(composites):
                tcs_dag = np.conj(np.stack(tcs)).transpose(0, 2, 1)[:, None]
                for k, iota in enumerate(self.cat.isometries(a, b, c)):
                    proj = kron(dagger(iota), eye_t) @ composites
                    arr[k] = np.trace(tcs_dag @ proj[None], axis1=-2, axis2=-1) / dr
            out[c] = arr
        self._coh_cache[key] = out
        return out

    def coherence_matrix(self, a: int, b: int, r: int, t: int) -> np.ndarray:
        """The coherence block as one matrix, rows ordered by (c, k, p)."""
        blocks = self.coherence(a, b, r, t)
        rows = []
        for c in sorted(blocks):
            arr = blocks[c]
            rows.append(arr.reshape(arr.shape[0] * arr.shape[1], arr.shape[2]))
        if not rows:
            ncols = len(self.columns(a, b, r, t))
            return np.zeros((0, ncols), dtype=np.complex128)
        return np.vstack(rows)

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
        phi = self.concrete.assoc_diag(self.concrete.handle(abar), self.concrete.handle(a), s)
        lift = phi[:, None] * kron(rvec.reshape(-1, 1), np.eye(ds, dtype=np.complex128))
        return kron(np.eye(dbar, dtype=np.complex128), dagger(ta)) @ lift

    def frobenius_back(self, a: int, r: int, g: np.ndarray,
                       pair: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
        """Inverse direction: from Mor(X_s, u_abar (x) X_r) back to Mor(X_r, u_a (x) X_s)."""
        da = self.cat.dim(a)
        dr = self.base_dims[r]
        rbar = (self.cat.canonical_conjugates(a) if pair is None else pair)[1]
        abar = self.cat.dual_map[a]
        phi_conj = np.conj(
            self.concrete.assoc_diag(self.concrete.handle(a), self.concrete.handle(abar), r)
        )
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


def module_from_subgroup(cat: CategoryPresentation, subgroup: Subgroup,
                         seed: int = 0, tol: float = DEFAULT_TOL) -> BigradedFunctor:
    concrete = SubgroupModule(cat, subgroup, seed=seed, tol=tol)
    return BigradedFunctor(cat, concrete, name=f"subgroup[{len(subgroup.elements)}]")


def module_from_pointed(cat: CategoryPresentation, subgroup: Subgroup,
                        mu: np.ndarray | None = None, tol: float = DEFAULT_TOL) -> BigradedFunctor:
    concrete = PointedCosetModule(cat, subgroup, mu=mu, tol=tol)
    return BigradedFunctor(cat, concrete, name=f"coset[{len(subgroup.elements)}]")


def disjoint_union_module(f1: BigradedFunctor, f2: BigradedFunctor) -> BigradedFunctor:
    if f1.cat is not f2.cat:
        raise ModuleDataError("disjoint union needs modules over the same category")
    return BigradedFunctor(f1.cat, DisjointUnionModule(f1.concrete, f2.concrete),
                           name=f"{f1.name}+{f2.name}")


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
    for a in labels:
        for r in range(j):
            for s in range(j):
                for t in f.mor_basis(a, r, s):
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
    for a in labels:
        for b in labels:
            for r in range(j):
                for t in range(j):
                    u = f.coherence_matrix(a, b, r, t)
                    if u.shape[1] == 0:
                        continue
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
    for a in labels:
        for r in range(j):
            for s in range(j):
                for m in range(int(dims[a, r, s])):
                    img = f.frobenius_image(a, r, s, m)
                    back = f.frobenius_back(a, r, img)
                    frob_rt = max(frob_rt, max_residual(back, f.mor_basis(a, r, s)[m]))
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
    evaluated with four batched einsums.  The associator diagonals are
    fetched once per (h1, h2, r) key.
    """
    cat, conc = f.cat, f.concrete
    ldim = np.asarray(cat.obj_dim)
    bdim = np.asarray(f.base_dims)
    handle = np.array([conc.handle(a) for a in cat.labels])
    fused = np.array([[conc.combine(ha, hb) for hb in handle] for ha in handle])
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

    phase_cache: dict[tuple[int, int, int], np.ndarray] = {}

    def phases(h1, h2, rr):
        keys = np.stack([h1, h2, rr], axis=1)
        uniq, inv = np.unique(keys, axis=0, return_inverse=True)
        table = []
        for k in map(tuple, uniq.tolist()):
            if k not in phase_cache:
                phase_cache[k] = np.conj(conc.assoc_diag(*k))
            table.append(phase_cache[k])
        return np.stack(table)[inv.reshape(-1)]

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
            t, w = dst[i2], dst[i3]
            # fuse a,b first
            two = np.einsum("nBts,nasr->naBtr", tb, ta)
            two *= phases(handle[a], handle[b], t).reshape(n, da, db, dt, 1)
            left = np.einsum("nCwt,naBtr->naBCwr", tc, two)
            left *= phases(fused[a, b], handle[c], w).reshape(n, da, db, dc, dw, 1)
            # fuse b,c first, then pull through the associator
            inner = np.einsum("nCwt,nBts->nBCws", tc, tb)
            inner *= phases(handle[b], handle[c], w).reshape(n, db, dc, dw, 1)
            right = np.einsum("nBCws,nasr->naBCwr", inner, ta)
            right *= phases(handle[a], fused[b, c], w).reshape(n, da, db, dc, dw, 1)
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


def bigraded_dual(h: np.ndarray) -> tuple[np.ndarray, float]:
    """Dual of a banded bi-graded Hilbert space, with snake residuals.

    The dual grading transposes the dimension matrix; the duality vectors
    pair each component with its conjugate through the standard bases.  Both
    snake identities are evaluated concretely component by component and the
    max residual is returned.
    """
    h = np.asarray(h, dtype=np.int64)
    if h.ndim != 2:
        raise ValueError("expected a 2-d dimension matrix")
    dual = h.T.copy()
    jn, jm = h.shape
    if jn != jm:
        raise ValueError("bi-graded duality needs a square label set")
    worst = 0.0
    for r in range(jn):
        for s in range(jn):
            d = int(h[r, s])
            if d == 0:
                continue
            eye = np.eye(d, dtype=np.complex128)
            # duality vector sum_i conj(xi_i) (x) xi_i over the standard basis
            rvec = np.zeros((d * d, 1), dtype=np.complex128)
            for i in range(d):
                rvec += kron(np.conj(eye[:, i : i + 1]), eye[:, i : i + 1])
            rbar = np.zeros((d * d, 1), dtype=np.complex128)
            for i in range(d):
                rbar += kron(eye[:, i : i + 1], np.conj(eye[:, i : i + 1]))
            snake1 = kron(dagger(rbar), eye) @ kron(eye, rvec)
            snake2 = kron(dagger(rvec), eye) @ kron(eye, rbar)
            worst = max(worst, max_residual(snake1, eye))
            worst = max(worst, max_residual(snake2, eye))
    return dual, worst


def amplification(h_dim: int, x_dim: int) -> tuple[int, list[np.ndarray], float]:
    """Direct sum of h_dim copies of a simple object of dimension x_dim.

    Returns the amplified dimension, the canonical injection isometries, and
    the max residual of the two amplification axioms: injections compose to
    inner products, and their ranges sum to the identity.
    """
    if h_dim < 0:
        raise ValueError("amplification size must be nonnegative")
    total = h_dim * x_dim
    injections = []
    eye_x = np.eye(x_dim, dtype=np.complex128)
    for i in range(h_dim):
        v = np.zeros((total, x_dim), dtype=np.complex128)
        v[i * x_dim : (i + 1) * x_dim, :] = eye_x
        injections.append(v)
    worst = 0.0
    for i, vi in enumerate(injections):
        for k, vk in enumerate(injections):
            want = eye_x if i == k else np.zeros_like(eye_x)
            worst = max(worst, max_residual(dagger(vi) @ vk, want))
    if h_dim:
        acc = sum(v @ dagger(v) for v in injections)
        worst = max(worst, max_residual(acc, np.eye(total)))
    return total, injections, worst
