"""Reconstruction of *-algebras and bimodules from bi-graded module data.

Every pair (x, y) of base labels yields a finite-dimensional spectral space
spanned by triples (a, m, i): a channel label, a multiplicity index into
Mor(X_x, u_a (x) X_y), and a coordinate in the fiber Hilbert space of u_a.
Multiplication, the involution, and the invariant expectation are all exact
finite formulas in the coherence and duality data of the module.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .certificate import Certificate
from .modcat import BigradedFunctor
from .numkit import DEFAULT_TOL, dagger, kron, max_residual, psd_check
from .tensorcat import UNIT_LABEL


class ReconstructionError(Exception):
    pass


def basis_triples(f: BigradedFunctor, x: int, y: int) -> list[tuple[int, int, int]]:
    """Ordered index triples (a, m, i) spanning the spectral space at (x, y)."""
    out = []
    for a in f.cat.labels:
        for m in range(int(f.dims[a, x, y])):
            for i in range(f.cat.dim(a)):
                out.append((a, m, i))
    return out


def structure_tensor(f: BigradedFunctor, x: int, y: int, z: int) -> np.ndarray:
    """Structure constants of the composition map at (x,y) x (y,z) -> (x,z).

    Entry [p, q, r] is the coefficient of the r-th output basis element in
    the product of the p-th and q-th inputs.  Products against the unit
    label are written as exact Kronecker deltas rather than computed.
    """
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
        db_cache: dict[int, int] = {}
        for q, (b, n, j) in enumerate(right):
            if b == UNIT_LABEL:
                tensor[p, q, out_pos[(a, m, i)]] = 1.0
                continue
            db = db_cache.setdefault(b, cat.dim(b))
            coh = f.coherence[(a, b, x, z)]
            cols = f.columns(a, b, x, z)
            col = cols.index((y, m, n))
            for c, arr in coh.items():
                iotas = cat.isometries(a, b, c)
                for k, iota in enumerate(iotas):
                    for pp in range(arr.shape[1]):
                        coeff = arr[k, pp, col]
                        if coeff == 0.0:
                            continue
                        # fiber vectors live in the conjugate Hilbert space,
                        # so the channel projection uses the conjugated isometry
                        for l in range(cat.dim(c)):
                            w = coeff * iota[i * db + j, l]
                            if w != 0.0:
                                tensor[p, q, out_pos[(c, pp, l)]] += w
    return tensor


def star_matrix(f: BigradedFunctor, x: int, y: int,
                pair_map=None) -> np.ndarray:
    """Matrix of the conjugate-linear involution from (x,y) to (y,x) triples.

    ``star(v) = S @ conj(v)``.  The duality pair for each label defaults to
    the canonical one recomputed from the fusion data, so user rescalings of
    the stored conjugates never leak into the result.
    """
    src = basis_triples(f, x, y)
    dst = basis_triples(f, y, x)
    dst_pos = {t: i for i, t in enumerate(dst)}
    cat = f.cat
    s = np.zeros((len(dst), len(src)), dtype=np.complex128)
    for col, (a, m, i) in enumerate(src):
        abar = cat.dual_map[a]
        dbar = cat.dim(abar)
        pair = cat.canonical_conjugates(a) if pair_map is None else pair_map(a)
        rbar = pair[1].ravel()
        b = f.frobenius_block(a, x, y, pair)
        for q in range(b.shape[0]):
            if b[q, m] == 0.0:
                continue
            for l in range(dbar):
                w = b[q, m] * np.conj(rbar[i * dbar + l])
                if w != 0.0:
                    s[dst_pos[(abar, q, l)], col] += w
    return s


@dataclass
class SpectralAlgebra:
    """The reconstructed *-algebra at a distinguished base label."""

    functor: BigradedFunctor
    base: int = 0

    @cached_property
    def triples(self) -> list[tuple[int, int, int]]:
        return basis_triples(self.functor, self.base, self.base)

    @property
    def dim(self) -> int:
        return len(self.triples)

    @cached_property
    def index(self) -> dict[tuple[int, int, int], int]:
        return {t: i for i, t in enumerate(self.triples)}

    @cached_property
    def tensor(self) -> np.ndarray:
        return structure_tensor(self.functor, self.base, self.base, self.base)

    @cached_property
    def star_mat(self) -> np.ndarray:
        return star_matrix(self.functor, self.base, self.base)

    @cached_property
    def unit(self) -> np.ndarray:
        v = np.zeros(self.dim, dtype=np.complex128)
        v[self.index[(UNIT_LABEL, 0, 0)]] = 1.0
        return v

    def multiply(self, v: np.ndarray, w: np.ndarray) -> np.ndarray:
        return np.einsum("p,q,pqr->r", v, w, self.tensor)

    def star(self, v: np.ndarray) -> np.ndarray:
        return self.star_mat @ np.conj(v)

    def expectation(self, v: np.ndarray) -> complex:
        """Coefficient of the unit-label component: the invariant state."""
        return complex(v[self.index[(UNIT_LABEL, 0, 0)]])

    def left_multiplication(self, v: np.ndarray) -> np.ndarray:
        return np.einsum("p,pqr->rq", v, self.tensor)

    def gram_from_product(self) -> np.ndarray:
        """Gram matrix E(e_p^* e_q) computed through star and multiplication."""
        n = self.dim
        o = self.index[(UNIT_LABEL, 0, 0)]
        g = np.zeros((n, n), dtype=np.complex128)
        for p in range(n):
            sp = self.star_mat[:, p]
            g[p, :] = np.einsum("u,uqr->qr", sp, self.tensor)[:, o]
        return g

    def gram_closed_form(self) -> np.ndarray:
        """Gram matrix from the duality data alone, bypassing the product.

        Block for label a: E(e_{(a,m,i)}^* e_{(a,n,j)}) =
        (B^t B-bar)[m, n] * V[i, j] / qdim(a) where B is the dual-label
        expansion of the Frobenius images and V pairs the conjugate vectors.
        """
        cat = self.functor.cat
        n = self.dim
        g = np.zeros((n, n), dtype=np.complex128)
        for a in cat.labels:
            na = int(self.functor.dims[a, self.base, self.base])
            if na == 0:
                continue
            da = cat.dim(a)
            abar = cat.dual_map[a]
            dbar = cat.dim(abar)
            pair = cat.canonical_conjugates(a)
            b = self.functor.frobenius_block(a, self.base, self.base, pair)
            bb = dagger(b) @ b
            # V[i, j] = sum_l conj(Rbar[i, l]) R[l, j]
            v = np.conj(pair[1]).reshape(da, dbar) @ pair[0].reshape(dbar, da)
            # the triples of label a are contiguous, ordered (m, i)
            start = self.index[(a, 0, 0)]
            block = slice(start, start + na * da)
            g[block, block] = np.kron(bb.T, v) / cat.qdim[a]
        return g


def build_algebra(f: BigradedFunctor, base: int = 0) -> SpectralAlgebra:
    if not (0 <= base < f.n_base):
        raise ReconstructionError("base label out of range")
    if f.dims[UNIT_LABEL, base, base] != 1:
        raise ReconstructionError("unit label must act trivially at the base")
    return SpectralAlgebra(f, base)


def verify_algebra(alg: SpectralAlgebra, tol: float = DEFAULT_TOL,
                   seed: int = 0) -> Certificate:
    """Check the *-algebra axioms on the structure constants."""
    cert = Certificate(subject=f"algebra[{alg.functor.name}@{alg.base}]",
                       tolerance=tol, seed=seed)
    n = alg.dim
    t = alg.tensor
    one = alg.unit

    eye = np.eye(n)
    left_unit = np.einsum("p,pqr->qr", one, t).T
    right_unit = np.einsum("q,pqr->pr", one, t).T
    cert.add("left_unit", "1 * f = f exactly on every basis element",
             max_residual(left_unit, eye))
    cert.add("right_unit", "f * 1 = f exactly on every basis element",
             max_residual(right_unit, eye))

    assoc = np.einsum("pqu,urs->pqrs", t, t) - np.einsum("qru,pus->pqrs", t, t)
    cert.add("associativity", "(fg)h = f(gh) on all basis triples",
             float(np.max(np.abs(assoc))) if assoc.size else 0.0)

    s = alg.star_mat
    cert.add("involution", "f** = f on every basis element",
             max_residual(s @ np.conj(s), eye))
    cert.add("unit_star", "1* = 1", max_residual(alg.star(one), one))

    # (fg)* = g* f* checked on all basis pairs
    worst = 0.0
    for p in range(n):
        sp = s[:, p]
        for q in range(n):
            sq = s[:, q]
            lhs = s @ np.conj(t[p, q, :])
            rhs = np.einsum("u,v,uvr->r", sq, sp, t)
            worst = max(worst, max_residual(lhs, rhs))
    cert.add("antimultiplicative", "(fg)* = g* f* on all basis pairs", worst)

    rng = np.random.default_rng(seed)
    vs = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
    inter = 0.0
    for va in vs:
        for vb in vs:
            lhs = alg.multiply(va, vb)
            inter = max(inter, max_residual(alg.star(lhs),
                                            alg.multiply(alg.star(vb), alg.star(va))))
    cert.add("antimultiplicative_sampled", "(fg)* = g* f* on random elements", inter)
    return cert


def cp_certificate(alg: SpectralAlgebra, tol: float = DEFAULT_TOL,
                   amplification_sizes: tuple[int, ...] = (1, 2, 3),
                   seed: int = 0) -> Certificate:
    """Positivity of the invariant expectation, by two independent routes."""
    cert = Certificate(subject=f"cp[{alg.functor.name}@{alg.base}]",
                       tolerance=tol, seed=seed)
    g1 = alg.gram_from_product()
    g2 = alg.gram_closed_form()
    cert.add("gram_routes", "product-route Gram equals closed-form Gram",
             max_residual(g1, g2))
    cert.add("gram_hermitian", "Gram matrix is Hermitian",
             max_residual(g1, dagger(g1)))
    ok, lo = psd_check((g1 + dagger(g1)) / 2.0, tol)
    cert.add_flag("gram_psd", "Gram matrix is positive semidefinite", ok, value=-lo)
    cert.add("state_unit", "E(1* 1) = 1",
             abs(g1[alg.index[(UNIT_LABEL, 0, 0)], alg.index[(UNIT_LABEL, 0, 0)]] - 1.0))

    rng = np.random.default_rng(seed)
    gh = (g1 + dagger(g1)) / 2.0
    for size in amplification_sizes:
        if size <= 1:
            continue
        worst_lo = 0.0
        for _ in range(4):
            c = rng.standard_normal((alg.dim, size)) + 1j * rng.standard_normal((alg.dim, size))
            m = dagger(c) @ gh @ c
            _, lo = psd_check((m + dagger(m)) / 2.0, tol)
            worst_lo = min(worst_lo, lo)
        cert.add_flag(f"amplified_psd_{size}",
                      f"size-{size} matrix amplification of E stays positive",
                      worst_lo >= -tol, value=-worst_lo)
    return cert


def classical_roundtrip(alg: SpectralAlgebra, tol: float = DEFAULT_TOL,
                        seed: int = 0) -> Certificate:
    """Diagonalize a commutative algebra into pointwise multiplication.

    A random self-adjoint element is diagonalized through its left-
    multiplication matrix; the resulting eigenprojections must form a full
    system of self-adjoint orthogonal idempotents summing to the unit.
    """
    cert = Certificate(subject=f"classical[{alg.functor.name}@{alg.base}]",
                       tolerance=tol, seed=seed)
    n = alg.dim
    t = alg.tensor
    comm = t - t.transpose(1, 0, 2)
    cert.add("commutativity", "fg = gf on all basis pairs",
             float(np.max(np.abs(comm))) if comm.size else 0.0)

    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v = (v + alg.star(v)) / 2.0
    lm = alg.left_multiplication(v)
    evals, vecs = np.linalg.eig(lm)
    order = np.argsort(evals.real)
    evals, vecs = evals[order], vecs[:, order]
    gaps = np.diff(evals.real)
    if n > 1 and float(np.min(np.abs(gaps))) < 1e-6:
        cert.add_flag("spectrum_simple", "generic element separates the characters", False)
        return cert
    cert.add_flag("spectrum_simple", "generic element separates the characters", True)

    idems = []
    worst = 0.0
    for k in range(n):
        w = vecs[:, k]
        sq = alg.multiply(w, w)
        # rescale the eigenvector so it becomes idempotent: w^2 = c w
        ratios = sq[np.abs(w) > 1e-8] / w[np.abs(w) > 1e-8]
        c = ratios[np.argmax(np.abs(w[np.abs(w) > 1e-8]))]
        if abs(c) < 1e-10:
            cert.add_flag("idempotent_scale", "eigenvector squares to a multiple of itself", False)
            return cert
        e = w / c
        worst = max(worst, max_residual(alg.multiply(e, e), e))
        idems.append(e)
    cert.add("idempotents", "rescaled eigenvectors are idempotent", worst)

    ortho = 0.0
    for i, ei in enumerate(idems):
        for k, ek in enumerate(idems):
            if i != k:
                ortho = max(ortho, float(np.max(np.abs(alg.multiply(ei, ek)))))
    cert.add("orthogonality", "distinct idempotents multiply to zero", ortho)
    cert.add("partition_of_unit", "idempotents sum to the unit",
             max_residual(sum(idems), alg.unit))
    selfadj = max(max_residual(alg.star(e), e) for e in idems)
    cert.add("self_adjoint", "each idempotent is self-adjoint", selfadj)
    cert.add_flag("point_count", "number of characters equals the dimension",
                  len(idems) == n, value=float(len(idems)))
    return cert


@dataclass
class SpectralBimodule:
    """The (x, y) corner with its outer multiplications."""

    functor: BigradedFunctor
    x: int
    y: int

    @cached_property
    def triples(self) -> list[tuple[int, int, int]]:
        return basis_triples(self.functor, self.x, self.y)

    @property
    def dim(self) -> int:
        return len(self.triples)

    @cached_property
    def left_tensor(self) -> np.ndarray:
        return structure_tensor(self.functor, self.x, self.x, self.y)

    @cached_property
    def right_tensor(self) -> np.ndarray:
        return structure_tensor(self.functor, self.x, self.y, self.y)

    @cached_property
    def star_mat(self) -> np.ndarray:
        return star_matrix(self.functor, self.x, self.y)


def build_bimodule(f: BigradedFunctor, x: int, y: int) -> SpectralBimodule:
    if not (0 <= x < f.n_base and 0 <= y < f.n_base):
        raise ReconstructionError("base labels out of range")
    return SpectralBimodule(f, x, y)


def verify_bimodule(bim: SpectralBimodule, tol: float = DEFAULT_TOL) -> Certificate:
    """Module axioms of the corner over its two corner algebras."""
    f, x, y = bim.functor, bim.x, bim.y
    cert = Certificate(subject=f"bimodule[{f.name}@({x},{y})]", tolerance=tol)
    ax = build_algebra(f, x)
    ay = build_algebra(f, y)
    nb = bim.dim
    lt, rt = bim.left_tensor, bim.right_tensor

    eye = np.eye(nb)
    cert.add("left_unit", "1_x acts as the identity",
             max_residual(np.einsum("p,pqr->qr", ax.unit, lt).T, eye))
    cert.add("right_unit", "1_y acts as the identity",
             max_residual(np.einsum("q,pqr->pr", ay.unit, rt).T, eye))

    la = np.einsum("pqu,urs->pqrs", ax.tensor, lt) - np.einsum("qru,pus->pqrs", lt, lt)
    cert.add("left_associativity", "(fg)v = f(gv) for the left algebra",
             float(np.max(np.abs(la))) if la.size else 0.0)
    ra = np.einsum("pqu,urs->pqrs", rt, rt) - np.einsum("qru,pus->pqrs", ay.tensor, rt)
    cert.add("right_associativity", "(vg)h = v(gh) for the right algebra",
             float(np.max(np.abs(ra))) if ra.size else 0.0)
    mixed = np.einsum("pqu,urs->pqrs", lt, rt) - np.einsum("qru,pus->pqrs", rt, lt)
    cert.add("commuting_actions", "(fv)h = f(vh)",
             float(np.max(np.abs(mixed))) if mixed.size else 0.0)

    # star exchanges the corner with its transpose and the two actions
    s = bim.star_mat
    s_back = star_matrix(f, y, x)
    cert.add("star_involutive", "star from (x,y) and back composes to the identity",
             max_residual(s_back @ np.conj(s), eye))
    worst = 0.0
    tyx_r = structure_tensor(f, y, x, x)
    for p in range(ax.dim):
        for q in range(nb):
            lhs = s @ np.conj(lt[p, q, :])
            rhs = np.einsum("u,v,uvr->r", s[:, q], ax.star_mat[:, p], tyx_r)
            worst = max(worst, max_residual(lhs, rhs))
    cert.add("star_exchanges_actions", "(f v)* = v* f* into the opposite corner", worst)
    return cert


def block_structure_tensor(f: BigradedFunctor, blocks: tuple[int, ...]) -> tuple[list, np.ndarray]:
    """Structure constants of the algebra at a direct sum of base labels.

    The basis is indexed by (u, v, a, m, i): a corner (u, v) of the block
    decomposition and a spectral triple of that corner.  Used to confirm
    that corner data assembled from simple bases matches the direct sum.
    """
    basis = []
    for u, ru in enumerate(blocks):
        for v, rv in enumerate(blocks):
            for t in basis_triples(f, ru, rv):
                basis.append((u, v) + t)
    pos = {b: i for i, b in enumerate(basis)}
    n = len(basis)
    tensor = np.zeros((n, n, n), dtype=np.complex128)
    corner_cache: dict[tuple[int, int, int], np.ndarray] = {}
    for p, (u, v, a, m, i) in enumerate(basis):
        for q, (v2, w, b, nn, j) in enumerate(basis):
            if v2 != v:
                continue
            key = (blocks[u], blocks[v], blocks[w])
            if key not in corner_cache:
                corner_cache[key] = structure_tensor(f, *key)
            ct = corner_cache[key]
            t1 = basis_triples(f, blocks[u], blocks[v])
            t2 = basis_triples(f, blocks[v], blocks[w])
            t3 = basis_triples(f, blocks[u], blocks[w])
            row = ct[t1.index((a, m, i)), t2.index((b, nn, j)), :]
            for r3, triple in enumerate(t3):
                if row[r3] != 0.0:
                    tensor[p, q, pos[(u, w) + triple]] += row[r3]
    return basis, tensor


def block_consistency(f: BigradedFunctor, x: int, y: int,
                      tol: float = DEFAULT_TOL) -> Certificate:
    """The block algebra at x (+) y is an associative unital *-compatible sum.

    Verifies that the four corners assembled from the simple-base structure
    tensors close under multiplication: associativity and the two-sided unit
    (sum of the corner units) hold for the assembled block algebra.
    """
    cert = Certificate(subject=f"blocks[{f.name}@({x},{y})]", tolerance=tol)
    basis, tensor = block_structure_tensor(f, (x, y))
    n = len(basis)
    unit = np.zeros(n, dtype=np.complex128)
    for i, (u, v, a, m, k) in enumerate(basis):
        if u == v and a == UNIT_LABEL:
            unit[i] = 1.0
    eye = np.eye(n)
    cert.add("block_left_unit", "sum of corner units is a left unit",
             max_residual(np.einsum("p,pqr->qr", unit, tensor).T, eye))
    cert.add("block_right_unit", "sum of corner units is a right unit",
             max_residual(np.einsum("q,pqr->pr", unit, tensor).T, eye))
    assoc = np.einsum("pqu,urs->pqrs", tensor, tensor) - np.einsum("qru,pus->pqrs", tensor, tensor)
    cert.add("block_associativity", "corner products assemble associatively",
             float(np.max(np.abs(assoc))) if assoc.size else 0.0)
    return cert


@dataclass
class ModuleMorphism:
    """A morphism of module categories in bi-graded normal form.

    ``fdims[p, r]`` counts the multiplicity of the p-th target base label in
    the image of the r-th source base label.  ``psi[(a, p, r)]`` is the
    exchange block relating "act after mapping" to "map after acting": rows
    are indexed by (q, n, beta) with n in dim Mor^Y and beta a multiplicity
    coordinate, columns by (s, alpha, m) with m in dim Mor^X.
    """

    source: BigradedFunctor
    target: BigradedFunctor
    fdims: np.ndarray
    psi: dict[tuple[int, int, int], np.ndarray]
    x_base: int = 0
    y_base: int = 0

    def rows(self, a: int, p: int, r: int) -> list[tuple[int, int, int]]:
        out = []
        for q in range(self.target.n_base):
            for n in range(int(self.target.dims[a, p, q])):
                for beta in range(int(self.fdims[q, r])):
                    out.append((q, n, beta))
        return out

    def cols(self, a: int, p: int, r: int) -> list[tuple[int, int, int]]:
        out = []
        for s in range(self.source.n_base):
            for alpha in range(int(self.fdims[p, s])):
                for m in range(int(self.source.dims[a, s, r])):
                    out.append((s, alpha, m))
        return out


def restriction_morphism(fx: BigradedFunctor, fy: BigradedFunctor,
                         tol: float = DEFAULT_TOL) -> ModuleMorphism:
    """The morphism induced by restricting along nested subgroups.

    Both modules must be subgroup-backed over the same category, with the
    target subgroup contained in the source subgroup.  The multiplicity
    spaces are intertwiner spaces over the smaller subgroup; the exchange
    blocks are computed by expanding honest morphism composites.
    """
    from .grouprep import UnitaryRep, intertwiner_basis

    if fx.irrep_table is None or fy.irrep_table is None:
        raise ReconstructionError("restriction morphism needs subgroup-backed modules")
    if fx.cat is not fy.cat:
        raise ReconstructionError("modules must share the category")
    hx, hy = fx.subgroup, fy.subgroup
    if not set(hy.elements) <= set(hx.elements):
        raise ReconstructionError("target subgroup must be contained in the source subgroup")

    pos_x = {g: i for i, g in enumerate(hx.elements)}

    def as_hy_rep(rep_x: UnitaryRep) -> UnitaryRep:
        mats = tuple(rep_x.matrix(pos_x[g]) for g in hy.elements)
        return UnitaryRep(hy.as_group, mats)

    jx, jy = fx.n_base, fy.n_base
    fbases: dict[tuple[int, int], tuple[np.ndarray, ...]] = {}
    fdims = np.zeros((jy, jx), dtype=np.int64)
    for p in range(jy):
        for r in range(jx):
            basis = intertwiner_basis(fy.irrep_table.irreps[p],
                                      as_hy_rep(fx.irrep_table.irreps[r]), tol)
            scale = np.sqrt(fy.base_dims[p])
            fbases[(p, r)] = tuple(scale * v for v in basis.vectors)
            fdims[p, r] = len(basis)

    mor = ModuleMorphism(fx, fy, fdims, {}, x_base=0, y_base=0)
    cat = fx.cat
    for a in cat.labels:
        da = cat.dim(a)
        eye_a = np.eye(da, dtype=np.complex128)
        for p in range(jy):
            for r in range(jx):
                rows = mor.rows(a, p, r)
                cols = mor.cols(a, p, r)
                blk = np.zeros((len(rows), len(cols)), dtype=np.complex128)
                for ci, (s, alpha, m) in enumerate(cols):
                    comp = fx.mor_basis(a, s, r)[m] @ fbases[(p, s)][alpha]
                    for ri, (q, n, beta) in enumerate(rows):
                        ty = fy.mor_basis(a, p, q)[n]
                        target = kron(eye_a, fbases[(q, r)][beta]) @ ty
                        blk[ri, ci] = np.trace(dagger(target) @ comp) / fy.base_dims[p]
                mor.psi[(a, p, r)] = blk
    return mor


def eigenvector_test(mor: ModuleMorphism, a: int) -> float:
    """Residual of the multiplicity intertwining identity for one label.

    The dimension matrix of the morphism intertwines the source and target
    multiplicity matrices of the label; for a singleton target base this is
    the Perron eigenvector equation for the action matrix.
    """
    mx = np.asarray(mor.source.dims[a], dtype=np.float64)
    my = np.asarray(mor.target.dims[a], dtype=np.float64)
    fd = np.asarray(mor.fdims, dtype=np.float64)
    return float(np.max(np.abs(fd @ mx - my @ fd)))


def gauge_transform(mor: ModuleMorphism,
                    unitaries: dict[tuple[int, int], np.ndarray]) -> ModuleMorphism:
    """Change the multiplicity-space bases by block unitaries.

    ``unitaries[(p, r)]`` rotates the (p, r) multiplicity space; missing
    blocks default to the identity.  The block at the two distinguished
    bases must stay the identity so the normalization vector is preserved.
    """
    key0 = (mor.y_base, mor.x_base)
    if key0 in unitaries and max_residual(unitaries[key0], np.eye(int(mor.fdims[key0]))) > 0:
        raise ReconstructionError("gauge must fix the distinguished multiplicity vector")

    def u(p, r):
        d = int(mor.fdims[p, r])
        return np.asarray(unitaries.get((p, r), np.eye(d)), dtype=np.complex128)

    new_psi = {}
    for (a, p, r), blk in mor.psi.items():
        rows = mor.rows(a, p, r)
        cols = mor.cols(a, p, r)
        row_t = np.zeros((len(rows), len(rows)), dtype=np.complex128)
        for i, (q, n, beta) in enumerate(rows):
            for k, (q2, n2, beta2) in enumerate(rows):
                if q == q2 and n == n2:
                    row_t[i, k] = u(q, r)[beta, beta2]
        col_t = np.zeros((len(cols), len(cols)), dtype=np.complex128)
        for i, (s, alpha, m) in enumerate(cols):
            for k, (s2, alpha2, m2) in enumerate(cols):
                if s == s2 and m == m2:
                    col_t[i, k] = u(p, s)[alpha, alpha2]
        new_psi[(a, p, r)] = dagger(row_t) @ blk @ col_t
    return ModuleMorphism(mor.source, mor.target, mor.fdims.copy(), new_psi,
                          mor.x_base, mor.y_base)


def _hexagon_residual(mor: ModuleMorphism, weights=None) -> float:
    """Two ways of exchanging a double action through the morphism.

    Path one applies the exchange label by label and then fuses on the
    target side; path two fuses on the source side and exchanges the fused
    channel.  ``weights`` optionally contracts the channel rows with given
    coefficients, exercising a non-basis fusion morphism.
    """
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
                        kmax = cat.mult(a, b, c)
                        tgt = []
                        for w in range(fy.n_base):
                            for pp in range(int(fy.dims[c, p, w])):
                                for gamma in range(int(mor.fdims[w, r])):
                                    tgt.append((w, pp, gamma))
                        if not tgt and not dom:
                            continue
                        for k in range(kmax):
                            pa = np.zeros((len(tgt), len(dom)), dtype=np.complex128)
                            pb = np.zeros((len(tgt), len(dom)), dtype=np.complex128)
                            for di, (s, t, alpha, m, n) in enumerate(dom):
                                # path one: exchange a, exchange b, fuse on target
                                rows_a = mor.rows(a, p, t)
                                cols_a = mor.cols(a, p, t)
                                ca_i = cols_a.index((s, alpha, m))
                                for ra, (q, na, beta) in enumerate(rows_a):
                                    va = mor.psi[(a, p, t)][ra, ca_i]
                                    if va == 0.0:
                                        continue
                                    rows_b = mor.rows(b, q, r)
                                    cols_b = mor.cols(b, q, r)
                                    cb_i = cols_b.index((t, beta, n))
                                    for rb, (w, nb, gamma) in enumerate(rows_b):
                                        vb = mor.psi[(b, q, r)][rb, cb_i]
                                        if vb == 0.0:
                                            continue
                                        ycoh = fy.coherence[(a, b, p, w)]
                                        if c not in ycoh:
                                            continue
                                        ycols = fy.columns(a, b, p, w)
                                        yc_i = ycols.index((q, na, nb))
                                        for pp in range(int(fy.dims[c, p, w])):
                                            ti = tgt.index((w, pp, gamma))
                                            pa[ti, di] += va * vb * ycoh[c][k, pp, yc_i]
                                # path two: fuse on source, exchange the channel
                                xcoh = fx.coherence[(a, b, s, r)]
                                if c in xcoh:
                                    xcols = fx.columns(a, b, s, r)
                                    xc_i = xcols.index((t, m, n))
                                    rows_c = mor.rows(c, p, r)
                                    cols_c = mor.cols(c, p, r)
                                    for mm in range(int(fx.dims[c, s, r])):
                                        xv = xcoh[c][k, mm, xc_i]
                                        if xv == 0.0:
                                            continue
                                        cc_i = cols_c.index((s, alpha, mm))
                                        for rc, (w, pp, gamma) in enumerate(rows_c):
                                            ti = tgt.index((w, pp, gamma))
                                            pb[ti, di] += xv * mor.psi[(c, p, r)][rc, cc_i]
                            if weights is None:
                                worst = max(worst, max_residual(pa, pb))
                            else:
                                lam = weights((a, b, c, k))
                                worst = max(worst, float(np.max(np.abs(lam * (pa - pb))))
                                            if pa.size else 0.0)
    return worst


def validate_morphism(mor: ModuleMorphism, tol: float = DEFAULT_TOL,
                      seed: int = 0) -> Certificate:
    """Diagrammatic checks for a module-category morphism in normal form."""
    cert = Certificate(subject="morphism", tolerance=tol, seed=seed)
    fx, fy = mor.source, mor.target
    cat = fx.cat

    base_ok = all(
        int(mor.fdims[p, mor.x_base]) == (1 if p == mor.y_base else 0)
        for p in range(fy.n_base)
    )
    cert.add_flag("base_normalization",
                  "the source base maps to the target base with multiplicity one", base_ok)

    unit_res = 0.0
    for p in range(fy.n_base):
        for r in range(fx.n_base):
            blk = mor.psi[(UNIT_LABEL, p, r)]
            d = int(mor.fdims[p, r])
            unit_res = max(unit_res, max_residual(blk, np.eye(d)))
    cert.add("unit_block", "the unit label exchanges as the identity", unit_res)

    unitary = 0.0
    square = True
    for (a, p, r), blk in mor.psi.items():
        if blk.shape[0] != blk.shape[1]:
            square = False
            continue
        if blk.size:
            unitary = max(unitary, max_residual(dagger(blk) @ blk, np.eye(blk.shape[1])))
    cert.add_flag("blocks_square", "exchange blocks are square", square)
    cert.add("blocks_unitary", "exchange blocks are unitary", unitary)

    cert.add("hexagon", "label-wise exchange composed with fusion is path independent",
             _hexagon_residual(mor))

    rng = np.random.default_rng(seed)
    lams = {}

    def weights(key):
        if key not in lams:
            lams[key] = complex(rng.standard_normal() + 1j * rng.standard_normal())
        return lams[key]

    cert.add("hexagon_sampled",
             "path independence against a random fusion-channel combination",
             _hexagon_residual(mor, weights))

    eig = max(eigenvector_test(mor, a) for a in cat.labels)
    cert.add("multiplicity_intertwining",
             "dimension matrix intertwines the source and target action matrices",
             eig, threshold=0.0)
    return cert


def algebra_map(mor: ModuleMorphism) -> np.ndarray:
    """Matrix of the induced unital *-homomorphism between the base algebras."""
    fx, fy = mor.source, mor.target
    if int(mor.fdims[mor.y_base, mor.x_base]) != 1:
        raise ReconstructionError("morphism is not normalized at the bases")
    src = basis_triples(fx, mor.x_base, mor.x_base)
    dst = basis_triples(fy, mor.y_base, mor.y_base)
    dst_pos = {t: i for i, t in enumerate(dst)}
    theta = np.zeros((len(dst), len(src)), dtype=np.complex128)
    for ci, (a, m, i) in enumerate(src):
        blk = mor.psi[(a, mor.y_base, mor.x_base)]
        rows = mor.rows(a, mor.y_base, mor.x_base)
        cols = mor.cols(a, mor.y_base, mor.x_base)
        cc = cols.index((mor.x_base, 0, m))
        for ri, (q, n, beta) in enumerate(rows):
            if q != mor.y_base or beta != 0:
                continue
            theta[dst_pos[(a, n, i)], ci] += blk[ri, cc]
    return theta


def verify_algebra_map(mor: ModuleMorphism, tol: float = DEFAULT_TOL) -> Certificate:
    """The induced map is an injective unital *-homomorphism."""
    cert = Certificate(subject="algebra-map", tolerance=tol)
    ax = build_algebra(mor.source, mor.x_base)
    ay = build_algebra(mor.target, mor.y_base)
    th = algebra_map(mor)

    cert.add("unital", "the unit maps to the unit",
             max_residual(th @ ax.unit, ay.unit))
    worst = 0.0
    for p in range(ax.dim):
        for q in range(ax.dim):
            lhs = th @ ax.tensor[p, q, :]
            rhs = ay.multiply(th[:, p], th[:, q])
            worst = max(worst, max_residual(lhs, rhs))
    cert.add("multiplicative", "products map to products on all basis pairs", worst)
    star_res = max_residual(th @ ax.star_mat, ay.star_mat @ np.conj(th))
    cert.add("star_compatible", "the involution is preserved", star_res)
    rank = int(np.linalg.matrix_rank(th, tol=1e-9))
    cert.add_flag("injective", "the induced map is injective",
                  rank == ax.dim, value=float(rank))
    return cert
