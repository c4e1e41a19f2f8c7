"""Reconstruction of *-algebras and bimodules from bi-graded module data.

Every pair (x, y) of base labels yields a finite-dimensional spectral space
spanned by triples (a, m, i): a channel label, a multiplicity index into
Mor(X_x, u_a (x) X_y), and a coordinate in the fiber Hilbert space of u_a.
Multiplication, the involution, and the invariant expectation are all exact
finite formulas in the coherence and duality data of the module.

Each space is laid out in contiguous blocks over its leading label, and a
cumulative-offset vector (``numkit.block_offsets``) says where each block
starts:

- the (x, y) spectral space: one (dims[a, x, y], d_a) block of triples
  (m, i) per label a, at ``spectral_offsets(f, x, y)``, whose last entry is
  the ``dim`` of the algebra or bimodule.  The unit label's block comes
  first, and ``block_algebra`` requires it to be 1 x 1 at each base label,
  so the unit of an algebra at one base is element 0;
- the columns (s, m, n) of coherence block (a, b, r, t): one (dims[a, r, s],
  dims[b, s, t]) block per intermediate base label s with a column, at
  ``BigradedFunctor.coherence_block(a, b, r, t)[1][s]``;
- the rows (q, n, beta) of ``psi[(a, p, r)]``: one (target dims[a, p, q],
  fdims[q, r]) block per target base label q, at
  ``ModuleMorphism.row_offsets``; its columns (s, alpha, m): one
  (fdims[p, s], source dims[a, s, r]) block per source base label s, at
  ``ModuleMorphism.col_offsets``.

The kernels contract these blocks, or whole row or column ranges of them.

``structure_tensor`` and ``star_matrix`` build each corner once per module:
the result is stored in ``BigradedFunctor.memo``, under (x, y, z) or (x, y),
with its ``writeable`` flag off, and every later call with the same labels
returns that array.  Nothing is evicted.  With every triple built, the
tensors hold sum_{x,y,z} n_xy n_yz n_xz complex entries, n_xy the dimension
of the (x, y) spectral space; that is |G|^3 for a subgroup module of Rep(G)
(n_xy = [G:H] d_x d_y) and for a coset module over a group G (n_xy = |K|):
221 KB for S4, 27.6 MB for S5.  The star matrices hold sum_{x,y} n_xy n_yx.
A copy made with ``dataclasses.replace`` starts with an empty memo.  Every
``StarAlgebra`` is ``block_algebra``'s, at one base label or more (all J: the
linking algebra), and holds these corner arrays themselves, no dense sum.

Every certificate follows ``numkit``'s rule for NaN and inf: a check that
reads one fails with the value NaN.  The LAPACK calls that would raise on
one (``cp_certificate``'s and ``joint_projections``' eigenvalues,
``verify_algebra_map``'s rank) test their matrix for finiteness first, and
every rank or eigenvalue-gap decision is ``numkit.above``'s.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, product

import numpy as np

from .certificate import Certificate
from .modcat import BigradedFunctor
from .numkit import DEFAULT_TOL, above, block_offsets, dagger, kron, largest, max_residual
from .tensorcat import UNIT_LABEL


class ReconstructionError(ValueError):
    pass


# the relative eigenvalue gap at which ``joint_projections`` splits a space
SPLIT_GAP = 1e-6


# the nonzero blocks of a structure tensor cut into corners, keyed by the corners (i, j, k) they sit at
Blocks = dict[tuple[int, int, int], np.ndarray]


def basis_triples(f: BigradedFunctor, x: int, y: int) -> list[tuple[int, int, int]]:
    """Ordered index triples (a, m, i) spanning the spectral space at (x, y)."""
    return [(a, m, i) for a in f.cat.labels for m in range(int(f.dims[a, x, y])) for i in range(f.cat.dim(a))]


def spectral_offsets(f: BigradedFunctor, x: int, y: int) -> np.ndarray:
    """Where the (dims[a, x, y], d_a) block of each label a starts in the (x, y) spectral space."""
    return block_offsets(f.dims[:, x, y] * np.asarray(f.cat.obj_dim))


def _memoised(f: BigradedFunctor, build, *key: int) -> np.ndarray:
    """``build(f, *key)``, computed once per module and kept read-only in ``f.memo``."""
    out = f.memo.get(key)
    if out is None:
        out = f.memo[key] = build(f, *key)
        out.flags.writeable = False
    return out


def structure_tensor(f: BigradedFunctor, x: int, y: int, z: int) -> np.ndarray:
    """Structure constants of the composition map at (x,y) x (y,z) -> (x,z).

    Entry [p, q, r] is the coefficient of the r-th output basis element in
    the product of the p-th and q-th inputs.  The array is built once per
    module and shared: it is read-only, and ``f.memo[(x, y, z)]`` keeps it.
    Over every triple the tensors of a subgroup or coset module of a group G
    hold |G|^3 complex entries.
    """
    return _memoised(f, _structure_tensor, x, y, z)


def _structure_tensor(f: BigradedFunctor, x: int, y: int, z: int) -> np.ndarray:
    """The uncached ``structure_tensor``.

    Products against the unit label are written as exact identities rather
    than computed.  The block of labels (a, b) in channel c contracts the
    (y, m, n) coherence columns with the stacked fusion isometries.
    """
    cat = f.cat
    left, right, out = (spectral_offsets(f, *key) for key in ((x, y), (y, z), (x, z)))
    tensor = np.zeros((left[-1], right[-1], out[-1]), dtype=np.complex128)
    if f.dims[UNIT_LABEL, x, y]:
        tensor[0] = np.eye(right[-1])
    if f.dims[UNIT_LABEL, y, z]:
        tensor[:, 0] = np.eye(left[-1])
    for a in np.flatnonzero(f.dims[:, x, y]).tolist():
        for b in np.flatnonzero(f.dims[:, y, z]).tolist():
            if UNIT_LABEL in (a, b):
                continue
            (coh, cols), up = f.coherence_block(a, b, x, z), 0
            nm, nn = int(f.dims[a, x, y]), int(f.dims[b, y, z])
            da, db = cat.dim(a), cat.dim(b)
            for c in cat.channels(a, b):  # rows (c, k, p)
                k, npp, dc = cat.mult(a, b, c), int(f.dims[c, x, z]), cat.dim(c)
                coeff = coh[up:up + k * npp, cols[y]:cols[y] + nm * nn].reshape(k, npp, nm, nn)
                up += k * npp
                # fiber vectors live in the conjugate Hilbert space,
                # so the channel projection uses the conjugated isometry
                iotas = np.stack(cat.isometries(a, b, c)).reshape(k, da, db, dc)
                blk = np.einsum("kpmn,kijl->minjpl", coeff, iotas)
                tensor[left[a]:left[a + 1], right[b]:right[b + 1], out[c]:out[c + 1]] = \
                    blk.reshape(nm * da, nn * db, npp * dc)
    return tensor


def star_matrix(f: BigradedFunctor, x: int, y: int) -> np.ndarray:
    """Matrix of the conjugate-linear involution from the (x,y) to the (y,x) spectral space.

    ``star(v) = S @ conj(v)``.  Built once per module, read-only, and kept
    in ``f.memo[(x, y)]``.
    """
    return _memoised(f, _star_matrix, x, y)


def _star_matrix(f: BigradedFunctor, x: int, y: int) -> np.ndarray:
    """The uncached ``star_matrix``.

    The block from label a to its dual is the Frobenius block of a times the
    conjugated Rbar_a of the canonical pair, solved from the fusion data so
    that user rescalings of the stored conjugates never leak into the result.
    """
    cat = f.cat
    src, dst = spectral_offsets(f, x, y), spectral_offsets(f, y, x)
    s = np.zeros((dst[-1], src[-1]), dtype=np.complex128)
    for a in np.flatnonzero(f.dims[:, x, y]).tolist():
        abar = cat.dual_map[a]
        rbar = np.conj(cat.canonical_conjugates(a)[1]).reshape(cat.dim(a), cat.dim(abar))
        blk = np.einsum("qm,il->qlmi", f.frobenius_block(a, x, y), rbar)
        s[dst[abar]:dst[abar + 1], src[a]:src[a + 1]] = blk.reshape(dst[abar + 1] - dst[abar],
                                                                    src[a + 1] - src[a])
    return s


@dataclass(frozen=True, eq=False)
class StarAlgebra:
    """A finite-dimensional *-algebra, as arrays only: ``block_algebra`` fills it.

    ``offsets`` cut the basis into corners (``numkit.block_offsets``), the J^2 corners (u, v) = u J + v of
    J base labels.  ``blocks[i, j, k]`` is the block of the structure tensor at corners (i, j, k), e_p e_q =
    sum_r t[p, q, r] e_r; only blocks with a nonzero entry (NaN and inf count) are kept.  ``star[i]`` maps
    corner i = (u, v) onto (v, u), v -> star[i] @ conj(v), and ``unit`` is the unit's coefficients.
    """

    name: str
    blocks: Blocks
    star: list[np.ndarray]
    unit: np.ndarray
    offsets: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.unit)

    @property
    def tensor(self) -> np.ndarray:
        """The structure tensor of a one-corner record: its one block itself, not a copy."""
        if len(self.offsets) != 2:
            raise ReconstructionError("only a one-corner algebra has a single structure tensor")
        return self.blocks[0, 0, 0]

    @property
    def star_mat(self) -> np.ndarray:
        """The star matrix of a one-corner record: its one star block itself, not a copy."""
        if len(self.offsets) != 2:
            raise ReconstructionError("only a one-corner algebra has a single star matrix")
        return self.star[0]

    def gram_from_product(self) -> np.ndarray:
        """Gram matrix E(e_p^* e_q) through star and product, E the coefficient of e_0 (the unit at a base)."""
        return self.star_mat.T @ self.tensor[:, :, 0]


def gram_closed_form(f: BigradedFunctor, base: int) -> np.ndarray:
    """Gram matrix of the algebra at ``base`` from the duality data alone, bypassing the product.

    Block for label a: E(e_{(a,m,i)}^* e_{(a,n,j)}) =
    (B^t B-bar)[m, n] * V[i, j] / qdim(a) where B is the dual-label
    expansion of the Frobenius images and V pairs the conjugate vectors.
    """
    cat = f.cat
    off = spectral_offsets(f, base, base)
    g = np.zeros((off[-1], off[-1]), dtype=np.complex128)
    for a in np.flatnonzero(f.dims[:, base, base]).tolist():
        da = cat.dim(a)
        dbar = cat.dim(cat.dual_map[a])
        r, rbar = cat.canonical_conjugates(a)
        b = f.frobenius_block(a, base, base)
        bb = dagger(b) @ b
        # V[i, j] = sum_l conj(Rbar[i, l]) R[l, j]
        v = np.conj(rbar).reshape(da, dbar) @ r.reshape(dbar, da)
        g[off[a]:off[a + 1], off[a]:off[a + 1]] = np.kron(bb.T, v) / cat.qdim[a]
    return g


def build_algebra(f: BigradedFunctor, base: int = 0) -> StarAlgebra:
    """The algebra at ``base``: ``block_algebra`` at that one label, whose block and star are the memo's."""
    return block_algebra(f, base)


def _assoc_residual(ab: Blocks, bc: Blocks, left: Blocks, right: Blocks) -> float:
    """max |sum_u ab[p, q, u] bc[u, r, s] - sum_u left[q, r, u] right[p, u, s]| over (p, q, r, s).

    Each factor is a dict of its blocks, as ``StarAlgebra.blocks``: a block
    that is absent is zero, and the sizes are read from the blocks' shapes.
    Output block (P, Q, R, S) sums only the products ab[P, Q, U] bc[U, R, S]
    and left[Q, R, V] right[P, V, S] of present blocks, in increasing U and
    V.  Both bracketings are formed one p at a time, as GEMMs of blocks:
    O(n^3) memory, and no n^4 array is built.
    """
    terms: dict[tuple[int, int, int, int], tuple[list, list]] = {}
    for (p, q, u), (u2, r, s) in product(sorted(ab), sorted(bc)):
        if u == u2:
            terms.setdefault((p, q, r, s), ([], []))[0].append(u)
    for (q, r, v), (p, v2, s) in product(sorted(left), sorted(right)):
        if v == v2:
            terms.setdefault((p, q, r, s), ([], []))[1].append(v)
    # the factor blocks as matrices: bc[U, R, S] as (u, (r, s)), left[Q, R, V] as ((q, r), v)
    bc_mat = {key: blk.reshape(len(blk), -1) for key, blk in bc.items()}
    left_mat = {key: blk.reshape(-1, blk.shape[2]) for key, blk in left.items()}
    values = []
    for (bp, q, r, s), (us, vs) in terms.items():
        rows, nq = ab[bp, q, us[0]].shape[:2] if us else (len(right[bp, vs[0], s]), len(left[q, r, vs[0]]))
        for p in range(rows):
            one = [ab[bp, q, u][p] @ bc_mat[u, r, s] for u in us]
            two = [(left_mat[q, r, v] @ right[bp, v, s][p]).reshape(nq, -1) for v in vs]
            d = (sum(one[1:], one[0]) if one else 0.0) - (sum(two[1:], two[0]) if two else 0.0)
            values.append(np.max(np.abs(d), initial=0.0))
    return largest(values)


def _bilinear(t: np.ndarray, mu: np.ndarray, mv: np.ndarray) -> np.ndarray:
    """out[i, j, r] = sum_{u, v} mu[u, i] mv[v, j] t[u, v, r], as two GEMMs."""
    nu, nv, nr = t.shape
    ni, nj = mu.shape[1], mv.shape[1]
    a = (mu.T @ t.reshape(nu, nv * nr)).reshape(ni, nv, nr)
    out = mv.T @ a.transpose(1, 0, 2).reshape(nv, ni * nr)  # [j, (i, r)]
    return out.reshape(nj, ni, nr).transpose(1, 0, 2)


def _antimultiplicative_residual(t: Blocks, star: list[np.ndarray], op: list[int]) -> float:
    """max |(e_p e_q)* - e_q* e_p*| over basis pairs, for the blocks ``t`` and the corner stars ``star``.

    Block (P, Q, W) is compared with its swapped partner (Q', P', W'), i' = op[i] the transposed corner:
    conj(t[P, Q, W]) star[W]^T against star[Q] star[P] t[Q', P', W'], one product or zero on each side.
    """
    values = []
    for p, q, w in sorted(set(t) | {(op[q], op[p], op[w]) for p, q, w in t}):
        partner = op[q], op[p], op[w]
        one = np.conj(t[p, q, w]) @ star[w].T if (p, q, w) in t else 0.0
        two = _bilinear(t[partner], star[q], star[p]).transpose(1, 0, 2) if partner in t else 0.0
        values.append(max_residual(one, two))
    return largest(values)


def verify_algebra(alg: StarAlgebra, tol: float = DEFAULT_TOL) -> Certificate:
    """Check the *-algebra axioms of the record; products of all-zero corner blocks are skipped."""
    cert = Certificate(subject=f"algebra[{alg.name}]", tolerance=tol)
    t, star, one, off = alg.blocks, alg.star, alg.unit, alg.offsets

    # 1 * e_q and e_p * 1, summed corner block by corner block
    B = [slice(lo, hi) for lo, hi in zip(off[:-1].tolist(), off[1:].tolist())]
    left, right = np.zeros((2, alg.dim, alg.dim), dtype=np.complex128)
    for (i, j, k), blk in t.items():
        left[B[j], B[k]] += np.einsum("p,pqr->qr", one[B[i]], blk)
        right[B[i], B[k]] += np.einsum("q,pqr->pr", one[B[j]], blk)
    eye = np.eye(alg.dim)
    cert.add("left_unit", "1 * f = f exactly on every basis element", max_residual(left.T, eye))
    cert.add("right_unit", "f * 1 = f exactly on every basis element", max_residual(right.T, eye))

    cert.add("associativity", "(fg)h = f(gh) on all basis triples", _assoc_residual(t, t, t, t))

    j = round(len(star) ** 0.5)
    op = [(i % j) * j + i // j for i in range(len(star))]  # the corner (v, u) of each corner (u, v)
    cert.add("involution", "f** = f on every basis element",
             largest([max_residual(star[op[i]] @ np.conj(s), np.eye(len(s))) for i, s in enumerate(star)]))
    cert.add("unit_star", "1* = 1",
             largest([max_residual(s @ np.conj(one[B[i]]), one[B[op[i]]]) for i, s in enumerate(star)]))
    cert.add("antimultiplicative", "(fg)* = g* f* on all basis pairs", _antimultiplicative_residual(t, star, op))
    return cert


def cp_certificate(alg: StarAlgebra, gram: np.ndarray, tol: float = DEFAULT_TOL) -> Certificate:
    """Positivity of the invariant expectation: ``gram`` (``gram_closed_form``) against the product route."""
    cert = Certificate(subject=f"cp[{alg.name}]", tolerance=tol)
    g1 = alg.gram_from_product()
    cert.add("gram_routes", "product-route Gram equals closed-form Gram",
             max_residual(g1, gram))
    cert.add("gram_hermitian", "Gram matrix is Hermitian",
             max_residual(g1, dagger(g1)))
    # h is Hermitian to the last bit; a NaN may reach only some eigenvalues
    h = (g1 + dagger(g1)) / 2.0
    lo = float(np.linalg.eigvalsh(h)[0]) if np.isfinite(h).all() else float("nan")
    cert.add_flag("gram_psd", "Gram matrix is positive semidefinite",
                  lo >= -tol * max(1.0, float(np.max(np.abs(h)))), value=-lo)
    cert.add("state_unit", "E(1* 1) = 1", abs(g1[0, 0] - 1.0))
    return cert


def joint_projections(alg: StarAlgebra, elements: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Projections onto the joint eigenspaces of left multiplication by ``elements``, as coefficient rows.

    The space is whitened by ``eigh`` of the product-route Gram matrix, keeping the eigenvalues that
    ``numkit.above`` puts above ``tol`` times the largest (at least 1).  It is split by the self-adjoint
    parts (v + v*)/2 and (v - v*)/2i of each element v in turn, wherever ``above`` puts an eigenvalue gap
    above ``SPLIT_GAP`` times the largest modulus (at least 1), until it has one space per dimension.  A
    space is a left ideal qA, so the unit projected onto it is the projection q.  A non-finite tensor or
    star gives n all-NaN rows and solves no eigenvalue problem.
    """
    t, s, n = alg.tensor, alg.star_mat, alg.dim
    if not (np.isfinite(t).all() and np.isfinite(s).all()):
        return np.full((n, n), np.nan, dtype=np.complex128)
    g = alg.gram_from_product()
    g = (g + dagger(g)) / 2.0
    lam, u = np.linalg.eigh(g)
    keep = above(lam, tol * max(1.0, lam[-1]), "Gram eigenvalues")
    w = u[:, keep] / np.sqrt(lam[keep])  # from whitened coordinates to coefficients
    back = dagger(w) @ g  # from coefficients to whitened coordinates
    m = w.shape[1]
    spaces = [np.eye(m, dtype=np.complex128)] if m else []
    for v in elements:
        if len(spaces) >= m:
            break
        v_star = s @ np.conj(v)
        for part in ((v + v_star) / 2.0, (v - v_star) / 2j):
            op = back @ np.einsum("p,pqr->rq", part, t) @ w
            op = (op + dagger(op)) / 2.0
            split = []
            for q in spaces:
                vals, vecs = np.linalg.eigh(dagger(q) @ op @ q)
                gaps = above(np.diff(vals), SPLIT_GAP * max(1.0, np.abs(vals).max()), "eigenvalue gaps")
                split += np.split(q @ vecs, np.flatnonzero(gaps) + 1, axis=1)
            spaces = split
    one = back @ alg.unit
    return np.array([w @ (q @ (dagger(q) @ one)) for q in spaces], dtype=np.complex128).reshape(len(spaces), n)


def classical_roundtrip(alg: StarAlgebra, tol: float = DEFAULT_TOL) -> Certificate:
    """Diagonalize a commutative algebra into pointwise multiplication, with no random element.

    ``joint_projections`` by the basis elements must give one self-adjoint idempotent per basis element,
    orthogonal and summing to the unit: the characters of a function algebra.
    """
    cert = Certificate(subject=f"classical[{alg.name}]", tolerance=tol)
    t, n = alg.tensor, alg.dim
    cert.add("commutativity", "fg = gf on all basis pairs", max_residual(t, t.transpose(1, 0, 2)))
    e = joint_projections(alg, np.eye(n), tol)
    prod = np.einsum("ip,kq,pqr->ikr", e, e, t)
    diag = np.arange(len(e))
    cert.add("idempotents", "each projection is idempotent", max_residual(prod[diag, diag], e))
    cert.add("orthogonality", "distinct projections multiply to zero", largest(np.abs(prod[diag[:, None] != diag])))
    cert.add("partition_of_unit", "the projections sum to the unit", max_residual(e.sum(axis=0), alg.unit))
    cert.add("self_adjoint", "each projection is self-adjoint", max_residual(np.conj(e) @ alg.star_mat.T, e))
    count = float(len(e)) if np.isfinite(e).all() else float("nan")
    cert.add_flag("point_count", "number of characters equals the dimension", count == n, value=count)
    return cert


@dataclass
class SpectralBimodule:
    """The (x, y) corner with its outer multiplications, each read from the module's memo."""

    functor: BigradedFunctor
    x: int
    y: int

    @property
    def dim(self) -> int:
        return int(spectral_offsets(self.functor, self.x, self.y)[-1])

    @property
    def left_tensor(self) -> np.ndarray:
        return structure_tensor(self.functor, self.x, self.x, self.y)

    @property
    def right_tensor(self) -> np.ndarray:
        return structure_tensor(self.functor, self.x, self.y, self.y)

    @property
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
    ax, ay = build_algebra(f, x), build_algebra(f, y)
    lt, rt = bim.left_tensor, bim.right_tensor

    eye = np.eye(bim.dim)
    cert.add("left_unit", "1_x acts as the identity",
             max_residual(np.einsum("p,pqr->qr", ax.unit, lt).T, eye))
    cert.add("right_unit", "1_y acts as the identity",
             max_residual(np.einsum("q,pqr->pr", ay.unit, rt).T, eye))

    lb, rb = {(0, 0, 0): lt}, {(0, 0, 0): rt}  # each corner tensor as a one-block dict
    cert.add("left_associativity", "(fg)v = f(gv) for the left algebra", _assoc_residual(ax.blocks, lb, lb, lb))
    cert.add("right_associativity", "(vg)h = v(gh) for the right algebra", _assoc_residual(rb, rb, ay.blocks, rb))
    cert.add("commuting_actions", "(fv)h = f(vh)", _assoc_residual(lb, rb, rb, lb))

    # star exchanges the corner with its transpose and the two actions
    s = bim.star_mat
    s_back = star_matrix(f, y, x)
    cert.add("star_involutive", "star from (x,y) and back composes to the identity",
             max_residual(s_back @ np.conj(s), eye))
    tyx_r = structure_tensor(f, y, x, x)
    cert.add("star_exchanges_actions", "(f v)* = v* f* into the opposite corner",
             max_residual(np.conj(lt) @ s.T, _bilinear(tyx_r, s, ax.star_mat).transpose(1, 0, 2)))
    return cert


def block_structure_tensor(f: BigradedFunctor, blocks: tuple[int, ...]) -> tuple[list, Blocks]:
    """Structure constants of the algebra at a direct sum of base labels, as nonzero corner blocks.

    The basis is indexed by (u, v, a, m, i): a corner (u, v) and a spectral triple of it, corners in
    (u, v) order.  The product of corners (u, v) and (v, w) is the memo's structure tensor of (blocks[u],
    blocks[v], blocks[w]) itself, keyed (u k + v, v k + w, u k + w); no other product is nonzero, and no
    n^3 array is built.  ``block_algebra`` builds every record from it.
    """
    k = len(blocks)
    basis = [(u, v) + t for u in range(k) for v in range(k) for t in basis_triples(f, blocks[u], blocks[v])]
    corners = {}
    for u, v, w in product(range(k), repeat=3):
        t = structure_tensor(f, blocks[u], blocks[v], blocks[w])
        if t.any():
            corners[u * k + v, v * k + w, u * k + w] = t
    return basis, corners


def block_algebra(f: BigradedFunctor, *labels: int) -> StarAlgebra:
    """The algebra at the direct sum of the base labels: ``block_structure_tensor``'s blocks, corner stars.

    One label gives the algebra at that base, all J the linking algebra: every corner B_xy, which carries
    the Morita equivalences (Brown, Green and Rieffel, Pacific J. Math. 71, 1977).  The unit is the sum of
    the corner units, the first element of each corner (u, u).
    """
    for x in labels:
        if not 0 <= x < f.n_base:
            raise ReconstructionError(f"base label {x} out of range 0..{f.n_base - 1}")
        if f.dims[UNIT_LABEL, x, x] != 1:
            raise ReconstructionError(f"unit label must act trivially at base label {x}")
    _, blocks = block_structure_tensor(f, labels)
    star = [star_matrix(f, x, y) for x, y in product(labels, repeat=2)]
    off = block_offsets([s.shape[1] for s in star])  # the star of a corner has a column per element
    unit = np.bincount(off[:-1:len(labels) + 1], minlength=off[-1]).astype(np.complex128)
    at = labels[0] if len(labels) == 1 else f"({','.join(map(str, labels))})"
    return StarAlgebra(f"{f.name}@{at}", blocks, star, unit, off)


def block_consistency(f: BigradedFunctor, x: int, y: int, tol: float = DEFAULT_TOL) -> Certificate:
    """``verify_algebra`` on ``block_algebra(f, x, y)``: corners from simple bases form a *-algebra."""
    return verify_algebra(block_algebra(f, x, y), tol)


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

    @cached_property
    def row_offsets(self) -> np.ndarray:
        """``row_offsets[a, p, r]``: where the (target dims[a, p, q], fdims[q, r]) row block of each q
        starts in psi[(a, p, r)]."""
        sizes = self.target.dims[:, :, :, None] * self.fdims  # [a, p, q, r]
        return block_offsets(sizes.transpose(0, 1, 3, 2))

    @cached_property
    def col_offsets(self) -> np.ndarray:
        """``col_offsets[a, p, r]``: where the (fdims[p, s], source dims[a, s, r]) column block of each s
        starts in psi[(a, p, r)]."""
        sizes = self.fdims[None, :, :, None] * self.source.dims[:, None]  # [a, p, s, r]
        return block_offsets(sizes.transpose(0, 1, 3, 2))


def restriction_morphism(fx: BigradedFunctor, fy: BigradedFunctor,
                         tol: float = DEFAULT_TOL) -> ModuleMorphism:
    """The morphism induced by restricting along nested subgroups.

    Both modules must be subgroup-backed over the same category, with the
    target subgroup contained in the source subgroup.  The multiplicity
    spaces are ``grouprep.decompose`` of each source irreducible restricted
    to the smaller subgroup, whose refusals are raised as
    ``ReconstructionError``; the exchange blocks are computed by expanding
    honest morphism composites.
    """
    from .grouprep import IrrepExtractionError, Subgroup, decompose, restrict

    if fx.irrep_table is None or fy.irrep_table is None:
        raise ReconstructionError("restriction morphism needs subgroup-backed modules")
    if fx.cat is not fy.cat:
        raise ReconstructionError("modules must share the category")
    hx, hy = fx.subgroup, fy.subgroup
    if not set(hy.elements) <= set(hx.elements):
        raise ReconstructionError("target subgroup must be contained in the source subgroup")

    # H_y as a subgroup of H_x, on H_x's element positions
    pos_x = {g: i for i, g in enumerate(hx.elements)}
    hy_in_hx = Subgroup(hx.as_group, tuple(pos_x[g] for g in hy.elements))

    jx, jy = fx.n_base, fy.n_base
    fbases: dict[tuple[int, int], np.ndarray] = {}
    fdims = np.zeros((jy, jx), dtype=np.int64)
    for r in range(jx):
        try:
            found = decompose(fy.irrep_table.irreps, restrict(fx.irrep_table.irreps[r], hy_in_hx), tol)
        except IrrepExtractionError as err:
            raise ReconstructionError(f"block (p, {r}): {err}") from err
        for p, basis in found.items():
            fbases[(p, r)] = np.sqrt(fy.base_dims[p]) * basis
            fdims[p, r] = len(basis)

    mor = ModuleMorphism(fx, fy, fdims, {}, x_base=0, y_base=0)
    cat = fx.cat
    for a in cat.labels:
        eye_a = np.eye(cat.dim(a), dtype=np.complex128)
        for p in range(jy):
            for r in range(jx):
                # columns (s, alpha, m) and rows (q, n, beta), in block order
                shape = (cat.dim(a) * fx.base_dims[r], fy.base_dims[p])
                comps = np.array([tx @ fa for s in range(jx) for fa in fbases.get((p, s), ())
                                  for tx in fx.mor_basis(a, s, r)], dtype=np.complex128).reshape(-1, *shape)
                targets = np.array([kron(eye_a, fb) @ ty for q in range(jy) for ty in fy.mor_basis(a, p, q)
                                    for fb in fbases.get((q, r), ())], dtype=np.complex128).reshape(-1, *shape)
                overlaps = np.conj(targets).transpose(0, 2, 1)[:, None] @ comps[None]
                mor.psi[(a, p, r)] = np.trace(overlaps, axis1=-2, axis2=-1) / fy.base_dims[p]
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


def _hexagon_residual(mor: ModuleMorphism) -> float:
    """Two ways of exchanging a double action through the morphism; the worst |path one - path two|.

    Path one exchanges a, then b, then fuses on the target; path two fuses on
    the source, then exchanges the channel c.  Per (a, b, p, r) and target
    label w, both are built on every channel's rows (c, k, pp, gamma) and the
    whole domain (s, alpha, t, m, n): psi[(c, p, r)] against the source
    coherence per (s, c); the target coherence against psi[(b, q, r)] per q,
    then psi[(a, p, t)] per t, read through an index.
    """
    fx, fy = mor.source, mor.target
    cat, jx, jy = fx.cat, fx.n_base, fy.n_base
    fd, dx, dy, rows, cols = (v.tolist() for v in (mor.fdims, fx.dims, fy.dims, mor.row_offsets, mor.col_offsets))
    xblocks, yblocks, worst = fx.coherence_blocks(), fy.coherence_blocks(), []
    dead = fx.coherence[:0].reshape(0, 0), {}
    for a, b, p, r, w in product(cat.labels, cat.labels, range(jy), range(jx), range(jy)):
        xblk, xcols = zip(*[xblocks.get((a, b, s, r), dead) for s in range(jx)])  # [s]: columns (t, m, n)
        xn = [blk.shape[1] for blk in xblk]
        dom = [0, *accumulate(fd[p][s] * xn[s] for s in range(jx))]
        (ycoh, ycols), g = yblocks.get((a, b, p, w), dead), fd[w][r]
        if not dom[-1] * (nr := len(ycoh)) * g:
            continue
        two = np.empty((nr, g, dom[-1]), dtype=np.complex128)
        for s in [s for s in range(jx) if dom[s + 1] > dom[s]]:
            up, left = 0, 0
            for c, isos in sorted(cat.fusion[(a, b)].items()):
                k, u, pp, crows, ccols = len(isos), dx[c][s][r], dy[c][p][w], rows[c][p][r], cols[c][p][r]
                psi_c = mor.psi[(c, p, r)][crows[w]:crows[w + 1], ccols[s]:ccols[s + 1]]
                blk = psi_c.reshape(pp * g * fd[p][s], u) @ xblk[s][up:up + k * u].reshape(k, u, xn[s])
                two[left:left + k * pp, :, dom[s]:dom[s + 1]] = blk.reshape(k * pp, g, dom[s + 1] - dom[s])
                up, left = up + k * u, left + k * pp
        # [q]: the target block against psi[(b, q, r)], (rows, x, gamma, columns (t, beta, n) of psi[(b, q, r)])
        yb = [(ycoh[:, (y0 := ycols.get(q, 0)):y0 + dy[a][p][q] * dy[b][q][w]].reshape(nr * dy[a][p][q], dy[b][q][w])
               @ mor.psi[(b, q, r)][rows[b][q][r][w]:rows[b][q][r][w + 1]].reshape(dy[b][q][w], g * cols[b][q][r][-1]))
              .reshape(nr, dy[a][p][q], g, cols[b][q][r][-1]) for q in range(jy)]
        one, at = [], []  # at[i]: where column i of path one sits in the domain
        for t in [t for t in range(jx) if dx[b][t][r] * cols[a][p][t][-1]]:
            n, bcols = dx[b][t][r], [cols[b][q][r][t:t + 2] for q in range(jy)]
            lifted = np.concatenate([yb[q][..., bcols[q][0]:bcols[q][1]].reshape(nr, dy[a][p][q], g, fd[q][t], n)
                                     .transpose(0, 2, 4, 1, 3).reshape(nr, g, n, -1) for q in range(jy)], axis=-1)
            one.append((lifted @ mor.psi[(a, p, t)]).reshape(nr, g, -1))
            at += [dom[s] + al * xn[s] + xcols[s][t] + m * n + i for i in range(n) for s in range(jx)
                   for al in range(fd[p][s]) for m in range(dx[a][s][t])]
        worst.append(np.abs(np.concatenate(one, axis=-1) - two[..., at]).max(initial=0.0))
    return largest(worst)


def validate_morphism(mor: ModuleMorphism, tol: float = DEFAULT_TOL,
                      seed: int = 0) -> Certificate:
    """Diagrammatic checks for a module-category morphism in normal form.

    Every check is deterministic; ``seed`` only stamps the certificate.
    """
    cert = Certificate(subject="morphism", tolerance=tol, seed=seed)
    fx, fy = mor.source, mor.target
    cat = fx.cat

    base_ok = all(
        int(mor.fdims[p, mor.x_base]) == (1 if p == mor.y_base else 0)
        for p in range(fy.n_base)
    )
    cert.add_flag("base_normalization",
                  "the source base maps to the target base with multiplicity one", base_ok)

    # a unit block of another shape than (fdims, fdims) fails with inf, as the hexagon does below
    units = [(mor.psi[(UNIT_LABEL, p, r)], np.eye(int(mor.fdims[p, r]))) for p in range(fy.n_base)
             for r in range(fx.n_base)]
    unit_res = largest([max_residual(blk, eye) if blk.shape == eye.shape else np.inf for blk, eye in units])
    cert.add("unit_block", "the unit label exchanges as the identity", unit_res)

    square = all(blk.shape[0] == blk.shape[1] for blk in mor.psi.values())
    unitary = largest([max_residual(dagger(blk) @ blk, np.eye(blk.shape[1])) for blk in mor.psi.values()
                       if blk.shape[0] == blk.shape[1] and blk.size])
    cert.add_flag("blocks_square", "exchange blocks are square", square)
    cert.add("blocks_unitary", "exchange blocks are unitary", unitary)

    # the hexagon reads each block at the shape its offsets give; a block of another shape fails it with inf
    shaped = all(blk.shape == (mor.row_offsets[key][-1], mor.col_offsets[key][-1]) for key, blk in mor.psi.items())
    cert.add("hexagon", "label-wise exchange composed with fusion is path independent",
             _hexagon_residual(mor) if shaped else np.inf)

    eig = max(eigenvector_test(mor, a) for a in cat.labels)
    cert.add("multiplicity_intertwining",
             "dimension matrix intertwines the source and target action matrices",
             eig, threshold=0.0)
    return cert


def algebra_map(mor: ModuleMorphism) -> np.ndarray:
    """Matrix of the induced unital *-homomorphism between the base algebras.

    Label a maps by B (x) I, B the exchange block psi[(a, y_base, x_base)]
    read at rows (y_base, n, 0) and columns (x_base, 0, m).
    """
    fx, fy = mor.source, mor.target
    xb, yb = mor.x_base, mor.y_base
    if int(mor.fdims[yb, xb]) != 1:
        raise ReconstructionError("morphism is not normalized at the bases")
    src, dst = spectral_offsets(fx, xb, xb), spectral_offsets(fy, yb, yb)
    theta = np.zeros((dst[-1], src[-1]), dtype=np.complex128)
    for a in np.flatnonzero(fx.dims[:, xb, xb]).tolist():
        rows, cols = mor.row_offsets[a, yb, xb], mor.col_offsets[a, yb, xb]
        blk = mor.psi[(a, yb, xb)][rows[yb]:rows[yb + 1], cols[xb]:cols[xb + 1]]
        theta[dst[a]:dst[a + 1], src[a]:src[a + 1]] = np.kron(blk, np.eye(fx.cat.dim(a)))
    return theta


def verify_algebra_map(mor: ModuleMorphism, tol: float = DEFAULT_TOL) -> Certificate:
    """The induced map is an injective unital *-homomorphism."""
    cert = Certificate(subject="algebra-map", tolerance=tol)
    ax, ay = build_algebra(mor.source, mor.x_base), build_algebra(mor.target, mor.y_base)
    th = algebra_map(mor)

    cert.add("unital", "the unit maps to the unit",
             max_residual(th @ ax.unit, ay.unit))
    cert.add("multiplicative", "products map to products on all basis pairs",
             max_residual(ax.tensor @ th.T, _bilinear(ay.tensor, th, th)))
    star_res = max_residual(th @ ax.star_mat, ay.star_mat @ np.conj(th))
    cert.add("star_compatible", "the involution is preserved", star_res)
    rank = (float(np.sum(above(np.linalg.svd(th, compute_uv=False), 1e-9, "singular values of the algebra map")))
            if np.isfinite(th).all() else float("nan"))
    cert.add_flag("injective", "the induced map is injective", rank == ax.dim, value=rank)
    return cert
