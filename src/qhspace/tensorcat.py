"""Finite presentations of semisimple rigid tensor C*-categories.

A presentation is fully concrete: irreducible labels are integers with label 0
the tensor unit, every object carries a Hilbert space dimension, fusion is a
family of isometries into concrete tensor products, and duality is a pair of
conjugate solution vectors per label.  Two backends are provided: unitary
representations of a finite group (identity associator) and pointed fusion
data over a finite group with a 3-cocycle (scalar associator).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .certificate import Certificate
from .grouprep import FiniteGroup, IrrepExtractionError, IrrepTable, UnitaryRep, decompose, tensor_rep
from .numkit import DEFAULT_TOL, RUN_ENTRIES, dagger, kron, largest, max_residual, stack_by_shape, successors

UNIT_LABEL = 0


class CocycleError(ValueError):
    """3-cocycle data violates the cocycle identity or normalization."""


class PresentationError(ValueError):
    pass


@dataclass(frozen=True)
class PointedFusionData:
    """A finite group together with a normalized unit-modulus 3-cocycle.

    ``cocycle[g, h, k]`` is the associator scalar for the label triple
    (g, h, k).  Validation is exhaustive over all quadruples.
    """

    group: FiniteGroup
    cocycle: np.ndarray

    def __post_init__(self):
        om = np.asarray(self.cocycle, dtype=np.complex128)
        object.__setattr__(self, "cocycle", om)
        n = self.group.order
        if om.shape != (n, n, n):
            raise CocycleError(f"cocycle shape {om.shape} does not match group order {n}")
        # each test refuses unless its residual is within tolerance, so a NaN is refused
        if not np.max(np.abs(np.abs(om) - 1.0)) <= 1e-12:
            raise CocycleError("cocycle values must be unit modulus")
        e = self.group.identity
        edges = np.stack([om[e], om[:, e], om[:, :, e]], axis=-1)
        for g, h, i in np.argwhere(~(np.abs(edges - 1.0) <= 1e-12))[:1].tolist():
            raise CocycleError(f"cocycle not normalized at {((e, g, h), (g, e, h), (g, h, e))[i]}")
        mul = self.group.mult_table
        h, k, l = np.ix_(*(np.arange(n),) * 3)
        step = max(1, RUN_ENTRIES // (8 * n**3))  # runs of g in row-major order, 8 n^3 live entries per g
        for g in (np.arange(lo, min(lo + step, n))[:, None, None, None] for lo in range(0, n, step)):
            lhs = om[h, k, l] * om[g, mul[h, k], l] * om[g, h, k]
            rhs = om[mul[g, h], k, l] * om[g, h, mul[k, l]]
            for i, x, y, z in np.argwhere(~(np.abs(lhs - rhs) <= 1e-10))[:1].tolist():
                raise CocycleError(f"cocycle identity fails at quadruple ({g.item(i)},{x},{y},{z})")


def standard_cyclic_cocycle(n: int) -> PointedFusionData:
    """Order-n cocycle representative on the cyclic group Z_n.

    omega(a, b, c) = exp(2*pi*i * a * (b + c - ((b+c) mod n)) / n**2); the
    middle factor is n times the carry bit of b + c.
    """
    from .grouprep import cyclic_group

    group = cyclic_group(n)
    idx = np.arange(n)
    carry = idx[:, None] + idx[None, :] - (idx[:, None] + idx[None, :]) % n
    om = np.exp(2j * np.pi * idx[:, None, None] * carry[None, :, :] / n**2)
    return PointedFusionData(group, om)


@dataclass
class CategoryPresentation:
    """All data of the category in fixed bases.

    ``fusion[(a, b)]`` maps each channel label c to a tuple of isometries
    iota^c_{ab,k}, each a (dim_a*dim_b) x dim_c matrix with iota^t iota = id.
    ``conj_solutions[a]`` is the pair (R_a, Rbar_a) of column vectors solving
    the two snake identities; they may be rescaled by users, so derived
    quantities that must not depend on the scaling read the canonical pair,
    which is solved once from the fusion data when the presentation is made.
    """

    kind: str  # "group" or "pointed"
    obj_dim: tuple[int, ...]
    dual_map: tuple[int, ...]
    qdim: tuple[float, ...]
    fusion: dict[tuple[int, int], dict[int, tuple[np.ndarray, ...]]]
    conj_solutions: dict[int, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)
    reps: tuple[UnitaryRep, ...] | None = None  # group backend only
    pointed: PointedFusionData | None = None  # pointed backend only
    _canonical: dict[int, tuple[np.ndarray, np.ndarray]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._canonical = {a: self._solve_conjugates(a) for a in self.labels}
        if not self.conj_solutions:
            self.conj_solutions = dict(self._canonical)

    @property
    def labels(self) -> range:
        return range(len(self.obj_dim))

    def dim(self, a: int) -> int:
        return self.obj_dim[a]

    def channels(self, a: int, b: int) -> tuple[int, ...]:
        return tuple(sorted(self.fusion[(a, b)].keys()))

    def mult(self, a: int, b: int, c: int) -> int:
        return len(self.fusion[(a, b)].get(c, ()))

    def isometries(self, a: int, b: int, c: int) -> tuple[np.ndarray, ...]:
        return self.fusion[(a, b)].get(c, ())

    def assoc_table(self) -> np.ndarray:
        """Entry [a, b, c] is the scalar of the associator (a x b) x c -> a x (b x c)."""
        if self.pointed is not None:
            return self.pointed.cocycle
        return np.ones((len(self.obj_dim),) * 3, dtype=np.complex128)

    def canonical_conjugates(self, a: int) -> tuple[np.ndarray, np.ndarray]:
        """Deterministic normalized conjugate pair computed from fusion data, read-only."""
        return self._canonical[a]

    def _solve_conjugates(self, a: int) -> tuple[np.ndarray, np.ndarray]:
        """The canonical pair of label a, read-only.

        R_a is sqrt(qdim) times the unique unit fusion isometry into the
        trivial channel of abar x a; Rbar_a is the unique solution of the
        first snake identity, solved with the associator in place.
        """
        abar = self.dual_map[a]
        da, dbar = self.obj_dim[a], self.obj_dim[abar]
        iotas = self.isometries(abar, a, UNIT_LABEL)
        if len(iotas) != 1:
            raise PresentationError(f"trivial channel of ({abar},{a}) is not one-dimensional")
        r = np.sqrt(self.qdim[a]) * iotas[0].reshape(dbar * da, 1)
        # first snake: (Rbar^* x id_a) assoc(a,abar,a)^-1 (id_a x R) = id_a,
        # linear in conj(Rbar) with a unique solution
        assoc_inv = np.conj(self.assoc_table()[a, abar, a]) * np.eye(
            da * dbar * da, dtype=np.complex128
        )
        b = assoc_inv @ kron(np.eye(da), r)  # (da*dbar*da) x da, index (k,m,j) x i
        b4 = b.reshape(da, dbar, da, da)
        m = b4.transpose(3, 2, 0, 1).reshape(da * da, da * dbar)
        rhs = np.eye(da, dtype=np.complex128).ravel()
        x, _, _, _ = np.linalg.lstsq(m, rhs, rcond=None)
        rbar = np.conj(x).reshape(da * dbar, 1)
        r.flags.writeable = rbar.flags.writeable = False
        return r, rbar

    def snake_residuals(self, a: int) -> tuple[float, float]:
        """Residuals of the two conjugate identities for label a: ``_snakes`` on a alone."""
        return tuple(self._snakes([a])[0].tolist())

    def _snakes(self, labels) -> np.ndarray:
        """Both conjugate identities' residuals per label, one kernel per (d_a, d_abar), from the stored pairs."""
        lab = np.asarray(labels, dtype=np.int64)
        dims, dual, alpha_conj = np.asarray(self.obj_dim), np.asarray(self.dual_map)[lab], np.conj(self.assoc_table())
        out = np.empty((len(lab), 2))
        shape = dims[lab] * (dims.max() + 1) + dims[dual]
        for g in np.flatnonzero(np.bincount(shape)).tolist():
            sel = np.flatnonzero(shape == g)
            r, rbar = (np.stack(v).astype(np.complex128) for v in zip(*map(self.conj_solutions.get, lab[sel].tolist())))
            # (Rbar^* x id_a) alpha(a, abar, a)^-1 (id_a x R) = id_a, and the same with a and abar exchanged
            for k, (x, y, a, b) in enumerate(((rbar, r, lab[sel], dual[sel]), (r, rbar, dual[sel], lab[sel]))):
                eye = np.eye(dims[a[0]], dtype=np.complex128)
                snake = np.kron(np.conj(x).transpose(0, 2, 1), eye) @ (alpha_conj[a, b, a, None, None] * kron(eye, y))
                out[sel, k] = np.abs(snake - eye).max(axis=(1, 2))
        return out


def from_group(table: IrrepTable, tol: float = DEFAULT_TOL) -> CategoryPresentation:
    """Representation category of a finite group as a presentation.

    Fusion isometries are orthonormal intertwiner bases scaled by
    sqrt(dim) of the channel so each is an isometry; tensoring with the
    trivial label is represented by exact identity matrices.  The channels
    of every other product a (x) b and their bases come from
    ``grouprep.decompose``, which names them by characters and solves only
    those.  Its refusals (a count off a nonnegative integer by more than
    ``tol``, a solved space of another dimension) are raised as
    ``PresentationError``, naming a, b and the channel.
    """
    reps = table.irreps
    dims = tuple(r.dim for r in reps)
    fusion: dict[tuple[int, int], dict[int, tuple[np.ndarray, ...]]] = {}
    for a in table.labels:
        for b in table.labels:
            if UNIT_LABEL in (a, b):  # the other label, by an exact identity
                other = a if b == UNIT_LABEL else b
                fusion[(a, b)] = {other: (np.eye(dims[other], dtype=np.complex128),)}
                continue
            try:
                found = decompose(reps, tensor_rep(reps[a], reps[b]), tol)
            except IrrepExtractionError as err:
                raise PresentationError(f"in {a} (x) {b}: {err}") from err
            fusion[(a, b)] = {c: tuple(np.sqrt(dims[c]) * basis) for c, basis in found.items()}
    return CategoryPresentation(
        kind="group",
        obj_dim=dims,
        dual_map=table.dual_map,
        qdim=tuple(float(d) for d in dims),
        fusion=fusion,
        reps=reps,
    )


def from_pointed(data: PointedFusionData) -> CategoryPresentation:
    """Pointed category: labels are group elements, fusion follows the group law."""
    group = data.group
    n = group.order
    one = np.ones((1, 1), dtype=np.complex128)
    fusion = {(g, h): {group.mul(g, h): (one.copy(),)} for g in range(n) for h in range(n)}
    return CategoryPresentation(
        kind="pointed",
        obj_dim=(1,) * n,
        dual_map=tuple(group.inverse.tolist()),
        qdim=(1.0,) * n,
        fusion=fusion,
        pointed=data,
    )


def fusion_table(cat: CategoryPresentation) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[np.ndarray]]:
    """Every fusion isometry as one row (a, b, c, k), regrouped into one stack per shape.

    Returns (rows, kind, pos, stacks): ``rows`` has shape (4, #isometries),
    in (a, b, c, k) order, and iota^c_{ab,k} is ``stacks[kind[i]][pos[i]]``.
    """
    keys = [(a, b, c) for a in cat.labels for b in cat.labels for c in cat.channels(a, b)]
    isos = [np.stack(cat.isometries(*key)) for key in keys]
    kind, pos, stacks = stack_by_shape(isos)
    mult = np.array([len(x) for x in isos], dtype=np.int64)
    rows = np.repeat(np.array(keys, dtype=np.int64).reshape(-1, 3), mult, axis=0)
    k = np.arange(len(rows)) - np.repeat(np.cumsum(mult) - mult, mult)
    return np.vstack([rows.T, k]), kind, pos, stacks


def _recoupling_residual(cat: CategoryPresentation, table: tuple) -> float:
    """Worst unitarity defect of the change of basis between the two fusion paths.

    For labels (a, b, c) and a total channel e, the compositions
    (iota_ab (x) id_c) iota_dc through a x b and (id_a (x) iota_bc) iota_ad
    through b x c both give bases of the same morphism space; the matrix of
    inner products between them must be unitary, and both sides must list the
    same cases (a, b, c, e) with the same number of paths (else the defect is
    infinite).  The paths are listed with index arrays.  The cases with the
    same path size and path count are one group: their paths are formed with
    one einsum per pair of isometry shapes, and their matrices are one einsum
    and one batched product, so no array outgrows one group.
    """
    (fa, fb, fc, _), kind, pos, stacks = table
    n, dims = len(cat.obj_dim), np.asarray(cat.obj_dim)
    # each path is an isometry into d followed by one out of (d, c), resp. (a, d);
    # sorted by case, then by the two isometries: the order (d, k, l) of each side
    l1, l2 = successors(fa, n)(fc)
    r1, r2 = successors(fb, n)(fc)
    case_l = ((fa[l1] * n + fb[l1]) * n + fb[l2]) * n + fc[l2]
    case_r = ((fa[r2] * n + fa[r1]) * n + fb[r1]) * n + fc[r2]
    lo, ro = np.lexsort((l2, l1, case_l)), np.lexsort((r2, r1, case_r))
    if not np.array_equal(case_l[lo], case_r[ro]):
        return float("inf")
    l1, l2, r1, r2 = l1[lo], l2[lo], r1[ro], r2[ro]

    def paths(i1, i2, subs, dd_first, size):
        """The flattened path matrices of isometry pairs (i1, i2), one einsum per pair of shapes."""
        out = np.empty((len(i1), size), dtype=np.complex128)
        code = kind[i1] * len(stacks) + kind[i2]
        # distinct codes from bincount: np.unique without return_index or return_counts
        # costs 0.25 to 1 MB of RSS (it touches numpy.ma or more numpy code)
        for g in np.flatnonzero(np.bincount(code)).tolist():
            sel = np.flatnonzero(code == g)
            x, y = stacks[g // len(stacks)][pos[i1[sel]]], stacks[g % len(stacks)][pos[i2[sel]]]
            dd, de = x.shape[2], y.shape[2]
            y = y.reshape(len(sel), dd, -1, de) if dd_first else y.reshape(len(sel), -1, dd, de)
            out[sel] = np.einsum(subs, x, y).reshape(len(sel), -1)
        return out

    # cases grouped by path size and path count; both sides list a case's paths in one run
    cases, first, count = np.unique(case_l[lo], return_index=True, return_counts=True)
    size = dims[fa[l1[first]]] * dims[fb[l1[first]]] * dims[fb[l2[first]]] * dims[cases % n]
    alpha_inv = np.conj(cat.assoc_table()[fa[l1[first]], fb[l1[first]], fb[l2[first]]])
    shape = size * (count.max() + 1) + count
    worst = []
    by_shape = np.argsort(shape, kind="stable")
    for sel in np.split(by_shape, np.flatnonzero(np.diff(shape[by_shape])) + 1):
        k, s = int(count[sel[0]]), int(size[sel[0]])
        run = (first[sel][:, None] + np.arange(k)).ravel()
        left = paths(l1[run], l2[run], "nxd,ndze->nxze", True, s).reshape(len(sel), k, s)
        right = paths(r1[run], r2[run], "nyd,nxde->nxye", False, s).reshape(len(sel), k, s)
        w = alpha_inv[sel, None, None] * np.einsum("nip,njp->nij", np.conj(left), right)
        w /= dims[cases[sel] % n][:, None, None]
        worst.append(max_residual(np.conj(w).transpose(0, 2, 1) @ w, np.eye(k)))
    return largest(worst)


def verify_presentation(cat: CategoryPresentation, tol: float = DEFAULT_TOL) -> Certificate:
    """Check every structural invariant of the presentation."""
    cert = Certificate(subject=f"category[{cat.kind}]", tolerance=tol)
    dims, n = cat.obj_dim, len(cat.obj_dim)

    cert.add_flag("unit_dim", "tensor unit is one-dimensional", dims[UNIT_LABEL] == 1)
    # every flag reads the rows (a, b, c, k) of the fusion table; pair (a, b) is a * n + b
    table = fusion_table(cat)
    (fa, fb, fc, fk), kind, pos, stacks = table
    ldim, pair = np.asarray(dims), fa * n + fb
    # the channels of (unit, b) and of (b, unit) must be b alone; the first isometry of each is compared
    # with the identity of d_b, one stack per isometry shape and d_b
    unit_ok, unit_res, w = [], [], ldim.max() + 1
    for side, other in ((fa == UNIT_LABEL, fb), (fb == UNIT_LABEL, fa)):
        rows, off = np.bincount(other[side], minlength=n), np.bincount(other[side & (fc != other)], minlength=n)
        unit_ok.append((rows > 0) & (off == 0))
        at = np.flatnonzero(side & (fk == 0) & unit_ok[-1][other])
        code = kind[at] * w + ldim[fc[at]]
        unit_res += [max_residual(stacks[g // w][pos[at[code == g]]], np.eye(g % w))
                     for g in np.flatnonzero(np.bincount(code)).tolist()]
    cert.add_flag("unit_channels", "tensoring with the unit is the identity channel", np.all(unit_ok))
    cert.add("unit_isometries", "unit fusion isometries equal identity matrices", largest(unit_res))

    trivial = np.zeros(n * n, dtype=np.int64)
    trivial[np.arange(n) * n + np.asarray(cat.dual_map)] = 1
    cert.add_flag("dual_channels", "trivial channel multiplicity is delta(b, dual(a))",
                  np.array_equal(np.bincount(pair[fc == UNIT_LABEL], minlength=n * n), trivial))
    cert.add_flag("fusion_dim_count", "channel dimensions sum to the product dimension",
                  np.array_equal(np.bincount(pair, weights=ldim[fc], minlength=n * n), np.outer(ldim, ldim).ravel()))

    # the isometries of each (a, b) side by side, one batched product per matrix shape
    ortho, complete = [], []
    sides = [np.hstack([iota for c in cat.channels(a, b) for iota in cat.isometries(a, b, c)])[None]
             for a in cat.labels for b in cat.labels]
    for m in stack_by_shape(sides)[2]:
        m_dag = np.conj(m).transpose(0, 2, 1)
        ortho.append(max_residual(m_dag @ m, np.eye(m.shape[2])))
        complete.append(max_residual(m @ m_dag, np.eye(m.shape[1])))
    cert.add("isometry_orthogonality", "fusion isometries have orthogonal ranges", largest(ortho))
    cert.add("isometry_completeness", "fusion isometry ranges sum to the identity", largest(complete))

    if cat.kind == "group" and cat.reps is not None:
        equi = []
        for a in cat.labels:
            for b in cat.labels:
                big = tensor_rep(cat.reps[a], cat.reps[b]).mats
                for c in cat.channels(a, b):
                    for iota in cat.isometries(a, b, c):
                        equi.append(max_residual(big @ iota, iota @ cat.reps[c].mats))
        cert.add("fusion_equivariance", "fusion isometries intertwine the group action", largest(equi))
    if cat.kind == "pointed" and cat.pointed is not None:
        law_ok = np.all(np.bincount(pair, minlength=n * n) > 0) and np.all(fc == cat.pointed.group.mult_table[fa, fb])
        cert.add_flag("pointed_group_law", "fusion channels follow the group law", law_ok)

    norm_res, member = [], []
    for a in cat.labels:
        r, rbar = cat.conj_solutions[a]
        norm_res.append(abs(float(np.linalg.norm(r)) * float(np.linalg.norm(rbar)) - cat.qdim[a]))
        abar = cat.dual_map[a]
        v = cat.isometries(abar, a, UNIT_LABEL)[0].reshape(-1, 1)
        w = cat.isometries(a, abar, UNIT_LABEL)[0].reshape(-1, 1)
        member.append(max_residual(r, v @ (dagger(v) @ r)) / max(1.0, float(np.linalg.norm(r))))
        member.append(max_residual(rbar, w @ (dagger(w) @ rbar)) / max(1.0, float(np.linalg.norm(rbar))))
    cert.add("conjugate_snakes", "both conjugate identities hold for every label", largest(cat._snakes(cat.labels)))
    cert.add("conjugate_normalization", "norm(R)*norm(Rbar) equals the quantum dimension", largest(norm_res))
    cert.add("conjugate_membership", "conjugate vectors lie in the trivial fusion channel", largest(member))

    cert.add_flag("qdim_bound", "quantum dimensions are at least one", all(q >= 1.0 - tol for q in cat.qdim))
    if cat.kind == "group":
        cert.add_flag(
            "qdim_integer",
            "group backend quantum dimensions equal the space dimensions",
            all(q == float(d) for q, d in zip(cat.qdim, dims)),
        )

    cert.add("recoupling_unitarity", "the two iterated-fusion bases are unitarily related",
             _recoupling_residual(cat, table))
    return cert
