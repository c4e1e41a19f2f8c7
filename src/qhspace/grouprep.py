"""Finite groups and their unitary representations.

This is the concrete backend realizing the representation category of a
classical finite group: multiplication tables, unitary representation
matrices, intertwiner spaces via the averaging projector, and irreducible
decomposition of the regular representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import permutations

import numpy as np

from .numkit import DEFAULT_TOL, RUN_ENTRIES, dagger, largest, max_residual, solution_basis


class GroupAxiomError(ValueError):
    pass


class IrrepExtractionError(ValueError):
    pass


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group as a Cayley table on element indices 0..order-1, the identity at 0."""

    mult_table: np.ndarray  # order x order, int

    identity = 0

    def __post_init__(self):
        table = np.asarray(self.mult_table, dtype=np.int64)
        object.__setattr__(self, "mult_table", table)
        n = self.order
        if table.shape != (n, n):
            raise GroupAxiomError("multiplication table is not square")
        if n == 0:
            raise GroupAxiomError("multiplication table is empty")
        # seen[0][i, v] (seen[1][i, v]): v occurs in row (column) i; the first i to fail a law is named
        seen, (i, j) = np.zeros((2, n, n), dtype=bool), np.nonzero((table >= 0) & (table < n))
        seen[0, i, table[i, j]] = seen[1, j, table[i, j]] = True
        unit = (table[self.identity] == np.arange(n)) & (table[:, self.identity] == np.arange(n))
        for i in np.flatnonzero(~(seen.all(axis=(0, 2)) & unit))[:1].tolist():
            raise GroupAxiomError(f"identity law fails at element {i}" if seen[:, i].all() else
                                  f"table is not a Latin square at row/col {i}")
        # associativity, exhaustively, one row g at a time: (gh)k against g(hk)
        for g in range(n):
            if not np.array_equal(table[table[g]], table[g, table]):
                raise GroupAxiomError(f"associativity fails involving element {g}")

    @property
    def order(self) -> int:
        return self.mult_table.shape[0]

    def mul(self, g: int, h: int) -> int:
        return int(self.mult_table[g, h])

    @cached_property
    def inverse(self) -> np.ndarray:
        return np.nonzero(self.mult_table == self.identity)[1]  # one identity per row, rows in order

    def inv(self, g: int) -> int:
        return int(self.inverse[g])

    @cached_property
    def conjugacy_classes(self) -> tuple[tuple[int, ...], ...]:
        """Classes sorted by their smallest element index."""
        t = self.mult_table
        return _grouped(t[t.T, self.inverse].min(axis=1))  # the least h g h^-1 over h, per g

    def check_elements(self, elements) -> None:
        """Refuse, by name, an element index outside 0..order-1 (numpy would wrap a negative one)."""
        for g in [g for g in elements if not 0 <= g < self.order][:1]:
            raise GroupAxiomError(f"element {g} is not in 0..{self.order - 1}")

    def close_subset(self, generators) -> tuple[int, ...]:
        """Subgroup generated by the given element indices: every product of members joins, until none is new."""
        given = list(set(generators) | {self.identity})
        self.check_elements(given)
        member, size = np.zeros(self.order, dtype=bool), 0
        member[given] = True
        while size < (size := np.count_nonzero(member)):
            el = np.flatnonzero(member)
            member[self.mult_table[np.ix_(el, el)]] = True
        return tuple(np.flatnonzero(member).tolist())


def _grouped(least: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """The blocks {g : least[g] = m}, each ascending, ordered by m, for ``least[g]`` the least element of g's block."""
    return tuple(tuple(np.flatnonzero(least == m).tolist()) for m in np.flatnonzero(least == np.arange(len(least))))


def cyclic_group(n: int) -> FiniteGroup:
    return FiniteGroup(np.add.outer(np.arange(n), np.arange(n)) % n)


def group_from_permutations(perms: list[tuple[int, ...]]) -> FiniteGroup:
    """Group of the given permutation list (closed, the identity first); element order as given."""
    index, p = {q: i for i, q in enumerate(perms)}, np.array(perms, dtype=np.int64)
    table = np.empty((len(perms),) * 2, dtype=np.int64)
    for i in range(len(perms)):  # row i: p[i] after each permutation
        table[i] = row = [index.get(q, -1) for q in map(tuple, p[i][p].tolist())]
        if -1 in row:
            raise GroupAxiomError("permutation list is not closed under composition")
    return FiniteGroup(table)


def symmetric_group(n: int) -> FiniteGroup:
    return group_from_permutations(sorted(permutations(range(n))))


def dihedral_group(n: int) -> FiniteGroup:
    """Dihedral group of order 2n: elements (rotation r, flip f) as r + n*f."""
    f, r = np.divmod(np.arange(2 * n), n)
    return FiniteGroup((r[:, None] + (1 - 2 * f[:, None]) * r) % n + n * ((f[:, None] + f) % 2))


@dataclass(frozen=True)
class UnitaryRep:
    """A unitary representation: ``mats[g]`` is the matrix of element g, shape (|G|, d, d)."""

    group: FiniteGroup
    mats: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mats", np.asarray(self.mats, dtype=np.complex128))

    @property
    def dim(self) -> int:
        return self.mats.shape[1]

    @cached_property
    def character(self) -> np.ndarray:
        return np.trace(self.mats, axis1=1, axis2=2)

    def validate(self) -> float:
        """Max residual over unitarity and multiplicativity; each caller compares it with its tolerance."""
        m = self.mats
        unitary = max_residual(np.conj(m).transpose(0, 2, 1) @ m, np.eye(self.dim))
        return largest([unitary, *(max_residual(m[g] @ m, m[self.group.mult_table[g]])
                                   for g in range(self.group.order))])


def tensor_rep(u: UnitaryRep, v: UnitaryRep) -> UnitaryRep:
    if u.group is not v.group and not np.array_equal(u.group.mult_table, v.group.mult_table):
        raise ValueError("tensor product needs a common group")
    # the broadcast product rounds exactly as np.kron does; einsum does not
    prod = u.mats[:, :, None, :, None] * v.mats[:, None, :, None, :]
    d = u.dim * v.dim
    return UnitaryRep(u.group, prod.reshape(u.group.order, d, d))


def intertwiner_basis(u: UnitaryRep, v: UnitaryRep, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of {T : T u(g) = v(g) T for all g}, stacked as (k, dim v, dim u).

    Computed by the averaging projector P: T -> (1/|G|) sum_g v(g) T u(g)^-1,
    applied to all matrix units at once, followed by kernel extraction of
    (P - id).  The term v(g) E_ij u(g)^-1 is the outer product of column i
    of v(g) with row j of u(g)^-1, one broadcast product per run, whose
    terms and the real products forming them stay within ``RUN_ENTRIES``.
    The terms are added in g order from zero without a matrix product, so
    the bits do not depend on the BLAS kernel; for dim u > 1 they depend on
    numpy's complex multiply, which fuses a multiply-add on CPUs with one.
    """
    group = u.group
    du, dv = u.dim, v.dim
    n = du * dv
    units = np.eye(n, dtype=np.complex128).reshape(n, dv, du)
    acc = np.zeros_like(units)
    cols = v.mats.transpose(0, 2, 1)
    step = max(1, RUN_ENTRIES // (2 * n * n))
    for lo in range(0, group.order, step):
        col, row = cols[lo:lo + step, :, None, :, None], u.mats[group.inverse[lo:lo + step]][:, None, :, None, :]
        if du > 1:
            terms = col * row
        else:
            # a one-dimensional u scales the columns of v(g) by a number.  Round each complex
            # product as two real products and their sum, unfused, as a matrix product with a
            # 1 x 1 factor does: fusion data with complex characters, and the fingerprints of
            # projects saved with it, stay as earlier versions computed them
            terms = np.empty(np.broadcast_shapes(col.shape, row.shape), dtype=np.complex128)
            np.subtract(col.real * row.real, col.imag * row.imag, out=terms.real)
            np.add(col.real * row.imag, col.imag * row.real, out=terms.imag)
        terms = terms.reshape(-1, n, dv, du)
        # add in g order, ((acc + T_lo) + T_lo+1) + ...; a reduction may pair terms.  A running
        # sum calls its inner loop once per entry of a term, so a short run of large terms
        # (a few group elements per run) is added one term at a time instead
        terms[0] += acc
        if len(terms) < 8:
            acc = terms[0]
            for term in terms[1:]:
                acc += term
        else:
            acc = np.add.accumulate(terms, out=terms)[-1]
    # column j of the constraint matrix is (P - id) of the j-th matrix unit
    constraint = (acc / group.order - units).reshape(n, n).T
    basis = solution_basis(constraint, tol)
    return basis.reshape(len(basis), dv, du)


def decompose(irreps, v: UnitaryRep, tol: float = DEFAULT_TOL) -> dict[int, np.ndarray]:
    """The intertwiner basis from irreps[c] into v of each c that occurs in v, keyed by ascending c.

    The one multiplicity rule: m_c = (1/|G|) sum_g conj(chi_c(g)) chi_v(g),
    one product of the stacked characters, names the c to solve.  Refuses,
    with ``IrrepExtractionError`` naming c, an m_c off a nonnegative integer
    by more than ``tol`` (a NaN is) and a solved space of another dimension.
    """
    chars = np.array([x.character for x in irreps]).reshape(len(irreps), v.group.order)
    mult = np.conj(chars) @ v.character / v.group.order
    counts = np.rint(mult.real)
    for c in np.flatnonzero(~((np.abs(mult - counts) <= tol) & (counts >= 0)))[:1].tolist():
        raise IrrepExtractionError(f"multiplicity of irreducible {c} is {complex(mult[c]):.12g}, "
                                   f"not a nonnegative integer within {tol:g}")
    found = {c: intertwiner_basis(irreps[c], v, tol) for c in np.flatnonzero(counts).tolist()}
    for c, basis in found.items():
        if len(basis) != counts[c]:
            raise IrrepExtractionError(f"intertwiner space of irreducible {c} has dimension {len(basis)}, "
                                       f"characters give {int(counts[c])}")
    return found


@dataclass(frozen=True)
class IrrepTable:
    """A complete set of pairwise non-isomorphic irreducibles.

    Label 0 is always the trivial representation; ``dual_map`` pairs each
    label with the one carrying the conjugate character.
    """

    group: FiniteGroup
    irreps: tuple[UnitaryRep, ...]
    dual_map: tuple[int, ...]

    trivial_label = 0

    @property
    def labels(self) -> range:
        return range(len(self.irreps))

    def dim(self, a: int) -> int:
        return self.irreps[a].dim

    def validate(self, tol: float = 1e-8) -> None:
        """Refuse, with ``IrrepExtractionError``, a table that is not a complete set of irreducibles.

        Irrep a must ``decompose`` over the labels 0..a as itself, once (Hom(u, v)
        and Hom(v, u) of unitary u, v have one dimension, so each pair is
        decided once); the first pair (a, b) that disagrees is named.
        """
        n = self.group.order
        if sum(r.dim**2 for r in self.irreps) != n:
            raise IrrepExtractionError("sum of squared dimensions does not match group order")
        # each test refuses unless its residual is within tolerance, so a NaN is refused
        if self.irreps[0].dim != 1 or not max_residual(self.irreps[0].character, np.ones(n)) <= tol:
            raise IrrepExtractionError("label 0 is not the trivial representation")
        for a, u in enumerate(self.irreps):
            if not u.validate() <= tol:
                raise IrrepExtractionError(f"irrep {a} fails unitarity/multiplicativity")
            found = decompose(self.irreps[:a + 1], u)
            for b in range(a + 1):
                if len(found.get(b, ())) != (a == b):
                    raise IrrepExtractionError(f"intertwiner dimension wrong for pair ({a},{b})")
        dm = self.dual_map
        for a in self.labels:
            if dm[dm[a]] != a:
                raise IrrepExtractionError("dual map is not an involution")
            resid = max_residual(self.irreps[dm[a]].character, np.conj(self.irreps[a].character))
            if not resid <= tol:
                raise IrrepExtractionError(f"dual map wrong at label {a}")
        if dm[0] != 0:
            raise IrrepExtractionError("trivial label must be self-dual")


def _character_key(group: FiniteGroup, rep: UnitaryRep):
    vals = [rep.character[cls[0]] for cls in group.conjugacy_classes]
    return (rep.dim, tuple((round(val.real, 6), round(val.imag, 6)) for val in vals))


def _regular_average(group: FiniteGroup, h: np.ndarray) -> np.ndarray:
    """Hermitian part of (1/|G|) sum_g R(g) h R(g^-1), R the regular representation.

    R(g) h R(g^-1) permutes the rows and columns of h; the terms are added
    one g at a time, in g order.
    """
    c = np.zeros_like(h)
    for g in range(group.order):
        p = group.mult_table[group.inverse[g]]
        c += h[np.ix_(p, p)]
    return (c + dagger(c)) / (2.0 * group.order)


def extract_irreps(group: FiniteGroup, seed: int = 0, tol: float = DEFAULT_TOL) -> IrrepTable:
    """Decompose the regular representation into a full irrep table.

    A seeded random Hermitian matrix is averaged over the group action to
    give a commutant element; its eigenspaces are invariant, generically
    irreducible, subspaces, each tested by ``decompose`` for irreducibility
    and against those kept.  A refusal retries the next seed, up to 8 seeds.
    """
    n = group.order
    last_err = None
    for attempt in range(8):
        rng = np.random.default_rng(seed + attempt)
        h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = (h + dagger(h)) / 2.0
        evals, evecs = np.linalg.eigh(_regular_average(group, h))
        # cluster eigenvalues into invariant subspaces
        blocks = []
        start = 0
        for j in range(1, n + 1):
            if j == n or evals[j] - evals[j - 1] > 1e-6:
                blocks.append(evecs[:, start:j])
                start = j
        try:
            candidates = []
            for basis in blocks:
                # (B^dagger R(g)) B, where B^dagger R(g) permutes the columns of B^dagger
                cand = UnitaryRep(group, dagger(basis)[:, group.mult_table].transpose(1, 0, 2) @ basis)
                if cand.validate() > 1e-8:
                    raise IrrepExtractionError("eigenspace is not invariant")
                if len(decompose([cand], cand, tol).get(0, ())) != 1:
                    raise IrrepExtractionError("eigenspace is not irreducible")
                candidates.append(cand)
            reps: list[UnitaryRep] = []
            for cand in candidates:
                if not decompose(reps, cand, tol):
                    reps.append(cand)
            if sum(r.dim**2 for r in reps) != n:
                raise IrrepExtractionError("incomplete set of irreducibles")
            reps.sort(key=lambda r: _character_key(group, r))
            # the trivial rep takes label 0 (the sign of S3 sorts before it)
            triv = next(i for i, r in enumerate(reps) if r.dim == 1 and max_residual(r.character, np.ones(n)) < 1e-8)
            reps.insert(0, reps.pop(triv))
            dual = []
            for a, r in enumerate(reps):
                matches = [b for b, s in enumerate(reps)
                           if s.dim == r.dim and max_residual(s.character, np.conj(r.character)) < 1e-8]
                if len(matches) != 1:
                    raise IrrepExtractionError(f"dual of irrep {a} not unique")
                dual.append(matches[0])
            return IrrepTable(group, tuple(reps), tuple(dual))
        except IrrepExtractionError as err:
            last_err = err
    raise IrrepExtractionError(f"irrep extraction failed after 8 seeds: {last_err}")


@dataclass(frozen=True)
class Subgroup:
    """A subgroup presented by the sorted tuple of its element indices."""

    parent: FiniteGroup
    elements: tuple[int, ...]

    def __post_init__(self):
        elems = tuple(sorted(set(self.elements)))
        self.parent.check_elements(elems)
        object.__setattr__(self, "elements", elems)
        if self.parent.identity not in elems:
            raise GroupAxiomError("subgroup must contain the identity")
        member = np.zeros(self.parent.order, dtype=bool)
        member[list(elems)] = True
        for i, j in np.argwhere(~member[self.parent.mult_table[np.ix_(elems, elems)]])[:1].tolist():
            raise GroupAxiomError(f"subset not closed: {elems[i]}*{elems[j]} escapes")

    @classmethod
    def generated(cls, parent: FiniteGroup, generators) -> "Subgroup":
        return cls(parent, parent.close_subset(generators))

    @cached_property
    def as_group(self) -> FiniteGroup:
        el = self.elements  # ascending, so bisection finds the position of each product
        return FiniteGroup(np.searchsorted(el, self.parent.mult_table[np.ix_(el, el)]))

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def coset_least(self) -> np.ndarray:
        """The least element of the left coset g*H, per g."""
        return self.parent.mult_table[:, list(self.elements)].min(axis=1)

    def left_cosets(self) -> tuple[tuple[int, ...], ...]:
        """Left cosets g*H, each sorted, ordered by smallest element."""
        return _grouped(self.coset_least)


def restrict(u: UnitaryRep, sub: Subgroup) -> UnitaryRep:
    """Restriction of a representation to a subgroup (reindexed matrices)."""
    if sub.parent is not u.group and not np.array_equal(sub.parent.mult_table, u.group.mult_table):
        raise ValueError("subgroup does not belong to the representation's group")
    return UnitaryRep(sub.as_group, u.mats[list(sub.elements)])
