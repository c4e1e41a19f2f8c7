import os
import subprocess
import sys
from itertools import permutations

import numpy as np
import pytest

import qhspace
from qhspace.grouprep import (
    FiniteGroup,
    GroupAxiomError,
    Subgroup,
    UnitaryRep,
    cyclic_group,
    decompose,
    dihedral_group,
    extract_irreps,
    group_from_permutations,
    intertwiner_basis,
    restrict,
    symmetric_group,
    tensor_rep,
)
from qhspace.numkit import max_residual

from support import regular_rep, traced_peak, trivial_rep


def test_group_axioms_reject_bad_table():
    with pytest.raises(GroupAxiomError):
        FiniteGroup(np.array([[0, 0], [0, 0]]))
    with pytest.raises(GroupAxiomError, match="identity law fails at element 0"):
        FiniteGroup(np.array([[1, 0], [0, 1]]))  # Z2 with its identity at element 1


def test_group_axioms_reject_nonassociative_loop_of_order_260():
    # swapping the entries 3 and 133 at rows 1, 131 and columns 2, 132 of Z260
    # keeps a Latin square with identity 0, but 1 * (1 * 2) = 1 * 133 = 134
    # while (1 * 1) * 2 = 2 * 2 = 4; a sample of triples can miss this
    table = cyclic_group(260).mult_table.copy()
    for r, c in ((1, 2), (1, 132), (131, 2), (131, 132)):
        table[r, c] = 136 - table[r, c]  # 3 <-> 133
    with pytest.raises(GroupAxiomError):
        FiniteGroup(table)


def test_unitary_rep_validate_catches_one_perturbed_entry(s3_table):
    tol = 1e-8
    for rep in s3_table.irreps:
        assert rep.validate() < 1e-12
        for g in range(rep.group.order):
            mats = rep.mats.copy()
            mats[g, -1, 0] += 1e-6
            assert UnitaryRep(rep.group, mats).validate() > tol, (rep.dim, g)
    # a similar representation is still multiplicative, but no longer unitary
    two = s3_table.irreps[2]
    s = np.diag([1.0, 1.0 + 1e-6])
    assert UnitaryRep(two.group, s @ two.mats @ np.linalg.inv(s)).validate() > tol


def test_symmetric_group_order():
    assert symmetric_group(3).order == 6
    assert symmetric_group(4).order == 24


def test_irrep_dims():
    assert sorted(r.dim for r in extract_irreps(symmetric_group(3)).irreps) == [1, 1, 2]
    assert sorted(r.dim for r in extract_irreps(cyclic_group(4)).irreps) == [1, 1, 1, 1]
    assert sorted(r.dim for r in extract_irreps(dihedral_group(4)).irreps) == [1, 1, 1, 1, 2]


def test_irreps_validate(s3_table):
    s3_table.validate()
    assert sum(r.dim ** 2 for r in s3_table.irreps) == 6


def _quaternion_group():
    """Q8 from the closure of i and j as 2 x 2 complex matrices, identity first."""
    gens = [np.array([[1j, 0], [0, -1j]]), np.array([[0, 1], [-1, 0]], dtype=np.complex128)]
    elems = [np.eye(2, dtype=np.complex128)]
    for m in elems:
        for g in gens:
            if not any(np.allclose(m @ g, e) for e in elems):
                elems.append(m @ g)
    table = [[next(k for k, e in enumerate(elems) if np.allclose(x @ y, e)) for y in elems] for x in elems]
    return FiniteGroup(np.array(table))


def test_extracted_tables_validate():
    # extract_irreps checks each condition of IrrepTable.validate as it builds the table
    even = [p for p in permutations(range(4))
            if sum(p[i] > p[j] for i in range(4) for j in range(i + 1, 4)) % 2 == 0]
    groups = [symmetric_group(3), _quaternion_group(), group_from_permutations(even),
              symmetric_group(4), dihedral_group(12)]
    for group, order in zip(groups, (6, 8, 12, 24, 24)):
        assert group.order == order
        extract_irreps(group, seed=0).validate()


def test_trivial_label_is_zero(s3_table):
    assert s3_table.irreps[s3_table.trivial_label].dim == 1
    assert np.allclose(s3_table.irreps[s3_table.trivial_label].character, 1.0)


def test_dual_map_involutive(s3_table):
    d = s3_table.dual_map
    assert [d[d[a]] for a in range(len(d))] == list(range(len(d)))


def test_schur_orthogonality_of_intertwiners(s3_table):
    for i, u in enumerate(s3_table.irreps):
        for j, v in enumerate(s3_table.irreps):
            assert len(intertwiner_basis(u, v)) == (1 if i == j else 0)


def test_regular_rep_decomposition(s3, s3_table):
    reg = regular_rep(s3)
    for r in s3_table.irreps:
        assert len(intertwiner_basis(r, reg)) == r.dim


def test_decompose_each_irrep_as_itself_once(s3_table):
    for a, u in enumerate(s3_table.irreps):
        found = decompose(s3_table.irreps, u)
        assert list(found) == [a] and len(found[a]) == 1


def test_decompose_restriction_to_z2(s3_table, s3_subgroups):
    sub = s3_subgroups["order2"]
    h_table = extract_irreps(sub.as_group, seed=0)
    # each S3 irrep decomposes over the two Z2 characters
    counts = [sum(len(basis) for basis in decompose(h_table.irreps, restrict(r, sub)).values())
              for r in s3_table.irreps]
    assert counts == [1, 1, 2]


def test_extraction_deterministic(s3):
    t1 = extract_irreps(s3, seed=0)
    t2 = extract_irreps(s3, seed=0)
    for a, b in zip(t1.irreps, t2.irreps):
        assert np.array_equal(a.mats, b.mats)


def test_subgroup_generated_closure(s3):
    order2 = [g for g in range(1, 6) if s3.mul(g, g) == 0]
    sub = Subgroup.generated(s3, [order2[0]])
    assert sub.order == 2 and 0 in sub.elements


def test_subgroup_refuses_elements_outside_the_group(s3):
    # numpy would wrap -1 to element 5, and index 6 would be an IndexError
    for elements in ((0, -1), (0, 6)):
        with pytest.raises(GroupAxiomError, match=f"element {elements[1]} is not in 0..5"):
            Subgroup(s3, elements)
    for generators in ([-1], [1, 6]):
        with pytest.raises(GroupAxiomError, match=f"element {generators[-1]} is not in 0..5"):
            Subgroup.generated(s3, generators)
        with pytest.raises(GroupAxiomError, match=f"element {generators[-1]} is not in 0..5"):
            s3.close_subset(generators)


def test_restriction_dimension(s3, s3_table, s3_subgroups):
    sub = s3_subgroups["order2"]
    for r in s3_table.irreps:
        assert restrict(r, sub).dim == r.dim


def test_tensor_with_trivial(s3, s3_table):
    t = trivial_rep(s3)
    for r in s3_table.irreps:
        assert len(intertwiner_basis(r, tensor_rep(t, r))) == 1


# loads the groups, irreps and tensor products saved in argv[1], records the constraint
# matrix of every intertwiner_basis(c, a (x) b) call and saves them to the .npz file argv[2]
_CONSTRAINT_DUMP = """
import sys
from itertools import product
import numpy as np
from qhspace import grouprep
from qhspace.grouprep import FiniteGroup, UnitaryRep

src, out, key = np.load(sys.argv[1]), {}, None
solve = grouprep.solution_basis

def recording(constraint, tol):
    out[key] = constraint
    return solve(constraint, tol)

grouprep.solution_basis = recording
for name in ("S4", "D12"):
    group = FiniteGroup(src[f"{name}/table"])
    count = sum(k.startswith(f"{name}/irrep") for k in src.files)
    reps = [UnitaryRep(group, src[f"{name}/irrep{a}"]) for a in range(count)]
    for a, b, c in product(range(len(reps)), repeat=3):
        key = f"{name}/{a},{b},{c}"
        grouprep.intertwiner_basis(reps[c], UnitaryRep(group, src[f"{name}/tensor{a},{b}"]))
np.savez(sys.argv[2], **out)
"""


def _simd_targets() -> list[str]:
    """The SIMD targets numpy dispatches to on this CPU, beyond its baseline."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    return [f for f in __cpu_dispatch__ if __cpu_features__.get(f)]


def test_intertwiner_constraint_independent_of_blas_kernel(tmp_path):
    # the average adds broadcast products, so no BLAS kernel rounds a term; one
    # matmul pair per g moved 388 of these 854 constraints (on an AVX-512 CPU)
    irreps = {}
    for name, group in (("S4", symmetric_group(4)), ("D12", dihedral_group(12))):
        irreps[f"{name}/table"] = group.mult_table
        reps = extract_irreps(group).irreps
        irreps.update({f"{name}/irrep{a}": rep.mats for a, rep in enumerate(reps)})
        # tensor_rep multiplies complex numbers too: its bits are not under test here
        irreps.update({f"{name}/tensor{a},{b}": tensor_rep(ra, rb).mats
                       for a, ra in enumerate(reps) for b, rb in enumerate(reps)})
    np.savez(tmp_path / "irreps.npz", **irreps)
    skip = ("OPENBLAS_NUM_THREADS", "OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")
    env = {k: v for k, v in os.environ.items() if k not in skip}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(qhspace.__file__))
    runs = []
    for name, extra in (("default", {}), ("haswell", {"OPENBLAS_CORETYPE": "Haswell"}),
                        ("baseline", {"NPY_DISABLE_CPU_FEATURES": ",".join(_simd_targets())})):
        out = tmp_path / f"{name}.npz"
        subprocess.run([sys.executable, "-c", _CONSTRAINT_DUMP, str(tmp_path / "irreps.npz"), str(out)],
                       env={**env, **extra}, check=True, timeout=300)
        runs.append(np.load(out))
    ref, haswell, baseline = runs
    assert len(ref.files) == 5**3 + 9**3
    assert haswell.files == ref.files == baseline.files
    assert [k for k in ref.files if haswell[k].tobytes() != ref[k].tobytes()] == []
    # without numpy's SIMD targets its complex multiply fuses no multiply-add (on x86-64,
    # whose baseline has no FMA).  The products of a u of dimension above one may round
    # otherwise (409 of the 854 move, on an AVX-512 CPU); those of a one-dimensional u are
    # two real products and their sum, which round alike everywhere
    moved = [k for k in ref.files if baseline[k].tobytes() != ref[k].tobytes()]
    dim_u = {k: irreps[f"{k.split('/')[0]}/irrep{k.split(',')[-1]}"].shape[1] for k in moved}
    assert [k for k in moved if dim_u[k] == 1] == []
    assert max((max_residual(baseline[k], ref[k]) for k in moved), default=0.0) < 1e-15


def test_intertwiner_basis_memory_is_bounded():
    # a 216 x 216 constraint: S4's regular representation against 3 (x) 3.  The terms
    # of all 24 elements at once would take 18 MB; one matmul pair per g peaked at 3.83 MB
    s4 = symmetric_group(4)
    three = extract_irreps(s4).irreps[3]
    assert three.dim == 3
    u, v = regular_rep(s4), tensor_rep(three, three)
    basis, peak = traced_peak(intertwiner_basis, u, v)
    assert basis.shape == (9, 9, 24)
    assert peak < 4.6e6, peak
