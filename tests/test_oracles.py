"""Independent oracles computed from characters and counting alone.

These values are frozen here from first principles (character averaging,
coset enumeration) and reused by the acceptance tests; nothing in this file
touches the category or reconstruction machinery.
"""

import numpy as np

from qhspace.grouprep import Subgroup, cyclic_group, extract_irreps, intertwiner_basis, restrict


def invariant_dimension_by_characters(table, sub):
    """dim of the H-invariant subspace summed over irreps, weighted by dim.

    Sum_a dim(H_a^H) * dim(H_a) where dim(H_a^H) = (1/|H|) Sum_h chi_a(h).
    """
    total = 0
    for rep in table.irreps:
        chi = rep.character
        avg = sum(chi[h] for h in sub.elements) / len(sub.elements)
        fixed = int(round(avg.real))
        assert abs(avg - fixed) < 1e-9
        total += fixed * rep.dim
    return total


def test_invariant_dimension_equals_index(s3_table, s3_subgroups):
    for name, sub in s3_subgroups.items():
        dim = invariant_dimension_by_characters(s3_table, sub)
        assert dim == 6 // sub.order, name


def test_coset_counts(s3, s3_subgroups):
    for sub in s3_subgroups.values():
        cosets = sub.left_cosets()
        assert len(cosets) == 6 // sub.order
        assert sorted(g for c in cosets for g in c) == list(range(6))


def test_branching_by_characters(s3_table, s3_subgroups):
    """Restriction multiplicities from character inner products match
    explicitly computed intertwiner spaces."""
    sub = s3_subgroups["order2"]
    h_table = extract_irreps(sub.as_group, seed=0)
    for rep in s3_table.irreps:
        res = restrict(rep, sub)
        chi_res = res.character
        for h_rep in h_table.irreps:
            chi_h = h_rep.character
            mult = sum(np.conj(chi_h[k]) * chi_res[k] for k in range(sub.order)) / sub.order
            mult_int = int(round(mult.real))
            assert abs(mult - mult_int) < 1e-9
            assert len(intertwiner_basis(h_rep, res)) == mult_int


def test_character_orthogonality(s3_table):
    g = s3_table.group
    n = g.order
    for i, u in enumerate(s3_table.irreps):
        for j, v in enumerate(s3_table.irreps):
            chi_u, chi_v = u.character, v.character
            inner = sum(np.conj(chi_u[k]) * chi_v[k] for k in range(n)) / n
            assert abs(inner - (1.0 if i == j else 0.0)) < 1e-9


def test_coset_stabilizer_counts():
    """For pointed coset modules the algebra dimension oracle is the number
    of group elements stabilizing the base coset."""
    z4 = cyclic_group(4)
    k = Subgroup.generated(z4, [2])
    base = k.left_cosets()[0]
    stab = [g for g in range(4) if tuple(sorted(z4.mul(g, h) for h in base)) == base]
    assert len(stab) == 2


def test_s3_multiplicity_matrix_oracle(s3_table, s3_subgroups):
    """The 2-dim irrep of S3 restricted to Z2 contains each Z2-character
    once: the action matrix of the module is the all-ones 2x2 matrix."""
    sub = s3_subgroups["order2"]
    h_table = extract_irreps(sub.as_group, seed=0)
    two = [r for r in s3_table.irreps if r.dim == 2][0]
    res = restrict(two, sub)
    mults = [len(intertwiner_basis(h, res)) for h in h_table.irreps]
    assert mults == [1, 1]
