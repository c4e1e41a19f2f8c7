from itertools import permutations

import numpy as np
import pytest

from qhspace import tensorcat
from qhspace.grouprep import Subgroup, cyclic_group, extract_irreps, group_from_permutations, symmetric_group
from qhspace.modcat import module_from_pointed, module_from_subgroup


@pytest.fixture(scope="session")
def s3():
    return symmetric_group(3)


@pytest.fixture(scope="session")
def s3_table(s3):
    return extract_irreps(s3, seed=0)


@pytest.fixture(scope="session")
def s3_cat(s3_table):
    return tensorcat.from_group(s3_table)


@pytest.fixture(scope="session")
def s3_subgroups(s3):
    # one representative per conjugacy class of subgroups
    order2 = sorted(g for g in range(6) if g != 0 and s3.mul(g, g) == 0)
    order3 = sorted(g for g in range(6) if g != 0 and s3.mul(g, g) != 0)
    return {
        "trivial": Subgroup.generated(s3, []),
        "order2": Subgroup.generated(s3, [order2[0]]),
        "order3": Subgroup.generated(s3, [order3[0]]),
        "full": Subgroup.generated(s3, [order2[0], order3[0]]),
    }


@pytest.fixture(scope="session")
def s3_modules(s3_cat, s3_subgroups):
    return {name: module_from_subgroup(s3_cat, sub)
            for name, sub in s3_subgroups.items()}


@pytest.fixture(scope="session")
def z4():
    return cyclic_group(4)


@pytest.fixture(scope="session")
def z4_cat(z4):
    return tensorcat.from_group(extract_irreps(z4, seed=0))


@pytest.fixture(scope="session")
def z4_pointed_cat():
    return tensorcat.from_pointed(tensorcat.standard_cyclic_cocycle(4))


@pytest.fixture(scope="session")
def z4_trivial_pointed_cat(z4):
    data = tensorcat.PointedFusionData(z4, np.ones((4, 4, 4), dtype=np.complex128))
    return tensorcat.from_pointed(data)


@pytest.fixture(scope="session")
def z4_pointed_module(z4_pointed_cat, z4):
    return module_from_pointed(z4_pointed_cat, Subgroup.generated(z4, []))


@pytest.fixture(scope="session")
def z4_coset_module(z4_trivial_pointed_cat, z4):
    return module_from_pointed(z4_trivial_pointed_cat, Subgroup.generated(z4, [2]))


@pytest.fixture(scope="session")
def a4_modules():
    """A4 over an order-3 subgroup and over the trivial one.

    3 (x) 3 holds the 3 twice, so the sums over the fusion multiplicity k
    have two terms; every S3 and Z4 multiplicity is one.
    """
    even = [p for p in permutations(range(4))
            if sum(p[i] > p[j] for i in range(4) for j in range(i + 1, 4)) % 2 == 0]
    g = group_from_permutations(even)
    cat = tensorcat.from_group(extract_irreps(g, seed=0))
    assert max(cat.mult(a, b, c) for a in cat.labels for b in cat.labels for c in cat.channels(a, b)) == 2
    z3 = Subgroup.generated(g, [even.index((1, 2, 0, 3))])
    return [module_from_subgroup(cat, z3), module_from_subgroup(cat, Subgroup.generated(g, []))]


@pytest.fixture(scope="session")
def s4_over_s3():
    """S4 over the S3 that fixes the last point: base dims (1, 1, 2).

    Its block algebra at base labels (0, 2) has dimension 4 + 8 + 8 + 16 = 36.
    """
    perms = sorted(permutations(range(4)))
    g = symmetric_group(4)
    cat = tensorcat.from_group(extract_irreps(g, seed=0))
    return module_from_subgroup(cat, Subgroup.generated(g, [perms.index((1, 0, 2, 3)),
                                                            perms.index((1, 2, 0, 3))]))
