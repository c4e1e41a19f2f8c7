"""Versioned JSON project files with content fingerprinting.

A project is one self-describing container: the group, the category data
(the irreducible representations or a 3-cocycle), an optional module
section, and an optional morphism section.  A subgroup module stores the
irreducibles of its subgroup (``module.irreps``), and a restriction
morphism those of its target subgroup (``morphism.target_irreps``); the
loader validates every table and builds from it, and extracts none.  Each
section carries a fingerprint of its JSON, and the loader refuses a section
that does not match its fingerprint.  Complex numbers are stored as
[re, im] pairs of JSON numbers, in the shortest decimal form that reads back
to the same double.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass

import numpy as np

from . import tensorcat
from .certificate import sha256
from .grouprep import FiniteGroup, IrrepExtractionError, IrrepTable, Subgroup, UnitaryRep, extract_irreps
from .modcat import BigradedFunctor, module_from_pointed, module_from_subgroup
from .numkit import DEFAULT_TOL
from .reconstruct import ModuleMorphism, StarAlgebra, restriction_morphism

SCHEMA_VERSION = "3"


class ProjectError(ValueError):
    pass


def encode_array(arr: np.ndarray) -> list:
    a = np.asarray(arr, dtype=np.complex128)
    return np.stack((a.real, a.imag), -1).tolist()


def decode_array(data) -> np.ndarray:
    def walk(node):
        if not isinstance(node, list):
            raise ProjectError(f"an encoded array holds {node!r} where a list belongs")
        if len(node) == 2 and all(type(v) in (int, float) for v in node):
            return complex(node[0], node[1])
        return [walk(sub) for sub in node]

    return np.asarray(walk(data), dtype=np.complex128)


def fingerprint(obj) -> str:
    body = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return sha256(body.encode()).hexdigest()[:16]


def irrep_table_to_dict(table: IrrepTable) -> dict:
    return {
        "matrices": [encode_array(r.mats) for r in table.irreps],
        "dual_map": list(table.dual_map),
    }


def irrep_table_from_dict(group: FiniteGroup, d: dict) -> IrrepTable:
    """The table stored in ``d``, on ``group``; a malformed one raises ``ProjectError``.

    Only the shapes and the range of ``dual_map`` are checked here;
    ``IrrepTable.validate`` checks the rest.
    """
    for key in ("matrices", "dual_map"):
        if not (isinstance(d, dict) and isinstance(d.get(key), list)):
            raise ProjectError(f"irrep table lacks the list {key!r}")
    irreps = []
    for a, mats in enumerate(d["matrices"]):
        m = decode_array(mats)
        if m.ndim != 3 or m.shape[0] != group.order or not 0 < m.shape[1] == m.shape[2]:
            raise ProjectError(f"irrep {a} has matrices of shape {m.shape}, not ({group.order}, d, d)")
        irreps.append(UnitaryRep(group, m))
    dual, n = d["dual_map"], len(irreps)
    if len(dual) != n or not all(isinstance(b, int) and 0 <= b < n for b in dual):
        raise ProjectError(f"dual_map {dual} is not a list of {n} labels in 0..{n - 1}")
    return IrrepTable(group, tuple(irreps), tuple(dual))


def algebra_to_dict(alg: StarAlgebra, basis: list[tuple[int, int, int]]) -> dict:
    """The algebra as JSON, its elements labelled by ``basis`` (``basis_triples`` at its base)."""
    t, nonzero = alg.tensor, alg.tensor != 0.0
    # the nonzero structure constants, in C order of (p, q, r)
    triplets = [[*pqr, z] for pqr, z in zip(np.argwhere(nonzero).tolist(), encode_array(t[nonzero]))]
    return {
        "basis": [list(tr) for tr in basis],
        "grading": [tr[0] for tr in basis],
        "unit_index": 0,
        "structure_constants": triplets,
        "star_matrix": encode_array(alg.star_mat),
    }


@dataclass
class LoadedProject:
    group: FiniteGroup
    category: tensorcat.CategoryPresentation
    module: BigradedFunctor | None
    morphism: ModuleMorphism | None
    sections: dict


def save_project(path: str, sections: dict) -> None:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "sections": sections,
        "fingerprints": {name: fingerprint(body) for name, body in sections.items()},
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_project(path: str, tol: float = DEFAULT_TOL) -> LoadedProject:
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ProjectError(f"{path}: a project is a JSON object, not a {type(doc).__name__}")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ProjectError(
            f"{path}: schema version {version!r} not supported (expected {SCHEMA_VERSION!r})"
        )
    sections = doc.get("sections", {})
    stored = doc.get("fingerprints", {})
    if not (isinstance(sections, dict) and isinstance(stored, dict)):
        raise ProjectError(f"{path}: sections and fingerprints must be JSON objects")
    for name, body in sections.items():
        if not isinstance(body, dict):
            raise ProjectError(f"{path}: section {name!r} is not a JSON object")
        want = fingerprint(body)
        if stored.get(name) != want:
            raise ProjectError(f"{path}: fingerprint mismatch in section {name!r}")

    def field(section: str, key: str):
        if key not in sections[section]:
            raise ProjectError(f"{path}: section {section!r} lacks key {key!r}")
        return sections[section][key]

    if "group" not in sections:
        raise ProjectError(f"{path}: missing group section")
    group = FiniteGroup(np.asarray(field("group", "mult_table"), dtype=np.int64))

    if "cocycle" in sections:
        values = decode_array(field("cocycle", "values"))
        data = tensorcat.PointedFusionData(group, values)
        cat = tensorcat.from_pointed(data)
    else:
        table = irrep_table_from_dict(group, sections.get("irreps", {}))
        table.validate(tol)
        cat = tensorcat.from_group(table, tol)

    def subgroup(section: str, key: str) -> Subgroup:
        elements = field(section, key)
        if not (isinstance(elements, list) and all(type(g) is int and 0 <= g < group.order for g in elements)):
            raise ProjectError(f"{path}: {section}.{key} = {elements!r} is not a list of elements in 0..{group.order - 1}")
        return Subgroup(group, tuple(elements))

    def subgroup_module(section: str, sub: Subgroup, key: str) -> BigradedFunctor:
        d = field(section, key)
        try:
            table = irrep_table_from_dict(sub.as_group, d)
            table.validate(tol)
        except (ProjectError, IrrepExtractionError) as err:
            raise type(err)(f"{path}: {section}.{key}: {err}") from None
        return module_from_subgroup(cat, sub, table, tol)

    module = None
    if "module" in sections:
        msec = sections["module"]
        sub = subgroup("module", "elements")
        backend = field("module", "backend")
        if backend == "subgroup":
            module = subgroup_module("module", sub, "irreps")
        elif backend == "pointed":
            mu = decode_array(msec["mu"]) if msec.get("mu") is not None else None
            module = module_from_pointed(cat, sub, mu=mu, tol=tol)
        else:
            raise ProjectError(f"{path}: unknown module backend {backend!r}")

    morphism = None
    if "morphism" in sections:
        if module is None:
            raise ProjectError(f"{path}: morphism section requires a module section")
        wsec = sections["morphism"]
        if wsec.get("backend") != "restriction":
            raise ProjectError(f"{path}: unknown morphism backend {wsec.get('backend')!r}")
        target = subgroup_module("morphism", subgroup("morphism", "target_elements"), "target_irreps")
        morphism = restriction_morphism(module, target, tol)

    return LoadedProject(group, cat, module, morphism, sections)


def example_projects() -> dict[str, dict]:
    """The three shipped example projects, as section dictionaries."""
    from .grouprep import cyclic_group, symmetric_group

    def stored_irreps(group: FiniteGroup) -> dict:
        return irrep_table_to_dict(extract_irreps(group, seed=0))

    s3 = symmetric_group(3)
    order2 = sorted(g for g in range(6) if g != 0 and s3.mul(g, g) == 0)
    z2, trivial = Subgroup(s3, (0, order2[0])), Subgroup(s3, (0,))
    s3_sections = {
        "group": {"mult_table": np.asarray(s3.mult_table).tolist()},
        # the loader reads the tables; each seed records how its table was extracted
        "irreps": {"seed": 0, **stored_irreps(s3)},
        "module": {"backend": "subgroup", "elements": list(z2.elements), "seed": 0,
                   "irreps": stored_irreps(z2.as_group)},
    }
    z4 = cyclic_group(4)
    z4_sections = {
        "group": {"mult_table": np.asarray(z4.mult_table).tolist()},
        "cocycle": {"values": encode_array(tensorcat.standard_cyclic_cocycle(4).cocycle)},
        "module": {"backend": "pointed", "elements": [0], "mu": None},
    }
    morphism_sections = {
        **copy.deepcopy(s3_sections),
        "morphism": {"backend": "restriction", "target_elements": list(trivial.elements),
                     "target_irreps": stored_irreps(trivial.as_group)},
    }
    return {
        "s3_subgroup": s3_sections,
        "z4_pointed": z4_sections,
        "s3_morphism": morphism_sections,
    }


def write_example_projects(directory: str) -> list[str]:
    import os

    paths = []
    for name, sections in example_projects().items():
        path = os.path.join(directory, f"{name}.qhs.json")
        save_project(path, sections)
        paths.append(path)
    return paths
