"""Versioned JSON project files with content fingerprinting.

A project is one self-describing container: the group or cocycle defining
the category, an optional module section, and an optional morphism section.
Module data is meaningless without the category it was built against, so
module sections carry the category fingerprint and the loader refuses a
stale reference.  Complex numbers are stored as [re, im] decimal pairs with
17 significant digits, which round-trips doubles exactly.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from . import tensorcat
from .grouprep import FiniteGroup, IrrepTable, Subgroup, UnitaryRep, extract_irreps
from .modcat import BigradedFunctor, module_from_pointed, module_from_subgroup
from .numkit import DEFAULT_TOL
from .reconstruct import ModuleMorphism, SpectralAlgebra, restriction_morphism

SCHEMA_VERSION = "1"


class ProjectError(Exception):
    pass


def _f(x: float) -> float:
    return float(f"{float(x):.17g}")


def _pair(z: complex) -> list[float]:
    z = complex(z)
    return [_f(z.real), _f(z.imag)]


def encode_array(arr: np.ndarray) -> list:
    a = np.asarray(arr, dtype=np.complex128)
    if a.ndim == 0:
        return _pair(complex(a))
    return [encode_array(sub) for sub in a]


def decode_array(data) -> np.ndarray:
    def walk(node):
        if isinstance(node, list) and len(node) == 2 and all(
            isinstance(v, (int, float)) for v in node
        ):
            return complex(node[0], node[1])
        return [walk(sub) for sub in node]

    return np.asarray(walk(data), dtype=np.complex128)


def fingerprint(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()[:16]


def category_fingerprint(cat: tensorcat.CategoryPresentation) -> str:
    payload = {
        "kind": cat.kind,
        "obj_dim": list(cat.obj_dim),
        "dual_map": list(cat.dual_map),
        "qdim": [_f(q) for q in cat.qdim],
        "fusion": {
            f"{a},{b}": {
                str(c): [encode_array(i) for i in isos]
                for c, isos in sorted(cat.fusion[(a, b)].items())
            }
            for (a, b) in sorted(cat.fusion)
        },
    }
    return fingerprint(payload)


def irrep_table_to_dict(table: IrrepTable) -> dict:
    return {
        "mult_table": np.asarray(table.group.mult_table).tolist(),
        "irreps": [encode_array(r.mats) for r in table.irreps],
        "dual_map": list(table.dual_map),
    }


def irrep_table_from_dict(d: dict) -> IrrepTable:
    group = FiniteGroup(np.asarray(d["mult_table"], dtype=np.int64))
    irreps = tuple(UnitaryRep(group, decode_array(mats)) for mats in d["irreps"])
    return IrrepTable(group, irreps, tuple(d["dual_map"]))


def algebra_to_dict(alg: SpectralAlgebra) -> dict:
    t = alg.tensor
    # the nonzero structure constants, in C order of (p, q, r)
    triplets = [[p, q, r, _pair(t[p, q, r])] for p, q, r in np.argwhere(t != 0.0).tolist()]
    return {
        "basis": [list(tr) for tr in alg.triples],
        "grading": [tr[0] for tr in alg.triples],
        "unit_index": alg.index[(tensorcat.UNIT_LABEL, 0, 0)],
        "structure_constants": triplets,
        "star_matrix": encode_array(alg.star_mat),
    }


def algebra_from_dict(d: dict) -> dict:
    n = len(d["basis"])
    t = np.zeros((n, n, n), dtype=np.complex128)
    for p, q, r, pair in d["structure_constants"]:
        t[p, q, r] = complex(pair[0], pair[1])
    return {
        "basis": [tuple(b) for b in d["basis"]],
        "grading": list(d["grading"]),
        "unit_index": int(d["unit_index"]),
        "tensor": t,
        "star_matrix": decode_array(d["star_matrix"]),
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
        seed = int(sections.get("irreps", {}).get("seed", 0))
        cat = tensorcat.from_group(extract_irreps(group, seed=seed, tol=tol), tol)
    cat_fp = category_fingerprint(cat)

    module = None
    if "module" in sections:
        msec = sections["module"]
        if msec.get("category_fingerprint") != cat_fp:
            raise ProjectError(
                f"{path}: module section was built against a different category "
                f"(fingerprint {msec.get('category_fingerprint')!r}, current {cat_fp!r})"
            )
        sub = Subgroup(group, tuple(field("module", "elements")))
        backend = field("module", "backend")
        if backend == "subgroup":
            module = module_from_subgroup(cat, sub, seed=int(msec.get("seed", 0)), tol=tol)
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
        tsub = Subgroup(group, tuple(field("morphism", "target_elements")))
        target = module_from_subgroup(cat, tsub, seed=int(wsec.get("seed", 0)), tol=tol)
        morphism = restriction_morphism(module, target, tol)

    return LoadedProject(group, cat, module, morphism, sections)


def example_projects(cat_tol: float = DEFAULT_TOL) -> dict[str, dict]:
    """The three shipped example projects, as section dictionaries."""
    from .grouprep import cyclic_group, symmetric_group

    s3 = symmetric_group(3)
    cat_s3 = tensorcat.from_group(extract_irreps(s3, seed=0, tol=cat_tol), cat_tol)
    fp_s3 = category_fingerprint(cat_s3)
    order2 = sorted(g for g in range(6) if g != 0 and s3.mul(g, g) == 0)
    s3_sections = {
        "group": {"mult_table": np.asarray(s3.mult_table).tolist()},
        "irreps": {"seed": 0},
        "module": {
            "backend": "subgroup",
            "elements": [0, order2[0]],
            "seed": 0,
            "category_fingerprint": fp_s3,
        },
    }

    z4 = cyclic_group(4)
    data = tensorcat.standard_cyclic_cocycle(4)
    cat_z4 = tensorcat.from_pointed(data)
    fp_z4 = category_fingerprint(cat_z4)
    z4_sections = {
        "group": {"mult_table": np.asarray(z4.mult_table).tolist()},
        "cocycle": {"values": encode_array(data.cocycle)},
        "module": {
            "backend": "pointed",
            "elements": [0],
            "mu": None,
            "category_fingerprint": fp_z4,
        },
    }

    morphism_sections = {
        "group": {"mult_table": np.asarray(s3.mult_table).tolist()},
        "irreps": {"seed": 0},
        "module": {
            "backend": "subgroup",
            "elements": [0, order2[0]],
            "seed": 0,
            "category_fingerprint": fp_s3,
        },
        "morphism": {
            "backend": "restriction",
            "target_elements": [0],
            "seed": 0,
        },
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
