"""Dump the arrays a refactor must leave bit for bit unchanged, and compare two dumps.

    PYTHONPATH=src python3 tools/bitdump.py dump OUT.npz
    python3 tools/bitdump.py compare A.npz B.npz

``dump`` uses the ``qhspace`` found on the path, so pointing ``PYTHONPATH``
at another checkout's ``src`` dumps that checkout.  It covers the three
shipped projects and the ``group_ladder``, ``pointed_ladder`` and
``corners`` cases of ``perfbench`` (the corners at seeds 1 and 7) and
saves, one key per array:

- the matrices of every irreducible representation of a group category
  (``{tag}/irrep{a}``) and the stacked fusion isometries of every channel
  (``{tag}/fusion(a, b)/{c}``), for the projects and the group cases;
- the irreducibles of each project's subgroups, as the loader reads them
  from the file: the module's (``{tag}/module_irrep{a}``) and the morphism
  target's (``{tag}/target_irrep{a}``);
- every module basis, the Frobenius block ``frobenius_block(a, r, s)`` of
  every nonzero block (``{tag}/frobenius(a, r, s)``), and every channel of every coherence block with a
  column (the blocks ``BigradedFunctor.coherence_blocks`` walks, in the
  index's (a, b, r, t) order), read through ``coherence_channel`` under the key
  ``{tag}/coherence(a, b, r, t)/{c}``; the keys and shapes are those of
  dumps made when the record held one array per channel, so a dump of
  either record layout compares array for array with the other;
- the structure tensor and star matrix of the algebra at every base;
- the left and right tensors and star matrix of every bimodule corner,
  the corner tensor ``structure_tensor(mod, x, y, z)`` of every triple of
  distinct base labels, and the tensor and assembled star of every block
  algebra ``block_algebra(mod, x, y)``, x < y: the record keeps only its
  nonzero corner blocks and the star of each corner, and the dump places
  them in a dense (n, n, n) array and a dense (n, n) star, as dumps made
  when the record held those arrays;
- the exchange blocks ``psi`` of every restriction morphism;
- the verdict of every named check of ``run_suite``, ``verify_bimodule``,
  ``block_consistency``, ``validate_morphism`` and ``verify_algebra_map``,
  and, under the same name prefixed with ``value/``, the value it measured;
- the same for ``verify_algebra`` on the linking algebra
  ``block_algebra(mod, *range(mod.n_base))`` of each project's module and
  each corners case (``{tag}/linking``);
- the same for ``classical_roundtrip`` at base 0 of the function algebras
  built here, each corners case's ``trivial`` module and the
  ``s3_morphism`` target (``{tag}/classical``).

``compare`` prints every key whose array differs in dtype, shape or bytes
(so signed zeros count), or that only one dump has, and exits with 1 if it
printed any.  Check values are left out of that count and of the exit
status: a refactor may round a residual differently.  A summary line gives
the largest relative change of a check value, |a - b| / max(|a|, |b|), and
its key; one line per check name follows with the largest relative change
of that name over every case, so a change that re-rounds one check on
purpose shows every other check at 0.  Dump both sides at the same
``OPENBLAS_NUM_THREADS``.  A reader that closes the pipe early (``| head``)
ends the output quietly; the exit status is still compare's own.

A dump made before block algebras went through ``verify_algebra`` has no
``block{x, y}/star`` arrays, and names the block verdicts ``block_left_unit``,
``block_right_unit`` and ``block_associativity`` where later dumps have
``left_unit``, ``right_unit``, ``associativity`` and three star checks, and a
dump made before ``block_algebra`` took any number of labels has no
``linking`` verdicts, and a dump made before the Frobenius blocks were dumped
has no ``frobenius`` arrays: a compare of the two lists those keys as present
on one side only.
"""

from __future__ import annotations

import os
import sys
from math import isqrt

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PROJECTS = ("s3_subgroup", "s3_morphism", "z4_pointed")
CORNER_SEEDS = (1, 7)


def _print(line: str) -> None:
    """Print a line; once the reader has closed the pipe, send the rest to the null device and go on."""
    try:
        print(line, flush=True)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _verdicts(out: dict, tag: str, cert) -> None:
    for check in cert.checks:
        out[f"{tag}/{check.name}"] = np.array(check.passed)
        out[f"value/{tag}/{check.name}"] = np.array(check.value)


def _category(out: dict, tag: str, cat) -> None:
    for a, rep in enumerate(cat.reps or ()):
        out[f"{tag}/irrep{a}"] = rep.mats
    for (a, b), channels in cat.fusion.items():
        for c, isometries in channels.items():
            out[f"{tag}/fusion{a, b}/{c}"] = np.stack(isometries)


def _subgroup_irreps(out: dict, tag: str, mod) -> None:
    for a, rep in enumerate(mod.irrep_table.irreps if mod.irrep_table else ()):
        out[f"{tag}{a}"] = rep.mats


def _module(out: dict, tag: str, mod) -> None:
    from qhspace.reconstruct import build_algebra

    for key, basis in mod.bases.items():
        out[f"{tag}/basis{key}"] = basis
        out[f"{tag}/frobenius{key}"] = mod.frobenius_block(*key)
    for key in mod.coherence_blocks():
        for c in mod.cat.channels(*key[:2]):
            out[f"{tag}/coherence{key}/{c}"] = mod.coherence_channel(*key, c)
    for x in range(mod.n_base):
        alg = build_algebra(mod, x)
        out[f"{tag}/tensor{x}"] = alg.tensor
        out[f"{tag}/star{x}"] = alg.star_mat


def _morphism(out: dict, tag: str, mor, seed: int) -> None:
    from qhspace.reconstruct import validate_morphism, verify_algebra_map

    for key, block in mor.psi.items():
        out[f"{tag}/psi{key}"] = block
    _verdicts(out, f"{tag}/validate_morphism", validate_morphism(mor, seed=seed))
    _verdicts(out, f"{tag}/verify_algebra_map", verify_algebra_map(mor))


def _classical(out: dict, tag: str, mod) -> None:
    from qhspace.reconstruct import build_algebra, classical_roundtrip

    _verdicts(out, f"{tag}/classical", classical_roundtrip(build_algebra(mod, 0)))


def _cuts(alg) -> list[slice]:
    return [slice(lo, hi) for lo, hi in zip(alg.offsets[:-1].tolist(), alg.offsets[1:].tolist())]


def _dense_tensor(alg) -> np.ndarray:
    """The structure tensor of a block algebra as one array: its corner blocks, and zero elsewhere."""
    cut = _cuts(alg)
    t = np.zeros((alg.dim,) * 3, dtype=np.complex128)
    for (i, j, k), blk in alg.blocks.items():
        t[cut[i], cut[j], cut[k]] = blk
    return t


def _dense_star(alg) -> np.ndarray:
    """The star of a block algebra as one matrix: the star of corner (u, v) at rows (v, u), columns (u, v)."""
    cut, j = _cuts(alg), isqrt(len(alg.star))
    s = np.zeros((alg.dim,) * 2, dtype=np.complex128)
    for i, blk in enumerate(alg.star):
        s[cut[(i % j) * j + i // j], cut[i]] = blk
    return s


def _linking(out: dict, tag: str, mod) -> None:
    from qhspace.reconstruct import block_algebra, verify_algebra

    _verdicts(out, f"{tag}/linking", verify_algebra(block_algebra(mod, *range(mod.n_base))))


def _corners(out: dict, tag: str, mod, seed: int) -> None:
    from qhspace.reconstruct import block_algebra, block_consistency, build_bimodule, structure_tensor, verify_bimodule

    for x in range(mod.n_base):
        for y in range(mod.n_base):
            bim = build_bimodule(mod, x, y)
            out[f"{tag}/bimodule{x, y}/left"] = bim.left_tensor
            out[f"{tag}/bimodule{x, y}/right"] = bim.right_tensor
            out[f"{tag}/bimodule{x, y}/star"] = bim.star_mat
            _verdicts(out, f"{tag}/bimodule{x, y}", verify_bimodule(bim))
            if x < y:
                alg = block_algebra(mod, x, y)
                out[f"{tag}/block{x, y}/tensor"] = _dense_tensor(alg)
                out[f"{tag}/block{x, y}/star"] = _dense_star(alg)
                _verdicts(out, f"{tag}/block{x, y}", block_consistency(mod, x, y))
            for z in range(mod.n_base):
                if len({x, y, z}) == 3:
                    out[f"{tag}/corner{x, y, z}"] = structure_tensor(mod, x, y, z)
    _linking(out, tag, mod)


def dump(path: str) -> None:
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    from workloads import coset_module, make_inputs, subgroup_module

    from qhspace.project_io import load_project
    from qhspace.reconstruct import restriction_morphism
    from qhspace.tensorcat import PointedFusionData, from_group, from_pointed
    from qhspace.grouprep import extract_irreps
    from qhspace.verify import run_suite

    out: dict[str, np.ndarray] = {}
    for name in PROJECTS:
        project = load_project(os.path.join(ROOT, "projects", f"{name}.qhs.json"))
        _category(out, name, project.category)
        if project.module is not None:
            _subgroup_irreps(out, f"{name}/module_irrep", project.module)
            _module(out, name, project.module)
            _verdicts(out, f"{name}/run_suite", run_suite(project.category, project.module))
            _linking(out, name, project.module)
        if project.morphism is not None:
            _subgroup_irreps(out, f"{name}/target_irrep", project.morphism.target)
            _module(out, f"{name}/target", project.morphism.target)
            _classical(out, f"{name}/target", project.morphism.target)
            _morphism(out, name, project.morphism, 0)
    for case in make_inputs("pointed_ladder", 0, ROOT):
        cat = from_pointed(PointedFusionData(case.group, case.cocycle))
        mod = coset_module(cat, case.group, case.subgroup)
        _module(out, case.id, mod)
        _verdicts(out, f"{case.id}/run_suite", run_suite(cat, mod))
    group_cases = [(case, case.id, 0) for case in make_inputs("group_ladder", 0, ROOT)]
    group_cases += [(case, f"{case.id}@{seed}", seed) for seed in CORNER_SEEDS
                    for case in make_inputs("corners", seed, ROOT)]
    for case, tag, seed in group_cases:
        cat = from_group(extract_irreps(case.group))
        _category(out, tag, cat)
        mod = subgroup_module(cat, case.group, case.subgroup)
        _module(out, tag, mod)
        _verdicts(out, f"{tag}/run_suite", run_suite(cat, mod, seed=seed))
        if case.corners:
            _corners(out, tag, mod, seed)
            triv = subgroup_module(cat, case.group, (case.group.identity,))
            _module(out, f"{tag}/trivial", triv)
            _classical(out, f"{tag}/trivial", triv)
            _morphism(out, tag, restriction_morphism(mod, triv), seed)
    np.savez(path, **out)
    print(f"{len(out)} arrays written to {path}")


def _value_change(a, b, keys: set[str]) -> None:
    """Print the largest relative change of a check value present in both dumps, overall and per check name.

    The check name is the last part of the key without the prefix that
    ``run_suite`` puts before the checks it merges (``mod.``, ``alg0.``, ...).
    """
    worst: dict[str, tuple[float, str | None]] = {}
    for key in sorted(keys):
        name = key.rsplit("/", 1)[1].rsplit(".", 1)[-1]
        va, vb = float(a[key]), float(b[key])
        rel, where = worst.get(name, (0.0, None))
        if not (va == vb or (np.isnan(va) and np.isnan(vb))):
            diff = abs(va - vb) / max(abs(va), abs(vb)) if np.isfinite(va) and np.isfinite(vb) else float("inf")
            if where is None or diff > rel:
                rel, where = diff, f"{key[len('value/'):]}: {va!r} vs {vb!r}, |difference| {abs(va - vb):.3e}"
        worst[name] = (rel, where)
    rel, where = max(worst.values(), key=lambda v: (v[1] is not None, v[0]), default=(0.0, None))
    _print(f"{len(keys)} check values, largest relative change {rel:.3e}" + (f" at {where}" if where else ""))
    for name, (rel, where) in sorted(worst.items()):
        _print(f"  {name}: {rel:.3e}" + (f" at {where}" if where else ""))


def compare(path_a: str, path_b: str) -> int:
    a, b = np.load(path_a), np.load(path_b)
    values = {key for key in set(a.files) & set(b.files) if key.startswith("value/")}
    keys_a = {key for key in a.files if not key.startswith("value/")}
    keys_b = {key for key in b.files if not key.startswith("value/")}
    differ = 0
    for key in sorted(keys_a | keys_b):
        if key not in keys_a or key not in keys_b:
            _print(f"only in {path_a if key in keys_a else path_b}: {key}")
        elif a[key].dtype != b[key].dtype or a[key].shape != b[key].shape:
            _print(f"dtype or shape: {key}: {a[key].dtype}{a[key].shape} vs {b[key].dtype}{b[key].shape}")
        elif a[key].tobytes() != b[key].tobytes():
            diff = np.abs(a[key].astype(np.complex128) - b[key].astype(np.complex128))
            _print(f"bytes: {key} (max |difference| {np.max(diff):.3e})")
        else:
            continue
        differ += 1
    _print(f"{differ} of {len(keys_a | keys_b)} arrays differ")
    _value_change(a, b, values)
    return 1 if differ else 0


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "dump":
        dump(argv[1])
        return 0
    if len(argv) == 3 and argv[0] == "compare":
        return compare(argv[1], argv[2])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
