"""Workload inputs, case runners and the correctness gate.

Four workloads, each a fixed list of cases run one after another:

- ``group_ladder``: group categories with subgroup modules (Q8 > Z4,
  A4 > Z3, S4 > D8, D16 > <flip>); the representation layers and the
  subgroup branch of ``validate_module`` do most of the work.
- ``pointed_ladder``: pointed categories with twisted-coset modules (Z8 and
  Z12 with the standard cyclic cocycle and trivial K; Z10 > Z10 and Z8 > Z2
  with the trivial cocycle); coherence validation and coset morphism spaces
  dominate, and ``grouprep`` does nothing.
- ``corners``: S4 > S3 and D12 > <flip>, each followed by every bimodule
  corner, every block algebra and the restriction morphism to the trivial
  subgroup; reconstruction dominates.
- ``cli_projects``: the README command set as separate ``qhs`` processes over
  the shipped projects; interpreter start, project loading and the CLI.

The seed picks the conjugate of each subgroup the case uses and is passed to
every seeded check.  Case sizes do not depend on it.

A case fails if it raises, if a ``qhs`` process exits nonzero, if a
certificate fails or if a dimension disagrees with its counting oracle.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from itertools import permutations

import numpy as np

import qhspace.reconstruct
from qhspace.grouprep import (
    FiniteGroup,
    Subgroup,
    cyclic_group,
    dihedral_group,
    extract_irreps,
    group_from_permutations,
    symmetric_group,
)
from qhspace.modcat import module_from_pointed, module_from_subgroup
from qhspace.reconstruct import (
    block_consistency,
    build_algebra,
    build_bimodule,
    restriction_morphism,
    validate_morphism,
    verify_algebra_map,
    verify_bimodule,
)
from qhspace.tensorcat import PointedFusionData, from_group, from_pointed
from qhspace.verify import run_suite

from tracing import SIZE_COUNTS, NullTracer, assoc_bytes

WORKLOADS = ("group_ladder", "pointed_ladder", "corners", "cli_projects")
HERE = os.path.dirname(os.path.abspath(__file__))


class GateFailure(Exception):
    """An output disagrees with its certificate or counting oracle."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise GateFailure(what)


@dataclass
class CaseResult:
    id: str
    ok: bool = True
    error: str | None = None
    module: object = None  # the module under test, for the work counts
    seconds: float = 0.0


# ---------------------------------------------------------------- inputs


@dataclass
class GroupCase:
    id: str
    group: FiniteGroup
    subgroup: tuple[int, ...]
    corners: bool = False


@dataclass
class PointedCase:
    id: str
    group: FiniteGroup
    cocycle: np.ndarray
    subgroup: tuple[int, ...]


@dataclass
class CliCommand:
    id: str
    argv: list[str]
    check: object = None  # callable(out_dir) run after a zero exit


@dataclass
class CliInputs:
    root: str
    commands: list[CliCommand] = field(default_factory=list)


def quaternion_group() -> FiniteGroup:
    """Q8 from its Cayley table: element 4*s + u is (-1)^s times unit u of (1, i, j, k)."""
    # unit[u][v] is the (sign, unit) pair of the product u*v
    unit = [
        [(0, 0), (0, 1), (0, 2), (0, 3)],
        [(0, 1), (1, 0), (0, 3), (1, 2)],
        [(0, 2), (1, 3), (1, 0), (0, 1)],
        [(0, 3), (0, 2), (1, 1), (1, 0)],
    ]
    table = np.empty((8, 8), dtype=np.int64)
    for a in range(8):
        for b in range(8):
            s, u = unit[a % 4][b % 4]
            table[a, b] = 4 * ((s + a // 4 + b // 4) % 2) + u
    return FiniteGroup(table)


PERMS4 = sorted(permutations(range(4)))
EVEN4 = [p for p in PERMS4
         if sum(1 for i in range(4) for j in range(i + 1, 4) if p[i] > p[j]) % 2 == 0]


def seeded_conjugate(group: FiniteGroup, generators, rng) -> tuple[int, ...]:
    """One of the distinct conjugates of the generated subgroup, picked by the seed."""
    h = group.close_subset(generators)
    t, inv = group.mult_table, group.inverse
    conjugates = sorted({tuple(sorted(int(t[t[g, x], inv[g]]) for x in h))
                         for g in range(group.order)})
    return conjugates[int(rng.integers(len(conjugates)))]


def standard_cocycle(n: int) -> np.ndarray:
    """omega(a, b, c) = exp(2 pi i a (b + c - (b + c) mod n) / n^2) on Z_n."""
    idx = np.arange(n)
    carry = idx[:, None] + idx[None, :] - (idx[:, None] + idx[None, :]) % n
    return np.exp(2j * np.pi * idx[:, None, None] * carry[None, :, :] / n**2)


def make_inputs(workload: str, seed: int, root: str):
    """Build the Cayley tables, cocycle arrays and project paths of a workload."""
    rng = np.random.default_rng(seed)
    if workload == "group_ladder":
        q8 = quaternion_group()
        a4 = group_from_permutations(EVEN4)
        s4 = symmetric_group(4)
        d16 = dihedral_group(16)
        return [
            GroupCase("Q8>Z4", q8, seeded_conjugate(q8, [1], rng)),
            GroupCase("A4>Z3", a4, seeded_conjugate(a4, [EVEN4.index((1, 2, 0, 3))], rng)),
            GroupCase("S4>D8", s4, seeded_conjugate(
                s4, [PERMS4.index((1, 2, 3, 0)), PERMS4.index((2, 1, 0, 3))], rng)),
            GroupCase("D16>flip", d16, seeded_conjugate(d16, [16], rng)),
        ]
    if workload == "pointed_ladder":
        z8, z10, z12 = cyclic_group(8), cyclic_group(10), cyclic_group(12)
        return [
            PointedCase("Z8/std>1", z8, standard_cocycle(8), (0,)),
            PointedCase("Z12/std>1", z12, standard_cocycle(12), (0,)),
            PointedCase("Z10/triv>Z10", z10, np.ones((10, 10, 10)), tuple(range(10))),
            PointedCase("Z8/triv>Z2", z8, np.ones((8, 8, 8)), (0, 4)),
        ]
    if workload == "corners":
        s4 = symmetric_group(4)
        d12 = dihedral_group(12)
        s3 = [PERMS4.index((1, 0, 2, 3)), PERMS4.index((1, 2, 0, 3))]
        return [
            GroupCase("S4>S3", s4, seeded_conjugate(s4, s3, rng), corners=True),
            GroupCase("D12>flip", d12, seeded_conjugate(d12, [12], rng), corners=True),
        ]
    if workload == "cli_projects":
        return cli_inputs(root)
    raise ValueError(f"unknown workload {workload!r}")


def select(inputs, k: int, n: int):
    """The cases whose index is k modulo n."""
    if isinstance(inputs, CliInputs):
        return CliInputs(inputs.root, inputs.commands[k::n])
    return inputs[k::n]


def _index(project: str, elements_key: str = "elements", section: str = "module") -> int:
    """[G:H] of a subgroup stored in a project file."""
    with open(project) as fh:
        sections = json.load(fh)["sections"]
    return len(sections["group"]["mult_table"]) // len(sections[section][elements_key])


def cli_inputs(root: str) -> CliInputs:
    def proj(name):
        return os.path.join("projects", f"{name}.qhs.json")

    s3_index = _index(os.path.join(root, proj("s3_subgroup")))
    mor_src = _index(os.path.join(root, proj("s3_morphism")))
    mor_tgt = _index(os.path.join(root, proj("s3_morphism")), "target_elements", "morphism")
    return CliInputs(root, [
        CliCommand("validate s3_subgroup", ["validate", proj("s3_subgroup")]),
        CliCommand("validate z4_pointed", ["validate", proj("z4_pointed")]),
        CliCommand("reconstruct s3_subgroup",
                   ["reconstruct", proj("s3_subgroup"), "--base", "0", "--out", "{out}/algebra.json"],
                   check=lambda out: check_algebra_file(out, s3_index)),
        CliCommand("verify z4_pointed json",
                   ["verify", proj("z4_pointed"), "--format", "json", "--out", "{out}/cert.json"],
                   check=check_cert_file),
        CliCommand("verify s3_subgroup positivity",
                   ["verify", proj("s3_subgroup"), "--suite", "positivity"]),
        CliCommand("verify s3_subgroup", ["verify", proj("s3_subgroup")]),
        CliCommand("morphism s3_morphism",
                   ["morphism", proj("s3_morphism"), "--eigenvector", "--theta-out", "{out}/theta.json"],
                   check=lambda out: check_theta_file(out, mor_src, mor_tgt)),
        # renders the certificate that ``verify --out`` wrote four commands
        # earlier; a memory pass split in two by index modulo 2 keeps them together
        CliCommand("report cert.json", ["report", "{out}/cert.json"]),
    ])


# ---------------------------------------------------------------- oracles


def failing(cert) -> list[str]:
    return [c.name for c in cert.checks if not c.passed]


def expect_passed(cert, what: str) -> None:
    expect(cert.passed, f"{what} failed checks {failing(cert)}")


def check_algebra_file(out: str, index: int) -> None:
    """The base-0 algebra of a subgroup module has dimension [G:H] (trivial base)."""
    with open(os.path.join(out, "algebra.json")) as fh:
        n = len(json.load(fh)["basis"])
    expect(n == index, f"reconstructed algebra has dimension {n}, oracle {index}")


def check_cert_file(out: str) -> None:
    with open(os.path.join(out, "cert.json")) as fh:
        cert = json.load(fh)
    expect(cert["passed"] is True, "stored certificate did not pass")


def check_theta_file(out: str, src: int, tgt: int) -> None:
    """The induced map between base algebras is injective: rank = source dimension."""
    with open(os.path.join(out, "theta.json")) as fh:
        pairs = np.asarray(json.load(fh)["theta"], dtype=np.float64)
    theta = pairs[..., 0] + 1j * pairs[..., 1]
    expect(theta.shape == (tgt, src), f"theta has shape {theta.shape}, oracle {(tgt, src)}")
    rank = int(np.linalg.matrix_rank(theta, tol=1e-9))
    expect(rank == src, f"theta has rank {rank}, oracle {src}")


def module_sizes(mod) -> dict:
    """Problem sizes and block counts of the module under test."""
    dims = mod.dims
    # dimension of the (x, y) spectral space: sum over labels a of dims[a, x, y] * dim a
    corners = np.einsum("axy,a->xy", dims, np.asarray(mod.cat.obj_dim))
    j = mod.n_base
    blocks = [corners[x, x] + corners[x, y] + corners[y, x] + corners[y, y]
              for x in range(j) for y in range(x + 1, j)]
    return {
        "size.L": len(mod.cat.obj_dim),
        "size.J": j,
        "size.n_max": int(np.max(np.diag(corners))),
        "size.block_dim_max": int(max(blocks, default=0)),
        "modcat.mor_blocks": int(np.count_nonzero(dims)),
        "modcat.coherence_blocks": int(np.count_nonzero(np.einsum("ars,bst->abrt", dims, dims))),
    }


# ---------------------------------------------------------------- cases


def subgroup_module(cat, group, elements):
    return module_from_subgroup(cat, Subgroup(group, elements))


def coset_module(cat, group, elements):
    return module_from_pointed(cat, Subgroup(group, elements))


class BlockDims:
    """Records the basis size of every block algebra ``block_consistency`` assembles.

    ``block_consistency`` does not return its block algebra, so its dimension
    is read here, at the ``block_structure_tensor`` call it makes.
    """

    def __init__(self):
        self.sizes: list[int] = []
        orig = qhspace.reconstruct.block_structure_tensor

        def recording(f, blocks):
            basis, tensor = orig(f, blocks)
            self.sizes.append(len(basis))
            return basis, tensor

        qhspace.reconstruct.block_structure_tensor = recording


def run_group_case(case: GroupCase, seed: int, t, blocks: BlockDims | None):
    table = t.call("grouprep.extract_irreps", extract_irreps, case.group)
    cat = t.call("tensorcat.from_group", from_group, table)
    mod = t.call("modcat.module_build", subgroup_module, cat, case.group, case.subgroup)
    t.call("modcat.dims", getattr, mod, "dims")
    cert = t.call("verify.run_suite", run_suite, cat, mod, seed=seed)
    t.count("certificate.checks", len(cert.checks))
    expect_passed(cert, "run_suite")
    index = case.group.order // len(case.subgroup)
    for x, dx in enumerate(mod.base_dims):
        n = build_algebra(mod, x).dim
        expect(n == index * dx * dx, f"algebra at base {x} has dimension {n}, oracle {index * dx * dx}")
    if case.corners:
        run_corners(case, cat, mod, index, seed, t, blocks)
    return mod


def run_corners(case: GroupCase, cat, mod, index: int, seed: int, t, blocks: BlockDims) -> None:
    j, bd = mod.n_base, mod.base_dims
    alg_dim = [build_algebra(mod, x).dim for x in range(j)]
    corner = {}
    for x in range(j):
        for y in range(j):
            bim = build_bimodule(mod, x, y)
            t.force(bim, "left_tensor", "right_tensor")
            cert = t.call("reconstruct.verify_bimodule", verify_bimodule, bim)
            t.count("certificate.checks", len(cert.checks))
            expect_passed(cert, f"bimodule ({x},{y})")
            nx, nb, ny = alg_dim[x], bim.dim, alg_dim[y]
            t.count("reconstruct.assoc_bytes_computed", assoc_bytes(nx, nx, nb, nb)
                    + assoc_bytes(nb, ny, ny, nb) + assoc_bytes(nx, nb, ny, nb))
            want = index * bd[x] * bd[y]
            expect(nb == want, f"corner ({x},{y}) has dimension {nb}, oracle {want}")
            corner[x, y] = nb
    for x in range(j):
        for y in range(x + 1, j):
            cert = t.call("reconstruct.block_consistency", block_consistency, mod, x, y)
            t.count("certificate.checks", len(cert.checks))
            expect_passed(cert, f"block algebra ({x},{y})")
            n = blocks.sizes[-1]
            t.count("reconstruct.assoc_bytes_computed", assoc_bytes(n, n, n, n))
            want = corner[x, x] + corner[x, y] + corner[y, x] + corner[y, y]
            expect(n == want, f"block algebra ({x},{y}) has dimension {n}, oracle {want}")
    triv = t.call("modcat.module_build", subgroup_module, cat, case.group, (case.group.identity,))
    t.call("modcat.dims", getattr, triv, "dims")
    mor = t.call("reconstruct.restriction_morphism", restriction_morphism, mod, triv)
    cert = t.call("reconstruct.validate_morphism", validate_morphism, mor, seed=seed)
    t.count("certificate.checks", len(cert.checks))
    expect_passed(cert, "validate_morphism")
    cert = t.call("reconstruct.verify_algebra_map", verify_algebra_map, mor)
    t.count("certificate.checks", len(cert.checks))
    expect_passed(cert, "verify_algebra_map")
    rank = next(c.value for c in cert.checks if c.name == "injective")
    expect(rank == alg_dim[0], f"restriction map has rank {rank}, oracle {alg_dim[0]}")


def run_pointed_case(case: PointedCase, seed: int, t, blocks=None):
    data = t.call("tensorcat.cocycle", PointedFusionData, case.group, case.cocycle)
    cat = t.call("tensorcat.from_pointed", from_pointed, data)
    mod = t.call("modcat.module_build", coset_module, cat, case.group, case.subgroup)
    t.call("modcat.dims", getattr, mod, "dims")
    cert = t.call("verify.run_suite", run_suite, cat, mod, seed=seed)
    t.count("certificate.checks", len(cert.checks))
    expect_passed(cert, "run_suite")
    for r in range(mod.n_base):
        n, k = build_algebra(mod, r).dim, len(case.subgroup)
        expect(n == k, f"coset algebra at base {r} has dimension {n}, oracle |K| = {k}")
    return mod


def run_case(case_id: str, t, fn, *args) -> CaseResult:
    """The gate: any exception or failed expectation marks the case failed."""
    res = CaseResult(case_id)
    t.case = case_id
    start = time.monotonic()
    try:
        res.module = fn(*args)
    except Exception:  # a failing case is recorded, and the pass goes on
        res.ok = False
        res.error = traceback.format_exc()
    res.seconds = time.monotonic() - start
    return res


# ---------------------------------------------------------------- the CLI


def count_checks(stdout_path: str, argv: list[str]) -> int:
    """Number of certificate checks a ``qhs`` command printed or wrote."""
    if "--format" in argv:
        with open(argv[argv.index("--out") + 1]) as fh:
            return len(json.load(fh)["checks"])
    with open(stdout_path) as fh:
        return sum(1 for line in fh if line.startswith(("  [PASS]", "  [FAIL]")))


def run_qhs(argv: list[str], root: str, out: str, number: int, t) -> int:
    """Run one ``qhs`` process to completion and return its exit code.

    Untraced, this is ``python -m qhspace.cli``.  Traced, ``qhs_traced.py``
    runs the same ``main`` with spans and hands them back through a file.
    """
    stdout_path = os.path.join(out, f"{number}.stdout")
    with open(stdout_path, "w") as stdout, open(os.path.join(out, f"{number}.stderr"), "w") as stderr:
        if not t.traced:
            proc = subprocess.run([sys.executable, "-m", "qhspace.cli", *argv], cwd=root,
                                  stdout=stdout, stderr=stderr, timeout=120)
            return proc.returncode
        spans_path = os.path.join(out, f"{number}.spans.json")
        spawned = time.monotonic()
        tracer_argv = [sys.executable, os.path.join(HERE, "qhs_traced.py"),
                       "--spans-out", spans_path, "--spawned-at", repr(spawned)]
        if t.memory:
            tracer_argv.append("--memory")
        proc = subprocess.run([*tracer_argv, "--", *argv], cwd=root,
                              stdout=stdout, stderr=stderr, timeout=120)
        done = time.monotonic()
    with open(spans_path) as fh:
        child = json.load(fh)
    t.adopt(child["spans"])
    t.adopt([{"id": 0, "name": "cli.exit", "start": child["main_end"], "end": done,
              "parent": None, "case": t.case}])
    for name, value in child["counts"].items():
        t.count(name, value)
    if proc.returncode == 0:
        t.count("certificate.checks", count_checks(stdout_path, argv))
    t.cli_sizes.append(child["sizes"])
    return proc.returncode


def run_command(cmd: CliCommand, inputs: CliInputs, seed: int, t, out: str, number: int) -> None:
    argv = [a.replace("{out}", out) for a in cmd.argv] + ["--seed", str(seed)]
    code = run_qhs(argv, inputs.root, out, number, t)
    if code != 0:
        with open(os.path.join(out, f"{number}.stderr")) as fh:
            tail = fh.read()[-500:]
        raise GateFailure(f"qhs exited with {code}: {tail}")
    if cmd.check is not None:
        cmd.check(out)


# ---------------------------------------------------------------- passes


def run_pass(workload: str, inputs, seed: int, t, out: str) -> list[CaseResult]:
    """Run every case of the workload once, in order, through the gate."""
    if workload == "cli_projects":
        jobs = [(cmd.id, run_command, (cmd, inputs, seed, t, out, k))
                for k, cmd in enumerate(inputs.commands)]
    else:
        blocks = BlockDims() if workload == "corners" else None
        runner = run_pointed_case if workload == "pointed_ladder" else run_group_case
        jobs = [(case.id, runner, (case, seed, t, blocks)) for case in inputs]
    return [run_case(case_id, t, fn, *args) for case_id, fn, args in jobs]


def work_counts(results: list[CaseResult], t) -> dict:
    """Per-layer work counts of a traced pass: sizes are maxima, the rest sums."""
    out = {name: 0 for name in SIZE_COUNTS}
    out.update(t.counts)
    sizes = [module_sizes(r.module) for r in results if r.module is not None]
    sizes += [s for s in t.cli_sizes if s]
    for s in sizes:
        for name, value in s.items():
            out[name] = max(out[name], value) if name in SIZE_COUNTS else out[name] + value
    out["reconstruct.tensor_nnz"] += sum(int(np.count_nonzero(a.tensor)) for a in t.algebras)
    return out


def selfcheck(seed: int, root: str, out: str) -> dict:
    """Show that the gate is live: two injected faults must count as failed cases.

    A cocycle array with one entry flipped in sign must be refused, and a
    tampered copy of a shipped project must make ``qhs validate`` exit 2.
    """
    rng = np.random.default_rng(seed)
    om = standard_cocycle(4)
    g, h, k = (int(v) for v in rng.integers(1, 4, size=3))
    om[g, h, k] = -om[g, h, k]
    flipped = PointedCase(f"Z4 cocycle flipped at ({g},{h},{k})", cyclic_group(4), om, (0,))

    with open(os.path.join(root, "projects", "s3_subgroup.qhs.json")) as fh:
        doc = json.load(fh)
    section = ("group", "irreps", "module")[int(rng.integers(3))]
    if section == "group":
        table = doc["sections"]["group"]["mult_table"]
        table[1], table[2] = table[2], table[1]
    else:
        doc["sections"][section]["seed"] += 1
    tampered = os.path.join(out, "tampered.qhs.json")
    with open(tampered, "w") as fh:
        json.dump(doc, fh)
    cli = CliInputs(root, [CliCommand(f"validate s3_subgroup tampered in {section}",
                                      ["validate", tampered])])

    t = NullTracer()
    results = [
        run_case(flipped.id, t, run_pointed_case, flipped, seed, t),
        run_case(cli.commands[0].id, t, run_command, cli.commands[0], cli, seed, t, out, 0),
    ]
    caught = [
        not results[0].ok and "CocycleError" in results[0].error,
        not results[1].ok and "qhs exited with 2:" in results[1].error,
    ]
    return {
        "faults": [r.id for r in results],
        "failed": sum(not r.ok for r in results),
        "caught": sum(caught),
        "ok": all(caught),
    }
