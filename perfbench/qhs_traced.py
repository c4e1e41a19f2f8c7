"""One ``qhs`` command with spans, for the traced passes of ``cli_projects``.

    python perfbench/qhs_traced.py --spans-out FILE --spawned-at T [--memory] -- ARGS...

Makes the same calls as ``python -m qhspace.cli ARGS...``, with spans around
the names that ``qhspace.cli``, ``qhspace.project_io`` and ``qhspace.verify``
bind, and writes the spans and work counts to FILE.  ``--spawned-at`` is the
monotonic time at which the parent started this process, so that the
``cli.import`` span covers interpreter start plus ``import qhspace.cli``.
"""

import argparse
import json
import sys
import time
import tracemalloc

from tracing import MB, Tracer


def main() -> int:
    sep = sys.argv.index("--")
    parser = argparse.ArgumentParser()
    parser.add_argument("--spans-out", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--memory", action="store_true")
    opts = parser.parse_args(sys.argv[1:sep])
    if opts.memory:
        tracemalloc.start()

    import qhspace.cli as cli
    import qhspace.project_io as project_io
    import qhspace.verify

    t = Tracer(memory=opts.memory)
    imported = {"id": 0, "name": "cli.import", "start": opts.spawned_at, "end": time.monotonic(),
                "parent": None, "case": None}
    if opts.memory:
        imported["peak_mb"] = tracemalloc.get_traced_memory()[1] / MB
    t.spans.append(imported)

    projects = []
    t.wrap_suite(qhspace.verify)
    t.wrap(cli, "load_project", "project_io.load_project", hook=lambda p, *a: projects.append(p))
    t.wrap(cli, "run_suite", "verify.run_suite")
    t.wrap(cli, "verify_presentation", "tensorcat.verify_presentation")
    t.wrap(cli, "validate_module", "modcat.validate_module")
    t.wrap(cli, "build_algebra", None, hook=t.on_algebra)
    t.wrap(cli, "validate_morphism", "reconstruct.validate_morphism")
    t.wrap(cli, "verify_algebra_map", "reconstruct.verify_algebra_map")
    t.wrap(project_io, "extract_irreps", "grouprep.extract_irreps")
    t.wrap(project_io.tensorcat, "from_group", "tensorcat.from_group")
    t.wrap(project_io.tensorcat, "from_pointed", "tensorcat.from_pointed")
    t.wrap(project_io.tensorcat, "PointedFusionData", "tensorcat.cocycle")
    for name in ("module_from_subgroup", "module_from_pointed"):
        t.wrap(project_io, name, "modcat.module_build",
               hook=lambda mod, *a: t.call("modcat.dims", getattr, mod, "dims"))
    t.wrap(project_io, "restriction_morphism", "reconstruct.restriction_morphism")

    code = t.call("cli.main", cli.main, sys.argv[sep + 1:])
    main_end = time.monotonic()

    import numpy as np
    from workloads import module_sizes

    module = projects[0].module if projects else None
    t.count("reconstruct.tensor_nnz", sum(int(np.count_nonzero(a.tensor)) for a in t.algebras))
    with open(opts.spans_out, "w") as fh:
        json.dump({
            "spans": t.records(),
            "counts": t.counts,
            "sizes": module_sizes(module) if module is not None else None,
            "main_end": main_end,
        }, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
