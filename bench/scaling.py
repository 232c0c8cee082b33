#!/usr/bin/env python3
"""Per-layer N-scaling of the `static` job: one traced job per dimension.

    python3 bench/scaling.py

Each job is `intertwine static --input h.json` on a random PT-symmetric H
drawn as in the spectral-n16 workload, run under the span tracer and
checked like every benchmark job.  Prints one row per dimension with the
job's wall time and the self time of the layers that scale with N.
"""

import pin

if __name__ == "__main__":
    pin.pin_process()

import shutil  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import Job, draw_static_matrix, encode_matrix, write_json  # noqa: E402

DIMS = (4, 8, 16, 24)
SEED = 0
LABELS = (
    "linalg.eig",
    "linalg.null_space",
    "linalg.rank",
    "liouville.build_liouvillian",
    "liouville.hermitize_basis",
    "liouville.canonicalize_operator",
)


def main() -> int:
    package = run.import_program()
    workdir = run.OUT / "scaling"
    rng = np.random.default_rng(SEED)
    header = ["N", "job_s"] + [f"{label}.self_s" for label in LABELS] + ["cli.self_s"]
    print(" ".join(f"{h:>12}" if i < 2 else h for i, h in enumerate(header)))
    try:
        for n in DIMS:
            h = draw_static_matrix(rng, n)
            out = workdir / f"n{n}"
            path = write_json(workdir / f"h{n}.json", {"matrix": encode_matrix(h)})
            job = Job("static", ["static", "--input", str(path), "--out", str(out)], out, {"h": h})
            tracer = spans.Tracer()
            tracer.install(package)
            try:
                seconds, code, stdout, _ = run.execute(package.cli, job)
            finally:
                tracer.uninstall()
            checks.check_job(job, code, stdout)
            stats = spans.LayerStats(tracer)
            cells = [f"{stats.self_s.get(label, 0.0):.4f}" for label in LABELS]
            cells.append(f"{stats.module_self_s('cli'):.4f}")
            print(f"{n:>12} {seconds:>12.4f} " + " ".join(cells))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
