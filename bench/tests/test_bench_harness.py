"""Tests of the benchmark itself: smoke runs and checks that reject bad output.

Every correctness check in checks.py is fed one deliberately corrupted
output and must reject it by name, so that no check is vacuous.
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run as bench  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def program():
    return bench.import_program()


# ---------------------------------------------------------------------------
# smoke runs: one traced round of every workload, outputs checked


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_workload_smoke(name, program, tmp_path):
    tracer = spans.Tracer()
    tracer.install(program)
    try:
        run = bench.Run(name, seed=7, seconds=0, workdir=tmp_path)
        run.go(program.cli)
    finally:
        tracer.uninstall()
    correct, failed = run.check()
    assert correct
    assert failed == sum(job.known_fault is not None for job in run.jobs)
    stats = spans.LayerStats(tracer)
    values = {m["name"]: bench.per_layer(run, stats, m["name"]) for m in SPEC["per_layer"]}
    assert all(math.isfinite(v) and v >= 0 for v in values.values())
    assert values["cli.self_s"] > 0 and values["cli.bytes_written"] > 0
    expected = {
        "dimer-cli": ["selfcheck.run_all.total_s", "floquet.propagator.calls_per_point",
                      "floquet.evolve_trace.self_s"],
        "spectral-n16": ["liouville.eigen_operators.total_s"],
    }[name]
    assert all(values[metric] > 0 for metric in expected)
    if name == "spectral-n16":
        assert values["linalg.eig.max_dim"] == wl.SPECTRAL_DIM**2
    if name == "dimer-cli":
        # spans of the scan pool threads hang under run_scan, not under cli.main
        s = tracer.spans()
        ids = s["ids"].tolist()
        label = dict(zip(ids, np.array(tracer.labels)[s["names"]]))
        parent = dict(zip(ids, s["parents"].tolist()))
        start = dict(zip(ids, s["starts"].tolist()))
        scans = [(start[k], e) for k, e in zip(ids, s["ends"].tolist()) if label[k] == "cli.run_scan"]

        def ancestors(sid):
            while parent[sid] in label:
                sid = parent[sid]
                yield label[sid]

        in_scans = [sid for sid, name in label.items() if name.startswith("floquet.")
                    and any(a <= start[sid] <= b for a, b in scans)]
        assert in_scans and all("cli.run_scan" in ancestors(sid) for sid in in_scans)


def test_pool_time_is_not_self_time_of_the_waiting_span():
    tracer = spans.Tracer()
    leaf = tracer._wrap("floquet.leaf", lambda: time.sleep(0.05))

    def scan():
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(lambda _: leaf(), range(4)))

    tracer._wrap("cli.main", tracer._wrap("cli.run_scan", scan))()
    stats = spans.LayerStats(tracer)
    assert stats.total_s["cli.run_scan"] >= 0.1
    assert stats.self_s["floquet.leaf"] >= 0.2
    assert stats.module_self_s("cli") < 0.05


def test_wrappers_are_removed(program):
    original = program.linalg.eig
    tracer = spans.Tracer()
    tracer.install(program)
    assert program.liouville.eig is program.linalg.eig is not original
    tracer.uninstall()
    assert program.liouville.eig is original and program.cli.eig is original


def test_self_time_counts_overlapping_children_once():
    s = {
        "ids": np.array([0, 1, 2, 3]),
        "parents": np.array([-1, 0, 0, 1]),
        "starts": np.array([0.0, 1.0, 2.0, 1.5]),
        "ends": np.array([10.0, 4.0, 6.0, 2.5]),
    }
    assert np.allclose(spans.self_times(s), [5.0, 2.0, 4.0, 1.0])


def test_command_prints_result_line():
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "dimer-cli", "--seed", "3",
         "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=bench.ROOT,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "dimer-cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path, env={"PATH": "/usr/bin:/bin"},
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout


# ---------------------------------------------------------------------------
# real outputs, made once, then corrupted one at a time


def _run(program, job):
    _, code, stdout, _ = bench.execute(program.cli, job)
    checks.check_job(job, code, stdout)
    return job, stdout


@pytest.fixture(scope="module")
def outputs(program, tmp_path_factory):
    base = tmp_path_factory.mktemp("outputs")
    rng = np.random.default_rng(11)
    h4 = wl.draw_static_matrix(rng, 4)
    segments, gf4 = wl.draw_schedule(rng, 4)
    h_path = wl.write_json(base / "h4.json", {"matrix": wl.encode_matrix(h4)})
    sched_path = wl.write_json(base / "s4.json", {
        "dim": 4,
        "events": [{"segment": {"duration": t, "h": wl.encode_matrix(m)}} for t, m in segments],
    })
    jobs = {
        "static-dimer": wl.static_dimer(wl.QUANTUM, 0.5, base / "sd"),
        "static-n4": wl.Job("static", ["static", "--input", str(h_path), "--out", str(base / "s4")],
                            base / "s4", {"h": h4}),
        "floquet-dimer": wl.floquet_dimer(wl.CLASSICAL, 0.4, 1.3, base / "fd"),
        "floquet-n4": wl.Job("floquet", ["floquet", "--input", str(sched_path), "--out", str(base / "f4")],
                             base / "f4", {"gf": gf4, "two_by_two": False}),
        "trace": wl.trace_dimer(rng, wl.QUANTUM, 0.5, 1.0, 6, 10, "csv,json,gnuplot", base / "tr"),
        "scan-quantum": wl.scan_job(wl.QUANTUM, (0.0, 2.0, 11), (0.5, 3.0, 6), base / "sq"),
        "scan-classical": wl.scan_job(wl.CLASSICAL, (0.0, 2.0, 11), (1.0, 2.8, 6), base / "sc"),
        "verify": wl.Job("verify", ["verify"], None),
    }
    return {name: _run(program, job) for name, job in jobs.items()}


def corrupt(outputs, name, tmp_path, edit):
    """Copy a job's outputs, apply `edit(out_dir)`, return the job pointed at the copy."""
    job, _ = outputs[name]
    out = tmp_path / name
    shutil.copytree(job.out, out)
    edit(out)
    return dataclasses.replace(job, out=out)


def edit_json(filename, change):
    def edit(out):
        path = out / filename
        obj = json.loads(path.read_text())
        change(obj)
        path.write_text(json.dumps(obj))
    return edit


def edit_csv(filename, row, col, value):
    def edit(out):
        path = out / filename
        lines = path.read_text().splitlines()
        fields = lines[row + 1].split(",")
        fields[col] = value(fields[col])
        lines[row + 1] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
    return edit


def bump(x):
    return repr(float(x) + 1e-3 * max(1.0, abs(float(x))))


def rate_plus(delta):
    def change(rep):
        rep["operators"][-1]["rate"][1] += delta
    return change


def matrix_plus(rep):
    rep["operators"][-1]["matrix"][0][1][0] += 1e-3


def drop_last(rep):
    rep["operators"].pop()


def duplicate(rep):
    rep["operators"][-1] = rep["operators"][-2]


def flip(key, a, b):
    def change(rep):
        rep[key] = b if rep[key] == a else a
    return change


def first_kappa_plus(rep):
    rep["kappa"][0][0] += 1e-3


def first_eigenvalue_plus(rep):
    rep["hamiltonian_eigenvalues"][0][0] += 1e-3


def propagator_plus(rep):
    rep["propagator"][0][0][0] += 1e-6


def conserved_plus(rep):
    rep["conserved_count"] += 1


def trace_multiplier_plus(rep):
    rep["multipliers"][-1][1] += 1e-3


def add_failure(rep):
    rep["failures"].append({"gamma_over_j": 0.0, "jt": 1.0, "error": "x"})


def drop_contour(out):
    lines = (out / "contour.csv").read_text().splitlines()
    (out / "contour.csv").write_text("\n".join(lines[:-1]) + "\n")
    edit_json("scan_report.json", lambda rep: rep["contour"].pop())(out)


def nan_in_dat(out):
    path = out / "trace_eta3.dat"
    lines = path.read_text().splitlines()
    lines[5] = " ".join(["nan"] + lines[5].split()[1:])
    path.write_text("\n".join(lines) + "\n")


def first_clear_scan_row(outputs, name):
    job, _ = outputs[name]
    rows = checks.read_csv(job.out / "scan_grid.csv")
    gf = wl.dimer_propagator(job.truth["model"], float(rows[5][0]), float(rows[5][1]))
    assert abs(wl.discriminant(gf)) > 1e-3
    return 5


def strobe_row(outputs):
    """A stroboscopic row (period 3) of the third operator in trace.csv."""
    job, _ = outputs["trace"]
    n_times = job.truth["periods"] * job.truth["steps"] + 1
    return 2 * n_times + 3 * job.truth["steps"]


CORRUPTIONS = [
    ("static-dimer", edit_json("static_report.json", drop_last), "operator-count"),
    ("static-dimer", edit_json("static_report.json", duplicate), "span"),
    ("static-dimer", edit_json("static_report.json", rate_plus(1e-3)), "closed-form-rates"),
    ("static-n4", edit_json("static_report.json", rate_plus(1e-3)), "rates"),
    ("static-n4", edit_json("static_report.json", first_eigenvalue_plus), "eigenvalues"),
    ("static-n4", edit_json("static_report.json", matrix_plus), "eigen-relation"),
    ("static-n4", edit_json("static_report.json", conserved_plus), "conserved-count"),
    ("static-dimer", edit_json("static_report.json", flip("pt_phase", "symmetric", "broken")), "phase"),
    ("static-n4", edit_csv("liouvillian_spectrum.csv", 3, 2, bump), "spectrum-csv-computed"),
    ("static-n4", edit_csv("liouvillian_spectrum.csv", 3, 4, bump), "spectrum-csv-predicted"),
    ("floquet-dimer", edit_json("floquet_report.json", propagator_plus), "propagator"),
    ("floquet-n4", edit_json("floquet_report.json", first_kappa_plus), "kappa"),
    ("floquet-dimer", edit_json("floquet_report.json", flip("phase", "symmetric", "broken")), "phase"),
    ("floquet-n4", edit_json("floquet_report.json", drop_last), "operator-count"),
    ("floquet-n4", edit_json("floquet_report.json", duplicate), "span"),
    ("floquet-dimer", edit_json("floquet_report.json", rate_plus(1e-3)), "multipliers"),
    ("floquet-n4", edit_json("floquet_report.json", matrix_plus), "multiplier-relation"),
    ("floquet-dimer", edit_csv("floquet_multipliers.csv", 2, 1, bump), "multipliers-csv"),
    ("trace", edit_json("trace_report.json", trace_multiplier_plus), "multipliers"),
    ("trace", edit_csv("trace.csv", 7, 2, lambda _: "nan"), "finite"),
    ("trace", nan_in_dat, "finite"),
    ("trace", lambda out: (out / "trace.gp").unlink(), "gnuplot"),
    ("static-n4", lambda out: (out / "liouvillian_spectrum.csv").unlink(), "unreadable"),
    ("scan-classical", edit_json("scan_report.json", add_failure), "failures"),
    ("scan-quantum", drop_contour, "contour-count"),
    ("scan-classical", drop_contour, "contour-count"),
    ("scan-quantum", edit_csv("contour.csv", 0, 0, bump), "contour"),
    ("scan-classical", edit_csv("contour.csv", 0, 0, bump), "contour"),
    ("scan-classical", edit_csv("contour.csv", 0, 2, bump), "contour-analytic"),
]


@pytest.mark.parametrize("name,edit,check", CORRUPTIONS, ids=[f"{n}-{c}" for n, _, c in CORRUPTIONS])
def test_check_rejects_corruption(outputs, tmp_path, name, edit, check):
    job = corrupt(outputs, name, tmp_path, edit)
    with pytest.raises(checks.CheckFailure) as info:
        checks.check_job(job, 0, "")
    assert info.value.check == check


@pytest.mark.parametrize("col,check", [(2, "stroboscopic-law"), (5, "reference")])
def test_trace_law_rejects_corruption(outputs, tmp_path, col, check):
    job = corrupt(outputs, "trace", tmp_path, edit_csv("trace.csv", strobe_row(outputs), col, bump))
    with pytest.raises(checks.CheckFailure) as info:
        checks.check_job(job, 0, "")
    assert info.value.check == check


@pytest.mark.parametrize("name", ["scan-quantum", "scan-classical"])
@pytest.mark.parametrize("col,value,check", [
    (2, lambda p: "broken" if p == "symmetric" else "symmetric", "phase"),
    (3, bump, "kappa-ratio"),
])
def test_scan_grid_rejects_corruption(outputs, tmp_path, name, col, value, check):
    row = first_clear_scan_row(outputs, name)
    job = corrupt(outputs, name, tmp_path, edit_csv("scan_grid.csv", row, col, value))
    with pytest.raises(checks.CheckFailure) as info:
        checks.check_job(job, 0, "")
    assert info.value.check == check


@pytest.mark.parametrize("head,tail", [(["[FAIL] injected"], []), ([], ["11/12 checks passed"])])
def test_verify_rejects_failed_suite(outputs, head, tail):
    job, stdout = outputs["verify"]
    lines = stdout.strip().splitlines()
    bad = "\n".join(head + (lines[:-1] + tail if tail else lines))
    with pytest.raises(checks.CheckFailure) as info:
        checks.check_job(job, 0, bad)
    assert info.value.check == "verify"


def test_nonzero_exit_is_rejected(outputs):
    job, stdout = outputs["verify"]
    with pytest.raises(checks.CheckFailure) as info:
        checks.check_job(job, 3, stdout)
    assert info.value.check == "exit"


def test_known_fault_is_failed_not_wrong(outputs, tmp_path):
    """Only the named fault on the job that names it counts as failed and correct."""
    job, _ = outputs["static-dimer"]
    dropped = corrupt(outputs, "static-dimer", tmp_path / "a", edit_json("static_report.json", drop_last))
    perturbed = corrupt(outputs, "static-dimer", tmp_path / "b", edit_json("static_report.json", matrix_plus))
    run = bench.Run("dimer-cli", 0, 0, tmp_path)
    run.jobs = [dataclasses.replace(dropped, known_fault=wl.COUNT_FAULT), job]
    run.results = [(0.0, 0, "", "")] * 2
    assert run.check() == (True, 1)
    run.jobs = [dataclasses.replace(perturbed, known_fault=wl.COUNT_FAULT)]
    run.results = [(0.0, 0, "", "")]
    assert run.check() == (False, 1)
