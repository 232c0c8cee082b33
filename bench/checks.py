"""Correctness checks for every job kind.

Each check recomputes what an output must be from the benchmark's own
inputs (`Job.truth`) with plain numpy/scipy, or tests a property the
method must have.  Nothing is compared with a stored copy of earlier
output.  A failed check raises `CheckFailure`, whose `check` names it, so
that a known fault can be told apart from a new one.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment

from workloads import CLASSICAL, Job, discriminant, dimer_propagator

REL_TOL = 1e-8  # eigenvalues, rates and residuals, relative to the problem scale
SPAN_TOL = 1e-9  # smallest/largest singular value of the stacked operators
BOUNDARY_TOL = 1e-6  # |discriminant| below which a scan point is not judged


class CheckFailure(AssertionError):
    def __init__(self, check: str, detail: str):
        super().__init__(f"{check}: {detail}")
        self.check = check


def require(ok: bool, check: str, detail: str) -> None:
    if not ok:
        raise CheckFailure(check, detail)


def load_json(path: Path):
    with open(path) as f:
        return json.load(f)


def cplx(pair) -> complex:
    return complex(pair[0], pair[1])


def cmat(rows) -> np.ndarray:
    return np.array([[cplx(z) for z in row] for row in rows], dtype=complex)


def matching_distance(a, b) -> float:
    """Largest distance between two equally long sets under optimal matching."""
    a, b = np.asarray(a, complex), np.asarray(b, complex)
    if a.size != b.size:
        return math.inf
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(np.max(cost[rows, cols])) if a.size else 0.0


def require_match(got, want, tol: float, check: str) -> None:
    dist = matching_distance(got, want)
    require(dist <= tol, check, f"{len(got)} values vs {len(want)}, worst distance {dist:.3e} > {tol:.1e}")


# ---------------------------------------------------------------------------
# operator sets (shared by static and floquet reports)


def read_operators(report: dict) -> tuple[list[np.ndarray], np.ndarray]:
    ops = [cmat(o["matrix"]) for o in report["operators"]]
    rates = np.array([cplx(o["rate"]) for o in report["operators"]], dtype=complex)
    return ops, rates


def check_operator_count(ops: list[np.ndarray], n: int) -> None:
    require(len(ops) == n * n, "operator-count", f"{len(ops)} operators, N^2 = {n * n}")


def check_span(ops: list[np.ndarray]) -> None:
    """The operators are a basis of the N x N operator space."""
    s = np.linalg.svd(np.column_stack([op.reshape(-1) for op in ops]), compute_uv=False)
    require(s[-1] > SPAN_TOL * s[0], "span", f"singular value ratio {s[-1] / s[0]:.3e}")


def check_finite_report(report: dict) -> None:
    bad = []

    def walk(x):
        if isinstance(x, float) and not math.isfinite(x):
            bad.append(x)
        elif isinstance(x, dict):
            for v in x.values():
                walk(v)
        elif isinstance(x, list):
            for v in x:
                walk(v)

    walk(report)
    require(not bad, "finite", f"{len(bad)} non-finite numbers in the report")


# ---------------------------------------------------------------------------
# static


def static_phase(w: np.ndarray, h: np.ndarray) -> str | None:
    """Own PT-phase label from the eigenvalues of H, None when too close to call."""
    im = np.max(np.abs(w.imag)) / np.linalg.norm(h)
    if im <= 1e-12:
        return "symmetric"
    if im >= 1e-6:
        return "broken"
    return None


def check_static(job: Job) -> None:
    h = job.truth["h"]
    n = h.shape[0]
    scale = np.linalg.norm(h)
    report = load_json(job.out / "static_report.json")
    require(report["dim"] == n, "dim", f"dim {report['dim']} != {n}")
    require(np.array_equal(cmat(report["hamiltonian"]), h), "hamiltonian", "echoed H differs from the input")
    ops, rates = read_operators(report)
    check_operator_count(ops, n)
    check_span(ops)
    w = np.linalg.eigvals(h)
    predicted = -1j * (w[:, None] - np.conj(w)[None, :]).reshape(-1)
    if "dimer_gamma" in job.truth:
        delta = np.sqrt(complex(1.0 - job.truth["dimer_gamma"] ** 2))
        require_match(rates, [0, 0, 2j * delta, -2j * delta], REL_TOL * scale, "closed-form-rates")
    require_match(rates, predicted, REL_TOL * scale, "rates")
    require_match([cplx(z) for z in report["hamiltonian_eigenvalues"]], w, REL_TOL * scale, "eigenvalues")
    for k, (op, rate) in enumerate(zip(ops, rates)):
        res = np.linalg.norm(-1j * (op @ h - h.conj().T @ op) - rate * op)
        require(res <= REL_TOL * scale * np.linalg.norm(op), "eigen-relation",
                f"operator {k}: residual {res:.3e}")
    zero = int(np.count_nonzero(np.abs(predicted) <= REL_TOL * scale))
    require(report["conserved_count"] == zero, "conserved-count",
            f"{report['conserved_count']} conserved, {zero} zero rates")
    phase = static_phase(w, h)
    require(phase is None or report["pt_phase"] == phase, "phase", f"{report['pt_phase']} != {phase}")
    rows = read_csv(job.out / "liouvillian_spectrum.csv")
    require(len(rows) == n * n, "spectrum-csv", f"{len(rows)} rows")
    for cols, what in (((1, 2), "computed"), ((3, 4), "predicted")):
        got = [complex(float(r[cols[0]]), float(r[cols[1]])) for r in rows]
        require_match(got, predicted, REL_TOL * scale, f"spectrum-csv-{what}")


# ---------------------------------------------------------------------------
# floquet


def floquet_phase(kappa: np.ndarray) -> str:
    moduli = np.abs(kappa)
    return "symmetric" if np.ptp(moduli) <= 1e-9 * np.max(moduli) else "broken"


def check_floquet(job: Job) -> None:
    gf = job.truth["gf"]
    n = gf.shape[0]
    gnorm = np.linalg.norm(gf)
    report = load_json(job.out / "floquet_report.json")
    require(report["dim"] == n, "dim", f"dim {report['dim']} != {n}")
    dist = np.linalg.norm(cmat(report["propagator"]) - gf)
    require(dist <= 1e-10 * max(1.0, gnorm), "propagator", f"distance {dist:.3e} from the expm product")
    kappa = np.linalg.eigvals(gf)
    require_match([cplx(z) for z in report["kappa"]], kappa, REL_TOL * max(1.0, gnorm), "kappa")
    if job.truth["two_by_two"]:
        phase = "symmetric" if discriminant(gf) > 0 else "broken"
    else:
        phase = floquet_phase(kappa)
    require(report["phase"] == phase, "phase", f"{report['phase']} != {phase}")
    ops, lam = read_operators(report)
    check_operator_count(ops, n)
    check_span(ops)
    want = (np.conj(kappa)[:, None] * kappa[None, :]).reshape(-1)
    require_match(lam, want, REL_TOL * gnorm**2, "multipliers")
    for k, (op, mult) in enumerate(zip(ops, lam)):
        res = np.linalg.norm(gf.conj().T @ op @ gf - mult * op)
        require(res <= REL_TOL * gnorm**2 * np.linalg.norm(op), "multiplier-relation",
                f"operator {k}: residual {res:.3e}")
    rows = read_csv(job.out / "floquet_multipliers.csv")
    csv_lam = [complex(float(r[1]), float(r[2])) for r in rows]
    require(np.array_equal(csv_lam, lam), "multipliers-csv", "CSV multipliers differ from the report")


# ---------------------------------------------------------------------------
# trace


def read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    return rows[1:]


def check_trace(job: Job) -> None:
    t = job.truth
    gf, periods, steps = t["gf"], t["periods"], t["steps"]
    n = gf.shape[0]
    report = load_json(job.out / "trace_report.json")
    check_finite_report(report)
    require(report["periods"] == periods and report["steps_per_period"] == steps, "echo",
            "periods or steps differ from the command line")
    kappa = np.linalg.eigvals(gf)
    lam = np.array([cplx(z) for z in report["multipliers"]])
    require(len(report["labels"]) == n * n, "operator-count", f"{len(report['labels'])} operators")
    require_match(lam, (np.conj(kappa)[:, None] * kappa[None, :]).reshape(-1),
                  REL_TOL * np.linalg.norm(gf) ** 2, "multipliers")
    if "csv" in t["formats"]:
        check_trace_csv(job, report["labels"], lam)
    if "gnuplot" in t["formats"]:
        for label in report["labels"]:
            data = np.loadtxt(job.out / f"trace_{label}.dat", skiprows=1, ndmin=2)
            require(data.shape == (periods * steps + 1, 4) and np.all(np.isfinite(data)), "finite",
                    f"trace_{label}.dat: {data.shape} samples, finite: {np.all(np.isfinite(data))}")
        require((job.out / "trace.gp").is_file(), "gnuplot", "trace.gp missing")


def check_trace_csv(job: Job, labels: list[str], lam: np.ndarray) -> None:
    """Every field finite; stroboscopic samples follow lambda^m."""
    t = job.truth
    gf, psi0, periods, steps = t["gf"], t["psi0"], t["periods"], t["steps"]
    path = job.out / "trace.csv"
    names = np.loadtxt(path, delimiter=",", skiprows=1, usecols=1, dtype=str, ndmin=1)
    nums = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(0, 2, 3, 4, 5, 6, 7), ndmin=2)
    n_times = periods * steps + 1
    require(np.array_equal(names, np.repeat(labels, n_times)), "rows",
            f"{names.size} rows, not {n_times} for each of {len(labels)} operators")
    bad = np.nonzero(~np.all(np.isfinite(nums), axis=1))[0]
    require(bad.size == 0, "finite", f"{bad.size} rows with non-finite fields, first at row {bad[:1]}")
    shape = (len(labels), n_times)
    values = (nums[:, 1] + 1j * nums[:, 2]).reshape(shape)
    strobe = nums[:, 3].reshape(shape)
    ref = (nums[:, 4] + 1j * nums[:, 5]).reshape(shape)
    m = np.arange(periods + 1)
    at = m * steps
    require(np.all(strobe[:, at] == 1) and np.count_nonzero(strobe) == strobe[:, at].size,
            "stroboscopic-flag", "stroboscopic samples flagged wrongly")
    # ||psi_m||^2 / ||psi_0||^2 bounds the rounding error of <psi_m|eta|psi_m>
    psi = [psi0]
    for _ in range(periods):
        psi.append(gf @ psi[-1])
    growth = np.array([np.vdot(p, p).real for p in psi])
    for a, label in enumerate(labels):
        want = lam[a] ** m
        v0 = values[a, 0]
        err = np.abs(values[a, at] - want * v0)
        tol = 1e-7 * (np.abs(want * v0) + growth)
        k = int(np.argmax(err - tol))
        require(err[k] <= tol[k], "stroboscopic-law",
                f"{label} period {k}: {values[a, at][k]} vs {want[k] * v0} (tol {tol[k]:.1e})")
        err = np.abs(ref[a, at] - want)
        k = int(np.argmax(err - 1e-9 * np.maximum(1.0, np.abs(want))))
        require(err[k] <= 1e-9 * max(1.0, abs(want[k])), "reference",
                f"{label} period {k}: lambda^t {ref[a, at][k]} vs {want[k]}")


# ---------------------------------------------------------------------------
# scan


def kicked_contour_gap(gj: float, jt: float) -> float:
    """cos(JT/2) - tanh(gamma T), zero on the classical dimer's EP contour."""
    return math.cos(jt / 2) - math.tanh(gj * jt)


def check_scan(job: Job) -> None:
    model, gammas, jts = job.truth["model"], job.truth["gammas"], job.truth["jts"]
    rows = read_csv(job.out / "scan_grid.csv")
    require(len(rows) == gammas.size * jts.size, "grid", f"{len(rows)} grid rows")
    gj = np.array([float(r[0]) for r in rows])
    jt = np.array([float(r[1]) for r in rows])
    require(np.allclose(gj, np.tile(gammas, jts.size), rtol=1e-12, atol=0)
            and np.allclose(jt, np.repeat(jts, gammas.size), rtol=1e-12, atol=0),
            "grid", "grid points differ from the command line")
    gf = dimer_propagator(model, gj, jt)
    disc = discriminant(gf)
    moduli = np.abs(np.linalg.eigvals(gf))
    ratio = moduli.max(axis=1) / moduli.min(axis=1)
    clear = np.abs(disc) > BOUNDARY_TOL
    for k in np.nonzero(clear)[0]:
        want = "symmetric" if disc[k] > 0 else "broken"
        require(rows[k][2] == want, "phase",
                f"({gj[k]!r}, {jt[k]!r}) reported {rows[k][2]}, discriminant {disc[k]:.3e}")
        got = float(rows[k][3])
        require(abs(got - ratio[k]) <= 1e-8 * ratio[k], "kappa-ratio",
                f"({gj[k]!r}, {jt[k]!r}): {got!r} vs {ratio[k]!r}")
    report = load_json(job.out / "scan_report.json")
    require(not report["failures"], "failures", f"{len(report['failures'])} grid points failed")
    contour = read_csv(job.out / "contour.csv")
    require(len(contour) == len(report["contour"]), "contour", "CSV and JSON contours differ")
    for row in contour:
        cg, ct = float(row[0]), float(row[1])
        if model == CLASSICAL:
            gap = kicked_contour_gap(cg, ct)
            require(abs(gap) <= 1e-8, "contour", f"({cg!r}, {ct!r}): cos(JT/2) - tanh(gT) = {gap:.3e}")
            want = math.atanh(math.cos(ct / 2)) / ct
            require(abs(float(row[2]) - want) <= 1e-9 * want, "contour-analytic",
                    f"{row[2]} vs {want!r}")
        else:
            step = 1e-7 * max(cg, 1.0)
            lo, hi = discriminant(dimer_propagator(model, [cg - step, cg + step], ct))
            require(lo * hi <= 0, "contour", f"({cg!r}, {ct!r}) is no zero of the discriminant")
    # every sign change along a JT row has its contour point
    grid = disc.reshape(jts.size, gammas.size)
    for i, row_jt in enumerate(jts):
        if np.any(np.abs(grid[i]) <= BOUNDARY_TOL):
            continue
        crossings = int(np.count_nonzero(grid[i, :-1] * grid[i, 1:] < 0))
        found = sum(1 for r in contour if math.isclose(float(r[1]), row_jt, rel_tol=1e-12))
        require(found == crossings, "contour-count", f"JT={row_jt!r}: {found} points, {crossings} crossings")


# ---------------------------------------------------------------------------


def check_verify(stdout: str) -> None:
    lines = stdout.strip().splitlines()
    require(lines and not any(line.startswith("[FAIL]") for line in lines), "verify", "a check failed")
    passed, total = lines[-1].split()[0].split("/")
    require(passed == total and int(total) > 0, "verify", lines[-1])


CHECKS = {"static": check_static, "floquet": check_floquet, "trace": check_trace, "scan": check_scan}


def check_job(job: Job, code, stdout: str) -> None:
    """Raise CheckFailure unless the job exited 0 with correct outputs."""
    require(code == 0, "exit", f"exit code {code}")
    try:
        if job.kind == "verify":
            check_verify(stdout)
        else:
            CHECKS[job.kind](job)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        raise CheckFailure("unreadable", f"{type(exc).__name__}: {exc}") from exc
