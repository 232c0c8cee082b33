"""Seeded workloads: rounds of `intertwine` command lines and their inputs.

Each workload is a function that draws one round of jobs from a numpy
generator.  A job is one `cli.main(argv)` call; the program sees only the
argv and the JSON input files written here.  Next to the argv every job
carries the benchmark's own description of the problem (`truth`), from
which `checks.py` recomputes what the outputs must be.  The models are
written out again here from the paper, not imported from the program.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.linalg

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)

QUANTUM = "quantum-dimer"
CLASSICAL = "classical-dimer"

# |det G_F - (tr G_F / 2)^2| below which a dimer point counts as on the
# EP boundary; drawn parameters keep this far clear of it.
PHASE_MARGIN = 0.02

SCAN_SHAPE = (11, 6)  # gamma/J points x JT points
SPECTRAL_DIM = 16


@dataclass
class Job:
    kind: str  # static | floquet | trace | scan | verify
    argv: list[str]
    out: Path | None
    truth: dict = field(default_factory=dict)
    # name of the check that fails, every time, because of a known fault
    known_fault: str | None = None


# ---------------------------------------------------------------------------
# the two dimers, from the paper's definitions (J = 1 throughout)


def dimer_hamiltonian(model: str, gj: float, sign: float = 1.0) -> np.ndarray:
    coupling = SX if model == QUANTUM else SY
    return coupling + 1j * sign * gj * SZ


def dimer_propagator(model: str, gj, jt) -> np.ndarray:
    """One-period propagator; gj and jt broadcast, result has shape (..., 2, 2).

    Quantum dimer: square wave, +gamma for the first half period, -gamma
    for the second.  Classical dimer: kicks exp(-gamma T sz) at T/2 and
    exp(+gamma T sz) at the end of the period, free evolution between.
    """
    gj, jt = np.broadcast_arrays(np.asarray(gj, float), np.asarray(jt, float))
    g = gj[..., None, None]
    t = jt[..., None, None]
    if model == QUANTUM:
        first = scipy.linalg.expm(-0.5j * t * (SX + 1j * g * SZ))
        second = scipy.linalg.expm(-0.5j * t * (SX - 1j * g * SZ))
        return second @ first
    free = scipy.linalg.expm(-0.5j * t * SY)
    kick = g * t * SZ
    return scipy.linalg.expm(kick) @ free @ scipy.linalg.expm(-kick) @ free


def discriminant(gf: np.ndarray) -> np.ndarray:
    """det G_F - (tr G_F / 2)^2: > 0 PT-symmetric, < 0 PT-broken (2x2 only)."""
    half_trace = 0.5 * (gf[..., 0, 0] + gf[..., 1, 1])
    return (np.linalg.det(gf) - half_trace**2).real


def draw_floquet_point(rng, model: str, symmetric: bool, periods: int = 1):
    """(gamma/J, JT) in the requested PT phase, clear of the EP boundary.

    The largest multiplier to the power `periods` stays below 1e6.
    Between about 1e8 and 1e9 the program
    drops a multiplier and reports N^2 - 1 operators; drawn points stay
    below that, so whether a job fails does not depend on the seed, and
    `dimer_cli_round` runs the fault at a fixed point instead.
    """
    while True:
        gj = float(rng.uniform(0.05, 2.0))
        jt = float(rng.uniform(0.3, 3.0))
        gf = dimer_propagator(model, gj, jt)
        d = float(discriminant(gf))
        largest = np.max(np.abs(np.linalg.eigvals(gf))) ** 2
        if abs(d) >= PHASE_MARGIN and (d > 0) == symmetric and periods * np.log10(largest) <= 6:
            return gj, jt


def draw_static_gamma(rng, symmetric: bool) -> float:
    """gamma/J below (symmetric) or above (broken) the static EP at gamma = J."""
    return float(rng.uniform(0.1, 0.85) if symmetric else rng.uniform(1.15, 2.0))


# ---------------------------------------------------------------------------
# random PT-symmetric inputs for the N=16 workload


def random_pt_symmetric(rng, n: int) -> np.ndarray:
    """H with P conj(H) P = H for the exchange parity P, entries of order 1/2."""
    a = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / 2
    p = np.fliplr(np.eye(n))
    return a + p @ a.conj() @ p


def _well_separated(w: np.ndarray, v: np.ndarray, gap: float, max_cond: float) -> bool:
    d = np.abs(w[:, None] - w[None, :])
    np.fill_diagonal(d, np.inf)
    return bool(np.min(d) >= gap and np.linalg.cond(v) <= max_cond)


def draw_static_matrix(rng, n: int) -> np.ndarray:
    """Random PT-symmetric H away from exceptional points.

    Kept only if its eigenvalues are pairwise separated, its eigenvector
    matrix is well conditioned, and every eigenvalue is either real or
    clearly complex; near-real complex pairs sit next to an EP.
    """
    while True:
        h = random_pt_symmetric(rng, n)
        w, v = np.linalg.eig(h)
        s = np.linalg.norm(h)
        im = np.abs(w.imag)
        if not np.all((im <= 1e-10 * s) | (im >= 1e-2 * s)):
            continue
        if _well_separated(w, v, 2e-2 * s, 1e3):
            return h


def schedule_propagator(segments) -> np.ndarray:
    """Time-ordered product of exp(-i h t) over (t, h) segments, earliest first."""
    gf = np.eye(segments[0][1].shape[0], dtype=complex)
    for t, h in segments:
        gf = scipy.linalg.expm(-1j * t * h) @ gf
    return gf


def draw_schedule(rng, n: int):
    """Two PT-symmetric segments whose propagator is far from any EP.

    The multipliers conj(k_a) k_b of a pair that is not a conserved pair
    must stay clear of 1, so the unit-multiplier count is unambiguous.
    """
    while True:
        segments = [(float(rng.uniform(0.15, 0.35)), random_pt_symmetric(rng, n)) for _ in range(2)]
        gf = schedule_propagator(segments)
        k, v = np.linalg.eig(gf)
        if not _well_separated(k, v, 2e-2 * np.max(np.abs(k)), 1e3):
            continue
        lam = np.conj(k)[:, None] * k[None, :]
        near_one = np.abs(lam - 1.0)
        unit = near_one <= 1e-10
        if np.count_nonzero(unit) == n and np.all(unit | (near_one >= 1e-2)):
            return segments, gf


# ---------------------------------------------------------------------------
# JSON encoding of program inputs


def encode_matrix(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def write_json(path: Path, obj) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj))
    return path


def _psi0_arg(psi: np.ndarray) -> str:
    return ";".join(f"{float(z.real)!r},{float(z.imag)!r}" for z in psi)


def _random_state(rng, n: int) -> np.ndarray:
    psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return psi / np.linalg.norm(psi)


# ---------------------------------------------------------------------------
# job builders


def static_dimer(model: str, gj: float, out: Path, known_fault: str | None = None) -> Job:
    return Job(
        "static",
        ["static", "--model", model, "--gamma", repr(gj), "--out", str(out)],
        out,
        {"h": dimer_hamiltonian(model, gj), "dimer_gamma": gj},
        known_fault=known_fault,
    )


def floquet_dimer(model: str, gj: float, jt: float, out: Path, known_fault: str | None = None) -> Job:
    return Job(
        "floquet",
        ["floquet", "--model", model, "--gamma", repr(gj), "--JT", repr(jt), "--out", str(out)],
        out,
        {"gf": dimer_propagator(model, gj, jt), "two_by_two": True},
        known_fault=known_fault,
    )


def trace_dimer(rng, model: str, gj: float, jt: float, periods: int, steps: int,
                formats: str, out: Path) -> Job:
    psi0 = _random_state(rng, 2)  # repr() in the argv round-trips exactly
    return Job(
        "trace",
        ["trace", "--model", model, "--gamma", repr(gj), "--JT", repr(jt),
         f"--psi0={_psi0_arg(psi0)}", "--periods", str(periods), "--steps-per-period", str(steps),
         "--format", formats, "--out", str(out)],
        out,
        {"gf": dimer_propagator(model, gj, jt), "psi0": psi0, "periods": periods,
         "steps": steps, "formats": set(formats.split(","))},
    )


def scan_job(model: str, gammas: tuple, jts: tuple, out: Path) -> Job:
    """`scan` over linspace(*gammas) x linspace(*jts), each a (lo, hi, n) triple."""
    grid = ",".join(f"{lo!r}:{hi!r}:{n}" for lo, hi, n in (gammas, jts))
    return Job(
        "scan",
        ["scan", "--model", model, "--grid", grid, "--out", str(out)],
        out,
        {"model": model, "gammas": np.linspace(*gammas), "jts": np.linspace(*jts)},
    )


# ---------------------------------------------------------------------------
# workloads: each returns one round of jobs; every round has the same shape


COUNT_FAULT = "operator-count"
# Classical dimer, PT-broken, max|lambda| = 2.2e8: the program reports
# three operators, dropping the multiplier 1/max|lambda| as a unit one.
FLOQUET_FAULT_POINT = (1.6, 3.0)


def dimer_cli_round(rng, rdir: Path) -> list[Job]:
    jobs = []
    ng, nt = SCAN_SHAPE
    for model in (QUANTUM, CLASSICAL):
        for symmetric in (True, False):
            jobs.append(static_dimer(model, draw_static_gamma(rng, symmetric), rdir / f"j{len(jobs)}"))
            gj, jt = draw_floquet_point(rng, model, symmetric)
            jobs.append(floquet_dimer(model, gj, jt, rdir / f"j{len(jobs)}"))
        gj, jt = draw_floquet_point(rng, model, bool(rng.integers(2)), 4)
        jobs.append(trace_dimer(rng, model, gj, jt, 4, 25, "csv,json,gnuplot", rdir / f"j{len(jobs)}"))
        g0 = float(rng.uniform(0.0, 0.2))
        g1 = g0 + float(rng.uniform(1.6, 2.0))
        t0 = float(rng.uniform(0.3, 0.6))
        t1 = t0 + float(rng.uniform(2.0, 2.4))
        jobs.append(scan_job(model, (g0, g1, ng), (t0, t1, nt), rdir / f"j{len(jobs)}"))
    jobs.append(Job("verify", ["verify"], None))
    # At gamma = J the program reports five operators where N^2 = 4 exist.
    for model in (QUANTUM, CLASSICAL):
        jobs.append(static_dimer(model, 1.0, rdir / f"j{len(jobs)}", known_fault=COUNT_FAULT))
    jobs.append(floquet_dimer(CLASSICAL, *FLOQUET_FAULT_POINT, rdir / f"j{len(jobs)}",
                              known_fault=COUNT_FAULT))
    return jobs


def spectral_round(rng, rdir: Path) -> list[Job]:
    n = SPECTRAL_DIM
    h = draw_static_matrix(rng, n)
    segments, gf = draw_schedule(rng, n)
    schedule = {
        "dim": n,
        "events": [{"segment": {"duration": t, "h": encode_matrix(m)}} for t, m in segments],
    }
    return [
        Job(
            "static",
            ["static", "--input", str(write_json(rdir / "h.json", {"matrix": encode_matrix(h)})),
             "--out", str(rdir / "j0")],
            rdir / "j0",
            {"h": h},
        ),
        Job(
            "floquet",
            ["floquet", "--input", str(write_json(rdir / "schedule.json", schedule)),
             "--out", str(rdir / "j1")],
            rdir / "j1",
            {"gf": gf, "two_by_two": False},
        ),
    ]


WORKLOADS = {
    "dimer-cli": dimer_cli_round,
    "spectral-n16": spectral_round,
}
