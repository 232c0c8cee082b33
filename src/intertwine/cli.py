"""Command-line interface.

Commands: static, floquet, trace, scan, verify.  Inputs are either a
builtin dimer model or a JSON file (complex numbers as [re, im] pairs,
matrices row-major, schedules as an ordered event list).  Outputs are
deterministic CSV/JSON plus optional gnuplot scripts.

Exit codes: 0 success, 1 config error, 2 numerical failure (including
a result that cannot be written as finite numbers), 3 verify-suite
failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import floquet as fl
from . import liouville as lv
from . import models as md
from . import selfcheck
from .linalg import (
    DEFAULT_TOL_EIG,
    DEFAULT_TOL_RANK,
    NumericalError,
    as_matrix,
    eig,  # noqa: F401  (not called here; bench/tests/test_bench_harness.py reads cli.eig)
    hs_norm,
    rank,
)


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# serialization helpers


def _require_finite(path: Path, values) -> None:
    """Refuse to write `path` when any of `values` is NaN or infinite."""
    if not np.all(np.isfinite(values)):
        raise NumericalError(f"{path}: result is not finite, file not written")


def _json_text(x, depth: int, path: Path) -> str:
    """`x` as json.dumps(x, indent=2, sort_keys=True) lays it out at nesting `depth`.

    A numpy array is written as nested lists and a complex number as an
    [re, im] pair, so the bytes equal those of the same data given as
    Python lists of floats.
    """
    if isinstance(x, np.ndarray):
        return _json_array(x, depth, path)
    if isinstance(x, complex):
        x = [x.real, x.imag]
    if isinstance(x, dict):
        items = [f"{json.dumps(k)}: {_json_text(x[k], depth + 1, path)}" for k in sorted(x)]
        return _json_block("{", items, "}", depth)
    if isinstance(x, (list, tuple)):
        return _json_block("[", [_json_text(v, depth + 1, path) for v in x], "]", depth)
    if isinstance(x, float):
        _require_finite(path, x)
        return float.__repr__(x)
    return json.dumps(x)


def _json_block(opening: str, items: list[str], closing: str, depth: int) -> str:
    if not items:
        return opening + closing
    inner = "\n" + "  " * (depth + 1)
    return opening + inner + ("," + inner).join(items) + "\n" + "  " * depth + closing


def _json_array(a: np.ndarray, depth: int, path: Path) -> str:
    """A non-empty float or complex array, formatted one axis at a time from the innermost."""
    if np.iscomplexobj(a):
        a = np.stack((a.real, a.imag), axis=-1)
    _require_finite(path, a)
    texts = list(map(repr, a.ravel().tolist()))
    for axis in reversed(range(a.ndim)):
        n = a.shape[axis]
        inner = "\n" + "  " * (depth + axis + 1)
        layout = "[" + inner + ("%s," + inner) * (n - 1) + "%s\n" + "  " * (depth + axis) + "]"
        texts = list(map(layout.__mod__, zip(*[iter(texts)] * n)))
    return texts[0]


def _write_json(path: Path, obj) -> None:
    path.write_text(_json_text(obj, 0, path) + "\n")


def _write_table(path: Path, header: str, columns, sep: str = ",") -> None:
    """One line per row of `columns` under `header`.

    A float array column is written with repr; any other column is a
    sequence written with str.
    """
    texts = []
    for col in columns:
        if isinstance(col, np.ndarray) and col.dtype.kind == "f":
            _require_finite(path, col)
            texts.append(map(repr, col.tolist()))
        else:
            texts.append(map(str, col))
    path.write_text("\n".join([header, *map(sep.join, zip(*texts))]) + "\n")


def _parse_complex(obj) -> complex:
    if isinstance(obj, (int, float)):
        return complex(obj)
    if isinstance(obj, (list, tuple)) and len(obj) == 2:
        with contextlib.suppress(ValueError, TypeError):
            return complex(float(obj[0]), float(obj[1]))
    raise ConfigError(f"cannot parse complex entry {obj!r}; use a number or [re, im]")


def parse_matrix(obj) -> np.ndarray:
    if not isinstance(obj, list) or not obj or not all(isinstance(row, list) for row in obj):
        raise ConfigError("matrix must be a non-empty list of rows")
    rows = [[_parse_complex(z) for z in row] for row in obj]
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ConfigError("matrix rows have inconsistent lengths")
    m = np.array(rows, dtype=complex)
    if m.shape[0] != m.shape[1]:
        raise ConfigError(f"matrix must be square, got shape {m.shape}")
    return as_matrix(m)


def parse_schedule(obj) -> fl.Schedule:
    try:
        dim, raw_events = obj["dim"], obj["events"]
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"schedule JSON needs an integer 'dim' and 'events': {exc}") from exc
    # a JSON integer: not a number to truncate, a string to parse or a boolean (an int in Python)
    if not isinstance(dim, int) or isinstance(dim, bool):
        raise ConfigError(f"schedule JSON 'dim' must be an integer, got {dim!r}")
    if not isinstance(raw_events, list):
        raise ConfigError("schedule JSON 'events' must be a list")
    events = []
    for i, ev in enumerate(raw_events):
        body = ev.get("segment", ev.get("kick")) if isinstance(ev, dict) else None
        if not isinstance(body, dict):
            raise ConfigError(f"event {i}: expected an object 'segment' or 'kick'")
        if "segment" in ev:
            if "duration" not in body or "h" not in body:
                raise ConfigError(f"event {i}: segment needs 'duration' and 'h'")
            h = parse_matrix(body["h"])
            try:
                events.append(fl.Segment(float(body["duration"]), h))
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"event {i}: {exc}") from exc
        else:
            if "k" not in body:
                raise ConfigError(f"event {i}: kick needs 'k'")
            events.append(fl.Kick(parse_matrix(body["k"])))
    try:
        return fl.Schedule(dim=dim, events=events)
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc


def parse_psi0(text: str) -> np.ndarray:
    try:
        entries = [
            complex(*(float(p) for p in part.split(",")))
            for part in text.split(";")
        ]
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"cannot parse psi0 {text!r}; use 're,im;re,im;...'") from exc
    psi0 = np.array(entries, dtype=complex)
    if not np.all(np.isfinite(psi0)):
        raise ConfigError(f"psi0 {text!r} has a non-finite entry")
    if np.linalg.norm(psi0) == 0.0:
        raise ConfigError(f"psi0 {text!r} is the zero vector")
    return psi0


def parse_grid(text: str):
    try:
        gpart, tpart = text.split(",")
        glo, ghi, gn = gpart.split(":")
        tlo, thi, tn = tpart.split(":")
        gammas = np.linspace(float(glo), float(ghi), int(gn))
        jts = np.linspace(float(tlo), float(thi), int(tn))
    except ValueError as exc:
        raise ConfigError(f"cannot parse grid {text!r}; use 'gmin:gmax:n,tmin:tmax:n'") from exc
    if gammas.size < 2 or jts.size < 2:
        raise ConfigError("grid needs at least 2 points per axis")
    return gammas, jts


# ---------------------------------------------------------------------------
# config resolution


def _check_options(args) -> None:
    """Reject numerical options outside their domain, before anything is computed or written."""
    for name in ("tol_eig", "tol_rank", "tol_override"):
        value = getattr(args, name, None)
        if value is not None and not 0.0 < value < np.inf:
            raise ConfigError(f"--{name.replace('_', '-')} must be positive and finite, got {value!r}")
    for name in ("steps_per_period", "periods"):
        value = getattr(args, name, None)
        if value is not None and value < 1:
            raise ConfigError(f"--{name.replace('_', '-')} must be at least 1, got {value}")


def _model_from_args(args) -> md.Model:
    names = {m.value: m for m in md.Model}
    if args.model not in names:
        raise ConfigError(
            f"unknown model {args.model!r}; available: {', '.join(sorted(names))}"
        )
    return names[args.model]


def _waveform_from_args(args, default: md.Waveform) -> md.Waveform:
    if args.waveform is None:
        return default
    names = {w.value: w for w in md.Waveform}
    if args.waveform not in names:
        raise ConfigError(f"unknown waveform {args.waveform!r}")
    return names[args.waveform]


def _default_waveform(model: md.Model, periodic: bool) -> md.Waveform:
    if not periodic:
        return md.Waveform.STATIC
    return md.Waveform.SQUARE_WAVE if model is md.Model.QUANTUM else md.Waveform.DELTA_KICKS


def _dimer_schedule(args, model: md.Model, waveform: md.Waveform, gamma_over_j, jt) -> fl.Schedule:
    """The dimer's schedule at --J and the dimensionless gamma/J and JT."""
    if not 0.0 < args.J < np.inf:
        raise ConfigError("J must be positive and finite")
    try:
        p = md.DimerParams(J=args.J, gamma=gamma_over_j * args.J, T=jt / args.J, waveform=waveform)
        return md.build_schedule(model, p)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def resolve_schedule(args, periodic: bool) -> fl.Schedule:
    """Schedule from --model or --input; exactly one source required."""
    if (args.model is None) == (args.input is None):
        raise ConfigError("provide exactly one of --model or --input")
    if args.input is not None:
        obj = _load_json(args.input)
        if not isinstance(obj, dict):
            raise ConfigError(f"{args.input}: expected a JSON object")
        if "matrix" in obj:
            h = parse_matrix(obj["matrix"])
            try:
                return fl.Schedule(dim=h.shape[0], events=[fl.Segment(args.JT, h)])
            except ValueError as exc:
                raise ConfigError(f"--JT {args.JT!r}: {exc}") from exc
        return parse_schedule(obj)
    model = _model_from_args(args)
    waveform = _waveform_from_args(args, _default_waveform(model, periodic))
    return _dimer_schedule(args, model, waveform, args.gamma, args.JT)


def resolve_static_hamiltonian(args) -> np.ndarray:
    sched = resolve_schedule(args, periodic=False)
    segs = [ev for ev in sched.events if isinstance(ev, fl.Segment)]
    if len(segs) != 1 or len(sched.events) != 1:
        raise ConfigError("static mode needs a single-segment schedule or a raw matrix")
    return segs[0].generator


def _load_json(path: str):
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read input file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from exc


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _formats(args) -> set[str]:
    fmts = {f.strip() for f in args.format.split(",") if f.strip()}
    unknown = fmts - {"csv", "json", "gnuplot"}
    if unknown:
        raise ConfigError(f"unknown output formats: {', '.join(sorted(unknown))}")
    return fmts


def _operator_records(ops: list[lv.EigenOperator], tol_rank: float) -> list[dict]:
    ranks = rank(np.array([e.op for e in ops]), tol_rank).tolist()
    return [
        {
            "label": f"eta{i + 1}",
            "rate": e.rate,
            "hermitian": bool(e.hermitian),
            "rank": ranks[i],
            "residual": e.residual,
            "matrix": e.op,
        }
        for i, e in enumerate(ops)
    ]


# ---------------------------------------------------------------------------
# commands


def run_static(args) -> int:
    h = resolve_static_hamiltonian(args)
    fmts = _formats(args)
    out = _outdir(args)
    result = lv.eigen_operators(h, tol_eig=args.tol_eig, tol_rank=args.tol_rank)
    phase = result.pt_phase
    if "json" in fmts:
        _write_json(
            out / "static_report.json",
            {
                "mode": "static",
                "dim": int(h.shape[0]),
                "hamiltonian": h,
                "hamiltonian_eigenvalues": result.hamiltonian_spectrum.eigenvalues,
                "pt_phase": phase.value,
                "conserved_count": len(result.conserved),
                "operators": _operator_records(result.conserved + result.transient, args.tol_rank),
            },
        )
    if "csv" in fmts:
        computed = np.sort_complex(result.computed_eigenvalues)
        predicted = np.sort_complex(lv.pair_rates(result.hamiltonian_spectrum.eigenvalues))
        _write_table(
            out / "liouvillian_spectrum.csv",
            "index,re_computed,im_computed,re_predicted,im_predicted",
            [range(computed.size), computed.real, computed.imag, predicted.real, predicted.imag],
        )
    print(f"static: N={h.shape[0]}, phase={phase.value}, "
          f"{len(result.conserved)} conserved / {len(result.transient)} transient")
    return 0


def _floquet_operators(sched: fl.Schedule, args) -> tuple[fl.FloquetPropagator, list]:
    fp = fl.propagator(sched, args.tol_eig)
    return fp, fl.floquet_eigen_operators(fp.gf, args.tol_eig, args.tol_rank)


def _floquet_report(sched: fl.Schedule, fp: fl.FloquetPropagator, ops: list, args) -> dict:
    recursion = None
    # conserved operators come first, with multiplier exactly 1; no other has it
    if ops[0].rate == 1.0:
        rec = fl.recursive_floquet(ops[0].op, fp.gf)
        recursion = {
            "seed": "eta1",
            "symmetrized_independent": rec.symmetrized_independent,
            "antisymmetrized_independent": rec.antisymmetrized_independent,
        }
    return {
        "mode": "floquet",
        "dim": sched.dim,
        "period": float(sched.period),
        "propagator": fp.gf,
        "kappa": fp.kappa.eigenvalues,
        "phase": fp.phase.value,
        "operators": _operator_records(ops, args.tol_rank),
        "recursive_check": recursion,
    }


def run_floquet(args) -> int:
    sched = resolve_schedule(args, periodic=True)
    fmts = _formats(args)
    out = _outdir(args)
    fp, ops = _floquet_operators(sched, args)
    if "json" in fmts:
        _write_json(out / "floquet_report.json", _floquet_report(sched, fp, ops, args))
    if "csv" in fmts:
        lam = np.array([e.rate for e in ops], dtype=complex)
        _write_table(
            out / "floquet_multipliers.csv",
            "label,re_lambda,im_lambda,hermitian,residual",
            [
                [f"eta{i + 1}" for i in range(len(ops))],
                lam.real,
                lam.imag,
                [int(e.hermitian) for e in ops],
                np.array([e.residual for e in ops], dtype=float),
            ],
        )
    print(f"floquet: N={sched.dim}, phase={fp.phase.value}, "
          f"multipliers={[f'{z.rate:.4g}' for z in ops]}")
    return 0


def run_trace(args) -> int:
    sched = resolve_schedule(args, periodic=True)
    fmts = _formats(args)
    psi0 = parse_psi0(args.psi0) if args.psi0 else _default_psi0(sched.dim)
    if psi0.size != sched.dim:
        raise ConfigError(f"psi0 has {psi0.size} entries, expected {sched.dim}")
    out = _outdir(args)
    _, ops = _floquet_operators(sched, args)
    series = fl.evolve_trace(
        sched, psi0, [e.op for e in ops], steps_per_period=args.steps_per_period, periods=args.periods
    )
    labels = [f"eta{i + 1}" for i in range(len(ops))]
    rates = np.array([e.rate for e in ops], dtype=complex)
    # lambda^t on every sample; the writers refuse it where it overflows
    with np.errstate(over="ignore"):
        ref = np.exp(np.log(rates)[:, None] * series.times)
    if "csv" in fmts:
        n_ops, n_times = series.values.shape
        strobe = np.zeros(n_times, dtype=int)
        strobe[series.stroboscopic_indices] = 1
        _write_table(
            out / "trace.csv",
            "t_over_T,operator_label,re_value,im_value,is_stroboscopic,"
            "re_lambda_pow_t,im_lambda_pow_t,normalized",
            [
                np.tile(series.times, n_ops),
                np.repeat(labels, n_times),
                series.values.real.ravel(),
                series.values.imag.ravel(),
                np.tile(strobe, n_ops),
                ref.real.ravel(),
                ref.imag.ravel(),
                np.repeat(np.array(series.normalized, dtype=int), n_times),
            ],
        )
    if "json" in fmts:
        _write_json(
            out / "trace_report.json",
            {
                "mode": "trace",
                "psi0": psi0,
                "labels": labels,
                "multipliers": rates,
                "normalized": series.normalized,
                "periods": args.periods,
                "steps_per_period": args.steps_per_period,
            },
        )
    if "gnuplot" in fmts:
        _write_gnuplot(out, series, labels, ref)
    print(f"trace: {len(labels)} operators, "
          f"{series.times.size} samples over {args.periods} periods")
    return 0


def _default_psi0(dim: int) -> np.ndarray:
    return np.ones(dim, dtype=complex) / np.sqrt(dim)


def _write_gnuplot(out: Path, series: fl.TraceSeries, labels: list[str], ref: np.ndarray) -> None:
    # one datafile per operator keeps the plot script trivial
    for a, label in enumerate(labels):
        v = series.values[a]
        _write_table(
            out / f"trace_{label}.dat",
            "# t_over_T re_value im_value re_ref",
            [series.times, v.real, v.imag, ref[a].real],
            sep=" ",
        )
    n = len(labels)
    script = [
        "set terminal pngcairo size 1200,900",
        "set output 'trace.png'",
        f"set multiplot layout {(n + 1) // 2},2",
        "set xlabel 't/T'",
    ]
    for label in labels:
        script.append(
            f"plot 'trace_{label}.dat' using 1:2 with lines title '{label}', "
            f"'trace_{label}.dat' using 1:4 with dots title 'Re lambda^t'"
        )
    script.append("unset multiplot")
    (out / "trace.gp").write_text("\n".join(script) + "\n")


def _scan_grid(sched: fl.Schedule, waveform: md.Waveform, gammas: np.ndarray, tol_eig: float):
    """Per point of a batched dimer schedule, axes (JT, gamma/J = ``gammas``): PT
    phase, measure, discriminant and failure cause.

    The measure is the kappa ratio max|kappa|/min|kappa| of a periodic
    drive and max|Im eps| of a static one.  A failed point has a nonempty
    cause; the kappa ratio fails where min|kappa| <= 100 eps ||gf||_F,
    below which eig returns rounding noise for it.  The discriminant needs
    no eigensolve, so a point that failed only the eigensolver's contract
    or that rounding test keeps it; it is NaN where the product or the
    kappa ratio is not finite, and the contour skips the intervals
    touching such a point.
    """
    shape = sched.batch_shape
    # overflow is recorded per point, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        if waveform is md.Waveform.STATIC:
            h = sched.events[0].generator
            phase = lv.classify_pt_phase(h, tol_eig)
            measure = np.max(np.abs(np.linalg.eigvals(h).imag), axis=-1)
            # both builtin static dimers break PT at gamma = J
            values = 1.0 - gammas * gammas
            failed = np.full(shape, "", dtype=object)
        else:
            fp = fl.propagator(sched, tol_eig)
            phase, failed = fp.phase, fp.failed
            moduli = np.abs(fp.kappa.eigenvalues)
            smallest = np.min(moduli, axis=-1)
            measure = np.max(moduli, axis=-1) / np.maximum(smallest, 1e-300)
            failed[~np.isfinite(measure)] = "kappa ratio is not finite"
            # eig resolves |kappa| only down to about eps * ||gf||
            noise = smallest <= 100 * np.finfo(float).eps * hs_norm(fp.gf)
            failed[(failed == "") & noise] = "kappa ratio below rounding"
            usable = np.isfinite(fp.gf).all(axis=(-2, -1)) & np.isfinite(measure)
            values = np.full(shape, np.nan)
            values[usable] = md.discriminant(fp.gf[usable])
    phase, measure, values = (np.broadcast_to(x, shape) for x in (phase, measure, values))
    return phase, measure, values, failed


def run_scan(args) -> int:
    if args.model is None:
        raise ConfigError("scan mode requires --model")
    model = _model_from_args(args)
    waveform = _waveform_from_args(args, _default_waveform(model, periodic=True))
    gammas, jts = parse_grid(args.grid)
    # one batched schedule, axes (jt, gamma); building it validates every point
    sched = _dimer_schedule(args, model, waveform, gammas, jts[:, None])
    fmts = _formats(args)
    out = _outdir(args)

    phase, measure, values, failed = _scan_grid(sched, waveform, gammas, args.tol_eig)

    ok = (failed == "").ravel()
    failures = [{"gamma_over_j": float(gammas[k]), "jt": float(jts[i]), "error": failed[i, k]}
                for i, k in np.argwhere(failed != "")]
    if "csv" in fmts:
        _write_table(
            out / "scan_grid.csv",
            "gamma_over_j,jt,phase,kappa_ratio",
            [
                np.tile(gammas, jts.size),
                np.repeat(jts, gammas.size),
                [p.value if good else "error" for p, good in zip(phase.ravel(), ok)],
                # written with str, so a failed point's measure reads nan
                np.where(ok, measure.ravel(), np.nan).tolist(),
            ],
        )

    def disc(gj, jt):
        if waveform is md.Waveform.STATIC:
            return 1.0 - gj * gj
        p = md.DimerParams(J=args.J, gamma=gj * args.J, T=jt / args.J, waveform=waveform)
        return md.numerical_discriminant(model, p)

    def analytic(jt):
        if waveform is md.Waveform.STATIC:
            return 1.0
        if waveform is md.Waveform.DELTA_KICKS and model is md.Model.CLASSICAL:
            try:
                return md.classical_ep_gamma(jt)
            except ValueError:
                pass
        return None

    contour = [(root, jt, analytic(jt))
               for root, jt in md.contour_roots(disc, gammas, values, jts, xtol=1e-10, floor=1e-9)]
    if "csv" in fmts:
        _write_table(
            out / "contour.csv",
            "gamma_over_j,jt,analytic_gamma_over_j",
            [np.array([c[0] for c in contour]), np.array([c[1] for c in contour]),
             ["" if ana is None else ana for _, _, ana in contour]],
        )
    if "json" in fmts:
        _write_json(
            out / "scan_report.json",
            {
                "mode": "scan",
                "model": model.value,
                "waveform": waveform.value,
                "grid": {"gamma_over_j": gammas, "jt": jts},
                "contour": [
                    {"gamma_over_j": gj, "jt": jt, "analytic_gamma_over_j": ana}
                    for gj, jt, ana in contour
                ],
                "failures": failures,
            },
        )
    print(f"scan: {gammas.size * jts.size} points, {len(contour)} contour points, "
          f"{len(failures)} failures")
    return 0


def run_verify(args) -> int:
    tols = {}
    if args.tol_override is not None:
        tols["residual"] = args.tol_override
    results = selfcheck.run_all(tols)
    width = max(len(r.name) for r in results)
    failed = 0
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        detail = f"  {r.detail}" if r.detail else ""
        print(f"[{status}] {r.name:<{width}}{detail}")
        failed += 0 if r.ok else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 3


# ---------------------------------------------------------------------------
# argument parsing


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="intertwine",
        description="Conserved quantities of non-Hermitian Hamiltonians via superoperator spectra",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser):
        p.add_argument("--model", help="builtin model: quantum-dimer | classical-dimer")
        p.add_argument("--input", help="JSON input file (raw matrix or schedule)")
        p.add_argument("--gamma", type=float, default=0.5, help="gain-loss strength in units of J")
        p.add_argument("--J", type=float, default=1.0, help="coupling")
        p.add_argument("--JT", type=float, default=1.0, help="period in units of 1/J")
        p.add_argument("--waveform", help="static | square | kicks")
        p.add_argument("--tol-eig", type=float, default=DEFAULT_TOL_EIG)
        p.add_argument("--tol-rank", type=float, default=DEFAULT_TOL_RANK)
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--format", default="csv,json", help="subset of csv,json,gnuplot")

    common(sub.add_parser("static", help="static-Hamiltonian analysis"))

    common(sub.add_parser("floquet", help="one-period propagator analysis"))

    p_trace = sub.add_parser("trace", help="normalized expectation-value traces")
    common(p_trace)
    p_trace.add_argument("--psi0", help="initial state as 're,im;re,im'")
    p_trace.add_argument("--steps-per-period", type=int, default=200)
    p_trace.add_argument("--periods", type=int, default=10)

    p_scan = sub.add_parser("scan", help="phase diagram over (gamma/J, JT)")
    common(p_scan)
    p_scan.add_argument("--grid", default="0:2:21,0.2:3:15", help="gmin:gmax:n,tmin:tmax:n")

    p_verify = sub.add_parser("verify", help="run the built-in invariant suite")
    p_verify.add_argument("--tol-override", type=float, default=None,
                          help="replace every check threshold by this value")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # looked up per call, so the cached parser holds no command function
    command = globals()[f"run_{args.command}"]
    try:
        _check_options(args)
        return command(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (NumericalError, np.linalg.LinAlgError, OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
