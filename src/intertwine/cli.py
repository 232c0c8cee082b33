"""Command-line interface.

Commands: static, floquet, trace, scan, verify.  Inputs are either a
builtin dimer model or a JSON file (complex numbers as [re, im] pairs,
matrices row-major, schedules as an ordered event list).  Outputs are
deterministic CSV/JSON plus optional gnuplot scripts.

Each command takes only the options it reads, each parsed, checked and
converted by its type in ``build_parser``.  ``--gamma``, ``--J`` and
``--waveform`` are read only with ``--model``; ``--JT`` with ``--model``
or a raw matrix.  The tolerances are ``linalg.TOL_EIG`` and
``linalg.TOL_RANK``, not options.

Exit codes: 0 success, 1 config error (an option that does not parse,
is unknown to its command or is not read by its source, included),
2 numerical failure (including a result that cannot be written as
finite numbers), 3 verify-suite failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import orjson

from . import floquet as fl
from . import liouville as lv
from . import models as md
from . import selfcheck
from .linalg import (
    NumericalError,
    as_matrix,
    eig,  # noqa: F401  (not called here; bench/tests/test_bench_harness.py reads cli.eig)
    hs_norm,
    rank,
)


class ConfigError(ValueError, argparse.ArgumentTypeError):
    """A config error (exit 1); as an option's type, argparse reports its message as it is."""


# ---------------------------------------------------------------------------
# serialization helpers


def _require_finite(path: Path, finite: bool) -> None:
    """Refuse to write `path` unless the finite check of its result holds."""
    if not finite:
        raise NumericalError(f"{path}: result is not finite, file not written")


def _float_texts(path: Path, a: np.ndarray) -> list[str]:
    """`a`'s entries as repr writes them, in C order; NumericalError if one is not finite.

    orjson gives repr's digits but not its layout of nonzero |x| < 1e-4 and |x| >= 1e16.
    """
    flat = a.ravel()
    _require_finite(path, np.isfinite(flat).all())
    texts = orjson.dumps(flat, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode().split(",")
    mag = np.abs(flat)
    odd = np.flatnonzero(((mag < 1e-4) & (mag > 0)) | (mag >= 1e16))
    for i, x in zip(odd.tolist(), flat[odd].tolist()):
        texts[i] = repr(x)
    return texts if flat.size else []


def _plain(x, path: Path):
    """`x` as orjson writes it: complex numbers as [re, im], arrays C-contiguous; NumericalError
    if a float in it is not finite."""
    if isinstance(x, np.ndarray):
        if np.iscomplexobj(x):
            x = np.stack((x.real, x.imag), axis=-1)
        _require_finite(path, np.isfinite(x).all())
        return np.ascontiguousarray(x) if x.ndim else x[()]
    if isinstance(x, complex):
        x = [x.real, x.imag]
    if isinstance(x, dict):
        return {k: _plain(v, path) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v, path) for v in x]
    if isinstance(x, float):
        _require_finite(path, math.isfinite(x))
    return x


_JSON_OPTIONS = orjson.OPT_INDENT_2 | orjson.OPT_SORT_KEYS | orjson.OPT_SERIALIZE_NUMPY
# orjson writes a number unlike repr only with an exponent (1.5e-7, 1e16) or as 0.0000...
_ODD_NUMBER = (re.compile(rb"e[-\d]"), re.compile(rb"\.0000"))
_NUMBER = re.compile(rb"(-?\d+(?:\.\d+)?(?:e-?\d+)?),?")


def _write_json(path: Path, obj) -> None:
    """`obj` as json.dumps(obj, indent=2, sort_keys=True) writes it, arrays as nested lists.

    One orjson call; then repr rewrites each number token with a match of ``_ODD_NUMBER``
    (from the last space before it to its line's end: none in a string, whose quote ends it
    first), and characters outside printable ASCII take json.dumps's escapes.
    """
    data = orjson.dumps(_plain(obj, path), option=_JSON_OPTIONS) + b"\n"
    tokens = {}  # start -> end
    for pattern in _ODD_NUMBER:
        for m in pattern.finditer(data):
            start = data.rfind(b" ", 0, m.start()) + 1
            if number := _NUMBER.fullmatch(data, start, data.find(b"\n", m.end())):
                tokens[start] = number.end(1)
    pieces, done = [], 0
    for start, end in sorted(tokens.items()):
        pieces += [data[done:start], repr(float(data[start:end])).encode()]
        done = end
    data = b"".join([*pieces, data[done:]])
    if not data.isascii() or b"\x7f" in data:
        data = re.sub("[^\x00-\x7e]", lambda c: json.dumps(c[0])[1:-1], data.decode()).encode()
    path.write_bytes(data)


def _write_table(path: Path, header: str, columns, sep: str = ",") -> None:
    """One line per row of `columns` under `header`.

    A float array column is written with repr; any other column is a
    sequence written with str.
    """
    texts = []
    for col in columns:
        if isinstance(col, np.ndarray) and col.dtype.kind == "f":
            texts.append(_float_texts(path, col))
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
    try:
        return as_matrix(m)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


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


def _positive(kind, text: str):
    """The type of --J (``kind`` float) and of --steps-per-period and --periods (int)."""
    with contextlib.suppress(ValueError):
        if 0 < (value := kind(text)) < np.inf:
            return value
    raise ConfigError(f"{text!r} is not a positive finite {kind.__name__}")


def _formats(writes: str, text: str) -> set[str]:
    """The --format type of a command that writes the formats `writes`: a non-empty subset of them."""
    fmts = {f.strip() for f in text.split(",") if f.strip()}
    if not fmts or not fmts <= set(writes.split(",")):
        raise ConfigError(f"{text!r} is not a non-empty subset of {writes}")
    return fmts


def _dimer_schedule(args, waveform: md.Waveform, gamma_over_j, jt) -> fl.Schedule:
    """``models.dimer_schedule`` of --model at --J; an invalid dimer is a config error."""
    try:
        return md.dimer_schedule(args.model, waveform, args.J, gamma_over_j, jt)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _input_object(args) -> dict | None:
    """The --input JSON object, or None for --model."""
    if args.input is None:
        return None
    unread = [f"--{name}" for name in ("gamma", "J", "waveform") if getattr(args, name, None) is not None]
    if unread:
        raise ConfigError(f"{', '.join(unread)}: read only with --model, not with --input")
    try:
        with open(args.input) as f:
            obj = json.load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read input file {args.input}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{args.input}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"{args.input}: expected a JSON object")
    return obj


def resolve_schedule(args) -> fl.Schedule:
    """The periodic drive: the model's at --JT and --waveform, or --input's (a raw matrix lasts --JT)."""
    obj = _input_object(args)
    if obj is None:
        return _dimer_schedule(args, args.waveform or args.model.periodic_waveform, args.gamma, args.JT)
    if "matrix" in obj:
        h = parse_matrix(obj["matrix"])
        jt = 1.0 if args.JT is None else args.JT
        try:
            return fl.Schedule(dim=h.shape[0], events=[fl.Segment(jt, h)])
        except ValueError as exc:
            raise ConfigError(f"--JT {jt!r}: {exc}") from exc
    if args.JT is not None:
        raise ConfigError("--JT: a schedule file sets its own period")
    return parse_schedule(obj)


def resolve_static_hamiltonian(args) -> np.ndarray:
    """H of --model's static dimer, or of --input's raw matrix or one-segment schedule."""
    obj = _input_object(args)
    if obj is None:
        return _dimer_schedule(args, md.Waveform.STATIC, args.gamma, None).events[0].generator
    if "matrix" in obj:
        return parse_matrix(obj["matrix"])
    sched = parse_schedule(obj)
    if len(sched.events) != 1 or not isinstance(sched.events[0], fl.Segment):
        raise ConfigError("static mode needs a single-segment schedule or a raw matrix")
    return sched.events[0].generator


def _outdir(args) -> Path:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # an existing file, or a path under one
        raise ConfigError(f"cannot make output directory {out}: {exc}") from exc
    return out


def _operator_records(ops: list[lv.EigenOperator]) -> list[dict]:
    ranks = rank(np.array([e.op for e in ops])).tolist()
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
    out = _outdir(args)
    result = lv.eigen_operators(h)
    phase = result.pt_phase
    if "json" in args.format:
        _write_json(
            out / "static_report.json",
            {
                "mode": "static",
                "dim": int(h.shape[0]),
                "hamiltonian": h,
                "hamiltonian_eigenvalues": result.hamiltonian_spectrum.eigenvalues,
                "pt_phase": phase.value,
                "conserved_count": len(result.conserved),
                "operators": _operator_records(result.conserved + result.transient),
            },
        )
    if "csv" in args.format:
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


def _floquet_report(sched: fl.Schedule, fp: fl.FloquetPropagator, ops: list) -> dict:
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
        "operators": _operator_records(ops),
        "recursive_check": recursion,
    }


def run_floquet(args) -> int:
    sched = resolve_schedule(args)
    out = _outdir(args)
    fp = fl.propagator(sched)
    ops = fl.floquet_eigen_operators(fp.gf)
    if "json" in args.format:
        _write_json(out / "floquet_report.json", _floquet_report(sched, fp, ops))
    if "csv" in args.format:
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
    sched = resolve_schedule(args)
    psi0 = np.ones(sched.dim, dtype=complex) / np.sqrt(sched.dim) if args.psi0 is None else args.psi0
    if psi0.size != sched.dim:
        raise ConfigError(f"psi0 has {psi0.size} entries, expected {sched.dim}")
    out = _outdir(args)
    ops = fl.floquet_eigen_operators(fl.compose(sched))
    series = fl.evolve_trace(
        sched, psi0, [e.op for e in ops], steps_per_period=args.steps_per_period, periods=args.periods
    )
    labels = [f"eta{i + 1}" for i in range(len(ops))]
    rates = np.array([e.rate for e in ops], dtype=complex)
    # lambda^t on every sample; the writers refuse it where it overflows
    with np.errstate(over="ignore"):
        ref = np.exp(np.log(rates)[:, None] * series.times)
    if "csv" in args.format:
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
    if "json" in args.format:
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
    if "gnuplot" in args.format:
        _write_gnuplot(out, series, labels, ref)
    print(f"trace: {len(labels)} operators, "
          f"{series.times.size} samples over {args.periods} periods")
    return 0


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


def _scan_grid(sched: fl.Schedule, waveform: md.Waveform, disc, gammas: np.ndarray, jts: np.ndarray):
    """Per point of a batched dimer schedule, axes (JT = ``jts``, gamma/J = ``gammas``):
    PT phase, measure, discriminant and failure cause.

    The measure is the kappa ratio max|kappa|/min|kappa| of a periodic
    drive and max|Im eps| of a static one.  A failed point has a nonempty
    cause; the kappa ratio fails where min|kappa| <= 100 eps ||gf||_F,
    below which eig returns rounding noise for it.  The discriminant needs
    no eigensolve, so a point that failed only the eigensolver's contract
    or that rounding test keeps it; it is NaN where the product or the
    kappa ratio is not finite, and the contour skips the intervals
    touching such a point.  A static drive's discriminant is ``disc``.
    """
    shape = sched.batch_shape
    # overflow is recorded per point, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        if waveform is md.Waveform.STATIC:
            h = sched.events[0].generator
            w, v = np.linalg.eig(h)
            phase = lv.hamiltonian_phase(h, w, v)
            measure = np.max(np.abs(w.imag), axis=-1)
            values = disc(gammas, jts[:, None])
            failed = np.full(shape, "", dtype=object)
        else:
            fp = fl.propagator(sched)
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
    waveform = args.waveform or args.model.periodic_waveform
    gammas, jts = args.grid
    # one batched schedule, axes (jt, gamma); building it validates every point
    sched = _dimer_schedule(args, waveform, gammas, jts[:, None])
    out = _outdir(args)

    disc = functools.partial(md.ep_indicator, args.model, waveform, args.J)
    phase, measure, values, failed = _scan_grid(sched, waveform, disc, gammas, jts)

    ok = (failed == "").ravel()
    failures = [{"gamma_over_j": float(gammas[k]), "jt": float(jts[i]), "error": failed[i, k]}
                for i, k in np.argwhere(failed != "")]
    if "csv" in args.format:
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
    contour = [(root, jt, md.analytic_ep_gamma(args.model, waveform, jt))
               for root, jt in md.contour_roots(disc, gammas, values, jts, xtol=1e-10, floor=1e-9)]
    if "csv" in args.format:
        _write_table(
            out / "contour.csv",
            "gamma_over_j,jt,analytic_gamma_over_j",
            [np.array([c[0] for c in contour]), np.array([c[1] for c in contour]),
             ["" if ana is None else ana for _, _, ana in contour]],
        )
    if "json" in args.format:
        _write_json(
            out / "scan_report.json",
            {
                "mode": "scan",
                "model": args.model.value,
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
    results = selfcheck.run_all()
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


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors are config errors (exit 1), not argparse's exit 2."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="intertwine",
        description="Conserved quantities of non-Hermitian Hamiltonians via superoperator spectra",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    static = sub.add_parser("static", help="static-Hamiltonian analysis")
    floquet = sub.add_parser("floquet", help="one-period propagator analysis")
    trace = sub.add_parser("trace", help="normalized expectation-value traces")
    scan = sub.add_parser("scan", help="phase diagram over (gamma/J, JT)")
    sub.add_parser("verify", help="run the built-in invariant suite")

    # each option goes to the commands that read it, and its type checks it; the
    # options of the dimer point default to None, which models.dimer_params fills in
    def add(parsers, flag: str, **kwargs):
        for p in parsers:
            p.add_argument(flag, **kwargs)

    sources = [p.add_mutually_exclusive_group(required=True) for p in (static, floquet, trace)]
    for p in (*sources, scan):  # scan has no --input, so --model is required there
        p.add_argument("--model", type=md.Model, required=p is scan,
                       help="builtin model: quantum-dimer | classical-dimer")
    add(sources, "--input", help="JSON input file (raw matrix or schedule)")
    add((static, floquet, trace), "--gamma", type=float, help="gain-loss strength in units of J")
    add((static, floquet, trace, scan), "--J", type=functools.partial(_positive, float), help="coupling")
    add((floquet, trace), "--JT", type=float, help="period in units of 1/J")
    add((floquet, trace, scan), "--waveform", type=md.Waveform, help="static | square | kicks")
    add((static, floquet, trace, scan), "--out", default="out", help="output directory")
    for p in (static, floquet, trace, scan):
        writes = "csv,json,gnuplot" if p is trace else "csv,json"
        p.add_argument("--format", type=functools.partial(_formats, writes), default="csv,json",
                       help=f"subset of {writes}")
    trace.add_argument("--psi0", type=parse_psi0, help="initial state as 're,im;re,im'")
    trace.add_argument("--steps-per-period", type=functools.partial(_positive, int), default=200)
    trace.add_argument("--periods", type=functools.partial(_positive, int), default=10)
    scan.add_argument("--grid", type=parse_grid, default="0:2:21,0.2:3:15", help="gmin:gmax:n,tmin:tmax:n")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # looked up per call, so the cached parser holds no command function
        return globals()[f"run_{args.command}"](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (NumericalError, np.linalg.LinAlgError, OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
