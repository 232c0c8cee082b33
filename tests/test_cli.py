import json
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import random_pt_symmetric
from intertwine import cli
from intertwine import floquet as fl
from intertwine import liouville as lv
from intertwine import models as md
from intertwine.linalg import DEFAULT_TOL_EIG, NumericalError


DATA = Path(__file__).resolve().parent / "data"
README = Path(__file__).resolve().parents[1] / "README.md"


def run(args, capsys=None):
    code = cli.main(args)
    if capsys is not None:
        return code, capsys.readouterr()
    return code


def load_json(path):
    with open(path) as f:
        return json.load(f)


def as_complex(pair):
    return complex(pair[0], pair[1])


def as_matrix(rows):
    return np.array([[as_complex(z) for z in row] for row in rows])


class TestParsing:
    def test_parse_matrix_plain_numbers(self):
        m = cli.parse_matrix([[0, 1], [1, 0]])
        assert np.array_equal(m, np.array([[0, 1], [1, 0]], dtype=complex))

    def test_parse_matrix_complex_pairs(self):
        m = cli.parse_matrix([[[0, 0.5], [1, 0]], [[1, 0], [0, -0.5]]])
        assert np.array_equal(m, np.array([[0.5j, 1], [1, -0.5j]]))

    def test_parse_matrix_rejects_ragged(self):
        with pytest.raises(cli.ConfigError):
            cli.parse_matrix([[1, 2], [3]])

    def test_parse_matrix_rejects_rectangular(self):
        with pytest.raises(cli.ConfigError):
            cli.parse_matrix([[1, 2, 3], [4, 5, 6]])

    def test_parse_psi0(self):
        psi = cli.parse_psi0("1,0;0,-1")
        assert np.array_equal(psi, np.array([1.0, -1j]))

    def test_parse_psi0_garbage(self):
        with pytest.raises(cli.ConfigError):
            cli.parse_psi0("1;two;3")

    def test_parse_grid(self):
        gammas, jts = cli.parse_grid("0:1:3,0.5:1.5:2")
        assert np.allclose(gammas, [0, 0.5, 1])
        assert np.allclose(jts, [0.5, 1.5])

    def test_parse_grid_garbage(self):
        with pytest.raises(cli.ConfigError):
            cli.parse_grid("0:1:3")
        with pytest.raises(cli.ConfigError):
            cli.parse_grid("0:1:1,0:1:5")


class TestConfigErrors:
    def test_no_source_exits_1(self, tmp_path):
        assert run(["static", "--out", str(tmp_path)]) == 1

    def test_both_sources_exits_1(self, tmp_path):
        path = tmp_path / "h.json"
        path.write_text('{"matrix": [[0, 1], [1, 0]]}')
        assert run(
            ["static", "--model", "quantum-dimer", "--input", str(path),
             "--out", str(tmp_path)]
        ) == 1

    def test_unknown_model_exits_1(self, tmp_path):
        assert run(["static", "--model", "nope", "--out", str(tmp_path)]) == 1

    def test_unknown_waveform_exits_1(self, tmp_path):
        assert run(
            ["floquet", "--model", "quantum-dimer", "--waveform", "sawtooth",
             "--out", str(tmp_path)]
        ) == 1

    def test_missing_input_file_exits_1(self, tmp_path):
        assert run(
            ["static", "--input", str(tmp_path / "missing.json"), "--out", str(tmp_path)]
        ) == 1

    def test_invalid_json_exits_1(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run(["static", "--input", str(path), "--out", str(tmp_path)]) == 1

    def test_bad_grid_exits_1(self, tmp_path):
        assert run(
            ["scan", "--model", "quantum-dimer", "--grid", "bogus",
             "--out", str(tmp_path)]
        ) == 1

    def test_bad_psi0_exits_1(self, tmp_path):
        for psi0 in ("1,0", "nan,0;1,0", "1,0;0,inf"):
            assert run(
                ["trace", "--model", "quantum-dimer", "--psi0", psi0,
                 "--out", str(tmp_path)]
            ) == 1
        assert not (tmp_path / "trace.csv").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["floquet", "--model", "classical-dimer", "--waveform", "square"],
            ["static", "--model", "quantum-dimer", "--J", "0"],
            ["static", "--model", "quantum-dimer", "--gamma", "nan"],
            ["scan", "--model", "classical-dimer", "--waveform", "square", "--grid", "0:1:3,0.5:1:2"],
            ["scan", "--model", "quantum-dimer", "--grid=-1:1:3,0.5:1:2"],
            ["scan", "--model", "quantum-dimer", "--grid", "0:1:3,0:1:2"],
            ["scan", "--model", "quantum-dimer", "--J", "0", "--grid", "0:1:3,0.5:1:2"],
        ],
        ids=lambda argv: " ".join(argv[2:]),
    )
    def test_invalid_dimer_exits_1(self, tmp_path, capsys, argv):
        code, captured = run(argv + ["--out", str(tmp_path)], capsys)
        assert code == 1
        assert captured.err.startswith("config error:")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "command, extra, source",
        [
            ("floquet", ["--JT", "-1"], {"matrix": [[0, 1], [1, 0]]}),
            ("static", ["--JT", "0"], {"matrix": [[0, 1], [1, 0]]}),
            ("floquet", ["--JT", "nan"], {"matrix": [[0, 1], [1, 0]]}),
            ("floquet", ["--JT", "inf"], {"matrix": [[0, 1], [1, 0]]}),
            ("floquet", [], {"dim": 2, "events": [{"segment": {"duration": -1.0, "h": [[0, 1], [1, 0]]}}]}),
            ("floquet", [], {"dim": 2, "events": [{"segment": {"duration": "nan", "h": [[0, 1], [1, 0]]}}]}),
            ("floquet", [], {"dim": "x", "events": []}),
            ("floquet", [], {"dim": 2, "events": 5}),
            ("floquet", [], {"dim": 2, "events": [5]}),
            ("trace", [], {"dim": 2, "events": [{"segment": 5}]}),
            ("floquet", [], {"dim": 2, "events": [{"kick": 5}]}),
            ("floquet", [], 5),
            ("static", [], None),
            ("floquet", [], {"matrix": [1, 2]}),
            ("floquet", [], {"matrix": [[["a", 1]]]}),
            # a dim that int() would truncate or accept runs as another N
            ("floquet", [], {"dim": 2.9, "events": [{"segment": {"duration": 1.0, "h": [[0, 1], [1, 0]]}}]}),
            ("floquet", [], {"dim": True, "events": [{"segment": {"duration": 1.0, "h": [[1]]}}]}),
            ("floquet", [], {"dim": "2", "events": [{"segment": {"duration": 1.0, "h": [[0, 1], [1, 0]]}}]}),
        ],
        ids=["negative-JT", "zero-JT", "nan-JT", "inf-JT", "negative-segment", "nan-segment",
             "dim-not-integer", "events-not-list", "event-not-object", "segment-not-object",
             "kick-not-object", "top-level-number", "top-level-null", "matrix-row-not-list",
             "entry-not-numbers", "dim-float", "dim-boolean", "dim-string"],
    )
    def test_invalid_input_schedule_exits_1(self, tmp_path, capsys, command, extra, source):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(source))
        out = tmp_path / "out"
        code, captured = run([command, "--input", str(path), *extra, "--out", str(out)], capsys)
        assert code == 1
        assert captured.err.startswith("config error:")
        assert not out.exists()

    def test_unknown_format_exits_1(self, tmp_path):
        assert run(
            ["static", "--model", "quantum-dimer", "--format", "xml",
             "--out", str(tmp_path)]
        ) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["trace", "--steps-per-period", "0"],
            ["trace", "--periods", "0"],
            ["trace", "--psi0", "0,0;0,0"],
            *[[command, "--tol-eig", value]
              for command in ("static", "floquet", "scan", "trace")
              for value in ("0", "-1", "nan", "inf")],
            *[[command, "--tol-rank", value]
              for command in ("static", "floquet", "trace")
              for value in ("-1", "0", "nan", "inf")],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_numerical_option_out_of_domain_exits_1(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        argv = argv[:1] + ["--model", "quantum-dimer"] + argv[1:] + ["--out", str(out)]
        code, captured = run(argv, capsys)
        assert code == 1
        assert captured.err.startswith("config error:")
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "-1", "0", "inf"])
    def test_tol_override_out_of_domain_exits_1(self, capsys, value):
        code, captured = run(["verify", "--tol-override", value], capsys)
        assert code == 1
        assert captured.err.startswith("config error: --tol-override")
        assert captured.out == ""


class TestStatic:
    def test_builtin_quantum(self, tmp_path, capsys):
        code, cap = run(
            ["static", "--model", "quantum-dimer", "--gamma", "0.5",
             "--out", str(tmp_path)],
            capsys,
        )
        assert code == 0
        assert "phase=symmetric" in cap.out
        report = load_json(tmp_path / "static_report.json")
        assert report["pt_phase"] == "symmetric"
        assert report["conserved_count"] == 2
        assert len(report["operators"]) == 4
        csv = (tmp_path / "liouvillian_spectrum.csv").read_text().splitlines()
        assert csv[0] == "index,re_computed,im_computed,re_predicted,im_predicted"
        assert len(csv) == 5

    def test_raw_matrix_matches_builtin(self, tmp_path):
        # H = J sigma_x + i gamma sigma_z fed in as an explicit matrix
        path = tmp_path / "h.json"
        path.write_text(json.dumps({"matrix": [[[0, 0.5], [1, 0]], [[1, 0], [0, -0.5]]]}))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run(["static", "--model", "quantum-dimer", "--out", str(out_a)]) == 0
        assert run(["static", "--input", str(path), "--out", str(out_b)]) == 0
        ra = load_json(out_a / "static_report.json")
        rb = load_json(out_b / "static_report.json")
        assert np.allclose(as_matrix(ra["hamiltonian"]), as_matrix(rb["hamiltonian"]))
        for ea, eb in zip(ra["operators"], rb["operators"]):
            assert abs(as_complex(ea["rate"]) - as_complex(eb["rate"])) < 1e-12
            assert np.max(np.abs(as_matrix(ea["matrix"]) - as_matrix(eb["matrix"]))) < 1e-12

    def test_large_hamiltonian_reports_as_unscaled(self, tmp_path, capsys):
        # ||H||_F of 1e160 H overflows a double, ||H / 2^p||_F does not
        rng = np.random.default_rng(0)
        a = (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))) / 2
        p = np.fliplr(np.eye(4))
        h = a + p @ a.conj() @ p
        outs = []
        for name, m in (("h", h), ("big", 1e160 * h)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({"matrix": [[[z.real, z.imag] for z in row] for row in m]}))
            code, captured = run(["static", "--input", str(path), "--out", str(tmp_path / name)], capsys)
            assert code == 0
            outs.append(captured.out)
        assert outs[1] == outs[0]
        assert "phase=broken, 4 conserved / 12 transient" in outs[0]

    def test_broken_phase_report(self, tmp_path):
        assert run(
            ["static", "--model", "quantum-dimer", "--gamma", "1.5",
             "--out", str(tmp_path)]
        ) == 0
        report = load_json(tmp_path / "static_report.json")
        assert report["pt_phase"] == "broken"
        transient = [op for op in report["operators"] if abs(as_complex(op["rate"])) > 1e-8]
        assert all(op["hermitian"] for op in transient)

    def test_schedule_input_rejected_for_static(self, tmp_path):
        sched = {
            "dim": 2,
            "events": [
                {"segment": {"duration": 0.5, "h": [[0, 1], [1, 0]]}},
                {"kick": {"k": [[0, 1], [1, 0]]}},
            ],
        }
        path = tmp_path / "sched.json"
        path.write_text(json.dumps(sched))
        assert run(["static", "--input", str(path), "--out", str(tmp_path)]) == 1


class TestStaticAtExceptionalPoint:
    """At gamma = J the static route falls back to the Kronecker matrix, with the bytes it always wrote."""

    @pytest.mark.parametrize("model", ["quantum-dimer", "classical-dimer"])
    def test_pinned_bytes(self, tmp_path, capsys, model):
        code, captured = run(["static", "--model", model, "--gamma", "1.0", "--out", str(tmp_path)], capsys)
        assert code == 0
        assert captured.out == "static: N=2, phase=exceptional-point, 2 conserved / 3 transient\n"
        pinned = DATA / "static_gamma1" / model
        for name in ("static_report.json", "liouvillian_spectrum.csv"):
            assert (tmp_path / name).read_bytes() == (pinned / name).read_bytes()


class TestFloquet:
    def test_builtin_quantum_multipliers(self, tmp_path):
        assert run(
            ["floquet", "--model", "quantum-dimer", "--gamma", "0.5", "--JT", "1",
             "--out", str(tmp_path)]
        ) == 0
        report = load_json(tmp_path / "floquet_report.json")
        assert report["phase"] == "symmetric"
        lams = [as_complex(op["rate"]) for op in report["operators"]]
        assert sum(abs(l - 1) < 1e-8 for l in lams) == 2
        assert min(abs(l - (-0.437 + 0.899j)) for l in lams) < 1e-3
        csv = (tmp_path / "floquet_multipliers.csv").read_text().splitlines()
        assert csv[0] == "label,re_lambda,im_lambda,hermitian,residual"
        assert len(csv) == 5

    def test_schedule_json_matches_builtin(self, tmp_path):
        # quantum dimer square wave written out as an explicit two-segment schedule
        sched = {
            "dim": 2,
            "events": [
                {"segment": {"duration": 0.5,
                             "h": [[[0, 0.5], [1, 0]], [[1, 0], [0, -0.5]]]}},
                {"segment": {"duration": 0.5,
                             "h": [[[0, -0.5], [1, 0]], [[1, 0], [0, 0.5]]]}},
            ],
        }
        path = tmp_path / "sched.json"
        path.write_text(json.dumps(sched))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run(["floquet", "--model", "quantum-dimer", "--out", str(out_a)]) == 0
        assert run(["floquet", "--input", str(path), "--out", str(out_b)]) == 0
        ra = load_json(out_a / "floquet_report.json")
        rb = load_json(out_b / "floquet_report.json")
        assert np.max(np.abs(as_matrix(ra["propagator"]) - as_matrix(rb["propagator"]))) < 1e-12

    def test_overflowing_superoperator_exits_2(self, tmp_path, capsys):
        # G_F has entries near 1e183, finite; gf^T kron gf^dag does not fit a double
        rng = np.random.default_rng(0)
        a = (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))) / 2
        p = np.fliplr(np.eye(4))
        h = a + p @ a.conj() @ p
        path = tmp_path / "h.json"
        path.write_text(json.dumps({"matrix": [[[z.real, z.imag] for z in row] for row in h]}))
        out = tmp_path / "out"
        argv = ["floquet", "--input", str(path), "--JT", "400", "--out", str(out)]
        code, captured = run(argv, capsys)
        assert code == 2
        assert "numerical failure: Floquet superoperator" in captured.err
        assert list(out.iterdir()) == []
        # in a fresh interpreter, with no warning filter: the one message and nothing else
        src = str(Path(cli.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-m", "intertwine.cli", *argv], capture_output=True, text=True,
            env={"PYTHONPATH": src},
        )
        assert done.returncode == 2
        assert done.stderr.startswith("numerical failure: Floquet superoperator")
        assert done.stderr.count("\n") == 1 and done.stderr.endswith("\n")

    @pytest.mark.parametrize("command", ["floquet", "trace"])
    @pytest.mark.parametrize(
        "source",
        [
            ["--model", "classical-dimer", "--gamma", "0.5", "--JT", "6.283185307179586"],
            ["--model", "quantum-dimer", "--gamma", "0.5", "--JT", "1e-8"],
            {"matrix": [[1, 0], [0, 1]]},
        ],
        ids=["classical-2pi", "quantum-1e-8", "identity-input"],
    )
    def test_propagator_near_one_reports_every_operator(self, tmp_path, command, source):
        if isinstance(source, dict):
            path = tmp_path / "h.json"
            path.write_text(json.dumps(source))
            source = ["--input", str(path)]
        out = tmp_path / "out"
        assert run([command, *source, "--out", str(out)]) == 0
        if command == "floquet":
            assert len(load_json(out / "floquet_report.json")["operators"]) == 4
        else:
            assert len(load_json(out / "trace_report.json")["labels"]) == 4

    def test_recursive_check_present(self, tmp_path):
        assert run(
            ["floquet", "--model", "classical-dimer", "--gamma", "0.5", "--JT", "1",
             "--out", str(tmp_path)]
        ) == 0
        rec = load_json(tmp_path / "floquet_report.json")["recursive_check"]
        assert rec is not None
        assert isinstance(rec["symmetrized_independent"], bool)


class TestTrace:
    def test_outputs_and_constancy(self, tmp_path):
        assert run(
            ["trace", "--model", "quantum-dimer", "--gamma", "0.5", "--JT", "1",
             "--periods", "4", "--steps-per-period", "8", "--psi0", "1,0;0,0",
             "--format", "csv,json,gnuplot", "--out", str(tmp_path)]
        ) == 0
        assert (tmp_path / "trace.gp").exists()
        report = load_json(tmp_path / "trace_report.json")
        assert report["periods"] == 4
        lines = (tmp_path / "trace.csv").read_text().splitlines()
        rows = [ln.split(",") for ln in lines[1:]]
        for label in report["labels"]:
            assert (tmp_path / f"trace_{label}.dat").exists()
        # the unit-multiplier operators stay at 1 on stroboscopic samples
        unit = {
            lab
            for lab, lam in zip(report["labels"], report["multipliers"])
            if abs(as_complex(lam) - 1) < 1e-8
        }
        assert len(unit) == 2
        for row in rows:
            if row[1] in unit and row[4] == "1":
                assert abs(float(row[2]) - 1.0) < 1e-8
                assert abs(float(row[3])) < 1e-8

    def test_transients_follow_multiplier_power(self, tmp_path):
        assert run(
            ["trace", "--model", "classical-dimer", "--gamma", "0.5", "--JT", "1",
             "--periods", "5", "--steps-per-period", "4", "--out", str(tmp_path)]
        ) == 0
        report = load_json(tmp_path / "trace_report.json")
        rows = [ln.split(",") for ln in
                (tmp_path / "trace.csv").read_text().splitlines()[1:]]
        for lab, lam, norm in zip(
            report["labels"], report["multipliers"], report["normalized"]
        ):
            if not norm:
                continue
            lam = as_complex(lam)
            for row in rows:
                if row[1] == lab and row[4] == "1":
                    got = complex(float(row[2]), float(row[3]))
                    want = lam ** round(float(row[0]))
                    assert abs(got - want) < 1e-7 * max(1.0, abs(want))


    def test_overflowing_trace_exits_2(self, tmp_path):
        # max|lambda|^100 overflows double range in the PT-broken phase
        assert run(
            ["trace", "--model", "quantum-dimer", "--gamma", "3", "--JT", "3",
             "--periods", "100", "--steps-per-period", "4", "--out", str(tmp_path)]
        ) == 2
        csv = tmp_path / "trace.csv"
        assert not csv.exists() or not any(
            word in csv.read_text().lower() for word in ("nan", "inf")
        )


class TestScan:
    def test_grid_and_contour(self, tmp_path):
        assert run(
            ["scan", "--model", "classical-dimer", "--grid", "0.5:2:7,1:1.5:2",
             "--out", str(tmp_path)]
        ) == 0
        grid = (tmp_path / "scan_grid.csv").read_text().splitlines()
        assert grid[0] == "gamma_over_j,jt,phase,kappa_ratio"
        assert len(grid) == 1 + 7 * 2
        report = load_json(tmp_path / "scan_report.json")
        assert report["failures"] == []
        assert len(report["contour"]) == 2
        for pt in report["contour"]:
            want = np.arctanh(np.cos(pt["jt"] / 2)) / pt["jt"]
            assert pt["gamma_over_j"] == pytest.approx(want, abs=1e-6)
            assert pt["analytic_gamma_over_j"] == pytest.approx(want, abs=1e-12)
        quantum = tmp_path / "quantum"
        assert run(
            ["scan", "--model", "quantum-dimer", "--grid", "0:1:3,0.5:1:2", "--out", str(quantum)]
        ) == 0
        assert len((quantum / "scan_grid.csv").read_text().splitlines()) == 1 + 3 * 2

    def test_requires_model(self, tmp_path):
        assert run(["scan", "--grid", "0:1:3,0.5:1:2", "--out", str(tmp_path)]) == 1

    def test_overflowing_points_are_recorded(self, tmp_path, capsys):
        code, captured = run(
            ["scan", "--model", "classical-dimer", "--grid", "0:400:3,1:3:2", "--out", str(tmp_path)],
            capsys,
        )
        assert code == 0
        assert captured.err == ""
        rows = [line.split(",") for line in (tmp_path / "scan_grid.csv").read_text().splitlines()[1:]]
        failed = [(float(r[0]), float(r[1])) for r in rows if r[2:] == ["error", "nan"]]
        assert failed == [(200.0, 1.0), (400.0, 1.0), (200.0, 3.0), (400.0, 3.0)]
        assert all(r[2] == "symmetric" for r in rows if float(r[0]) == 0.0)
        report = load_json(tmp_path / "scan_report.json")
        assert [(f["gamma_over_j"], f["jt"], f["error"]) for f in report["failures"]] == [
            (200.0, 1.0, "kappa ratio is not finite"),
            (400.0, 1.0, "one-period propagator overflowed double range"),
            (200.0, 3.0, "one-period propagator overflowed double range"),
            (400.0, 3.0, "one-period propagator overflowed double range"),
        ]
        # every interval touches a failed point
        assert report["contour"] == []
        assert (tmp_path / "contour.csv").read_text() == "gamma_over_j,jt,analytic_gamma_over_j\n"

    def test_kappa_ratio_below_rounding_is_a_failure(self, tmp_path, capsys):
        # det G_F = 1, so the true ratio at gamma/J = 200, JT = 1 is max|kappa|^2 ~ 3e164,
        # far beyond what eig resolves of min|kappa|
        code, captured = run(
            ["scan", "--model", "quantum-dimer", "--grid", "0:400:3,1:3:2", "--out", str(tmp_path)],
            capsys,
        )
        assert code == 0
        rows = [line.split(",") for line in (tmp_path / "scan_grid.csv").read_text().splitlines()[1:]]
        failed = [(float(r[0]), float(r[1])) for r in rows if r[2:] == ["error", "nan"]]
        assert failed == [(200.0, 1.0), (400.0, 1.0), (200.0, 3.0), (400.0, 3.0)]
        causes = [f["error"] for f in load_json(tmp_path / "scan_report.json")["failures"]]
        assert causes[:2] == ["kappa ratio below rounding"] * 2

    @pytest.mark.parametrize(
        "model, waveform, grid, J",
        [
            ("classical-dimer", "kicks", "0:2:11,0.5:3:6", "1.0"),
            ("quantum-dimer", "square", "0:2:11,0.5:3:6", "1.0"),
            ("classical-dimer", "kicks", "0.1:1.9:7,0.4:2.7:5", "2.0"),
            ("quantum-dimer", "square", "0.1:1.9:7,1.5:3.1:5", "2.0"),
            ("classical-dimer", "static", "0.5:2:7,1:1.5:2", "1.0"),
            ("quantum-dimer", "static", "0:2:9,1:1.5:2", "2.0"),
        ],
    )
    def test_tables_match_per_point_reference(self, tmp_path, model, waveform, grid, J):
        argv = ["scan", "--model", model, "--waveform", waveform, "--grid", grid, "--J", J]
        assert run(argv + ["--out", str(tmp_path)]) == 0
        want_grid, want_contour, want_failures = per_point_scan_tables(
            md.Model(model), md.Waveform(waveform), *cli.parse_grid(grid), float(J))
        assert (tmp_path / "scan_grid.csv").read_text() == want_grid
        assert (tmp_path / "contour.csv").read_text() == want_contour
        assert want_contour.count("\n") > 1
        assert want_failures == []

    @pytest.mark.parametrize("model, waveform", [("classical-dimer", "kicks"), ("quantum-dimer", "square")])
    def test_eigensolver_failures_are_recorded_per_point(self, tmp_path, model, waveform):
        # at --tol-eig 3e-16 some points miss eig's residual contract
        grid = "0:2:11,0.5:3:6"
        argv = ["scan", "--model", model, "--waveform", waveform, "--grid", grid, "--tol-eig", "3e-16"]
        assert run(argv + ["--out", str(tmp_path)]) == 0
        want_grid, want_contour, want_failures = per_point_scan_tables(
            md.Model(model), md.Waveform(waveform), *cli.parse_grid(grid), 1.0, tol_eig=3e-16)
        assert 0 < len(want_failures) < 66
        assert (tmp_path / "scan_grid.csv").read_text() == want_grid
        assert (tmp_path / "contour.csv").read_text() == want_contour
        assert load_json(tmp_path / "scan_report.json")["failures"] == want_failures


def per_point_scan_tables(model, waveform, gammas, jts, J, tol_eig=DEFAULT_TOL_EIG):
    """scan_grid.csv, contour.csv and the failures computed one grid point at a time.

    Each point gets its own scalar propagator (or Hamiltonian eigensolve,
    for the static drive); a point whose eigensolve misses its contract
    is a failure.  Each JT row is bracketed by evaluating its
    discriminant at every grid point again and refined by brentq on the
    scalar discriminant.
    """
    from scipy.optimize import brentq

    def params(gj, jt):
        return md.DimerParams(J=J, gamma=gj * J, T=jt / J, waveform=waveform)

    static = waveform is md.Waveform.STATIC
    grid = ["gamma_over_j,jt,phase,kappa_ratio"]
    failures = []
    for jt in jts:
        for gj in gammas:
            sched = md.build_schedule(model, params(gj, jt))
            if static:
                h = sched.events[0].generator
                phase = lv.classify_pt_phase(h, tol_eig)
                measure = np.max(np.abs(np.linalg.eigvals(h).imag))
            else:
                try:
                    fp = fl.propagator(sched, tol_eig)
                except NumericalError as exc:
                    failures.append({"gamma_over_j": float(gj), "jt": float(jt), "error": str(exc)})
                    grid.append(f"{float(gj)!r},{float(jt)!r},error,nan")
                    continue
                moduli = np.abs(fp.kappa.eigenvalues)
                phase = fp.phase
                measure = np.max(moduli) / max(np.min(moduli), 1e-300)
            grid.append(f"{float(gj)!r},{float(jt)!r},{phase.value},{float(measure)!r}")

    contour = ["gamma_over_j,jt,analytic_gamma_over_j"]
    for jt in jts:
        def disc(gj):
            if static:
                return 1.0 - gj * gj
            gf = fl.propagator(md.build_schedule(model, params(gj, jt))).gf
            tr2 = (gf[0, 0] + gf[1, 1]) / 2
            return float((np.linalg.det(gf) - tr2 * tr2).real)

        vals = [disc(gj) for gj in gammas]
        for i in range(len(gammas) - 1):
            if vals[i] == 0.0 or vals[i] * vals[i + 1] > 0:
                continue
            root = brentq(disc, max(gammas[i], 1e-9), gammas[i + 1], xtol=1e-10)
            analytic = ""
            if static:
                analytic = repr(1.0)
            elif model is md.Model.CLASSICAL and 0.0 < np.cos(jt / 2) < 1.0:
                analytic = repr(md.classical_ep_gamma(jt))
            contour.append(f"{float(root)!r},{float(jt)!r},{analytic}")
    return "\n".join(grid) + "\n", "\n".join(contour) + "\n", failures


class TestParser:
    def test_built_once_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_commands_are_looked_up_per_call(self, monkeypatch):
        cli.main(["verify", "--tol-override", "1"])
        monkeypatch.setattr(cli, "run_verify", lambda args: 7)
        assert cli.main(["verify"]) == 7

    def test_second_command_sees_none_of_the_first_options(self, tmp_path):
        first = ["trace", "--model", "quantum-dimer", "--gamma", "0.9", "--JT", "2",
                 "--psi0", "1,0;0,1", "--periods", "2", "--steps-per-period", "3",
                 "--format", "json", "--out", str(tmp_path / "trace")]
        second = ["static", "--model", "classical-dimer", "--out", str(tmp_path / "a")]
        assert run(first) == 0
        args = cli.build_parser().parse_args(second)
        assert args.command == "static"
        assert (args.gamma, args.JT, args.format) == (0.5, 1.0, "csv,json")
        assert not {"psi0", "periods", "steps_per_period", "grid"} & set(vars(args))
        assert run(second) == 0
        cli.build_parser.cache_clear()
        assert run(second[:-1] + [str(tmp_path / "b")]) == 0
        for name in ("static_report.json", "liouvillian_spectrum.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestDeterminism:
    def test_repeated_runs_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        args = ["floquet", "--model", "quantum-dimer", "--gamma", "0.5", "--JT", "1"]
        assert run(args + ["--out", str(out_a)]) == 0
        assert run(args + ["--out", str(out_b)]) == 0
        for name in ("floquet_report.json", "floquet_multipliers.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_no_raw_numpy_reprs_in_csv(self, tmp_path):
        assert run(
            ["trace", "--model", "quantum-dimer", "--periods", "2",
             "--steps-per-period", "4", "--out", str(tmp_path)]
        ) == 0
        text = (tmp_path / "trace.csv").read_text()
        assert "np.float64" not in text
        assert "(" not in text


class TestVerify:
    def test_passes_at_default_tolerances(self, capsys):
        code, cap = run(["verify"], capsys)
        assert code == 0
        assert "FAIL" not in cap.out
        assert cap.out.count("[PASS]") >= 10

    def test_unreachable_tolerance_exits_3(self, capsys):
        code, cap = run(["verify", "--tol-override", "1e-300"], capsys)
        assert code == 3
        assert "[FAIL]" in cap.out


def list_form(x):
    """`x` with every array and complex number spelled out as Python lists."""
    if isinstance(x, np.ndarray):
        return list_form(x.item()) if x.ndim == 0 else [list_form(v) for v in x]
    if isinstance(x, complex):
        return [float(x.real), float(x.imag)]
    if isinstance(x, dict):
        return {k: list_form(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [list_form(v) for v in x]
    if isinstance(x, float):
        return float(x)
    return x


def assert_canonical_json(out):
    files = sorted(Path(out).glob("*.json"))
    assert files
    for path in files:
        text = path.read_text()
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n", path.name


def per_sample_trace_tables(argv):
    """trace.csv and trace_<label>.dat texts formatted one sample at a time."""
    args = cli.build_parser().parse_args(argv)
    sched = cli.resolve_schedule(args, periodic=True)
    fp = fl.propagator(sched, args.tol_eig)
    ops = fl.floquet_eigen_operators(fp.gf, args.tol_eig, args.tol_rank)
    series = fl.evolve_trace(
        sched, cli.parse_psi0(args.psi0), [e.op for e in ops],
        steps_per_period=args.steps_per_period, periods=args.periods,
    )
    r = lambda x: repr(float(x))  # noqa: E731
    strobe = set(series.stroboscopic_indices.tolist())
    csv = ["t_over_T,operator_label,re_value,im_value,is_stroboscopic,"
           "re_lambda_pow_t,im_lambda_pow_t,normalized"]
    dat = {}
    for a, op in enumerate(ops):
        label = f"eta{a + 1}"
        loglam = np.log(op.rate)
        lines = ["# t_over_T re_value im_value re_ref"]
        for i, t in enumerate(series.times):
            v = series.values[a, i]
            ref = np.exp(loglam * t)
            csv.append(f"{r(t)},{label},{r(v.real)},{r(v.imag)},{int(i in strobe)},"
                       f"{r(ref.real)},{r(ref.imag)},{int(series.normalized[a])}")
            lines.append(f"{r(t)} {r(v.real)} {r(v.imag)} {r(ref.real)}")
        dat[label] = "\n".join(lines) + "\n"
    return "\n".join(csv) + "\n", dat


DIMER_COMMANDS = [
    ["static", "--gamma", "0.5"],
    ["static", "--gamma", "1.5"],
    ["floquet", "--gamma", "0.5", "--JT", "1"],
    ["floquet", "--gamma", "1.2", "--JT", "2"],
    ["trace", "--gamma", "0.5", "--JT", "1.3", "--periods", "3", "--steps-per-period", "5",
     "--format", "csv,json,gnuplot"],
    ["scan", "--grid", "0:2:9,0.5:3:4"],
]


class TestOutputBytes:
    def test_json_writer_matches_json_dumps(self, tmp_path):
        z = np.array([-0.0 + 5e-324j, 1e308 - 0.0j, 0.1 - 1e-300j])
        report = {
            "vector": z,
            "matrix": np.array([[1 + 1j, -0.0 + 0.0j], [5e-324 - 1e308j, 3j]]),
            "scalar": np.array(2.5 - 0.0j),
            "rate": complex(-0.0, 1e308),
            "reals": np.array([0.5, -0.0, 1e308, 5e-324]),
            "nested": [z[:1], {"b": None, "a": True, "c": False}, [], {}, 7, "é\"x"],
            "zero": 0.0,
            "stack": np.arange(24, dtype=float).reshape(2, 3, 4) - 11.5,
        }
        path = tmp_path / "report.json"
        cli._write_json(path, report)
        assert path.read_text() == json.dumps(list_form(report), indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize(
        "bad",
        [np.array([1.0, np.nan]), np.array([[1j, complex(np.inf, 0)]]), float("-inf"),
         complex(0, np.nan)],
    )
    def test_json_writer_refuses_non_finite(self, tmp_path, bad):
        path = tmp_path / "report.json"
        with pytest.raises(NumericalError, match="report.json"):
            cli._write_json(path, {"ok": [1.0], "bad": [bad]})
        assert not path.exists()

    @pytest.mark.parametrize("model", ["quantum-dimer", "classical-dimer"])
    @pytest.mark.parametrize("command", DIMER_COMMANDS, ids=lambda c: "-".join(c[:3]))
    def test_dimer_json_is_canonical(self, tmp_path, model, command):
        assert run(command[:1] + ["--model", model] + command[1:] + ["--out", str(tmp_path)]) == 0
        assert_canonical_json(tmp_path)

    @pytest.mark.parametrize("command", [["static"], ["floquet", "--JT", "0.7"]])
    def test_random_input_json_is_canonical(self, tmp_path, command):
        h = random_pt_symmetric(np.random.default_rng(7), 4)
        path = tmp_path / "h.json"
        path.write_text(json.dumps({"matrix": [[[z.real, z.imag] for z in row] for row in h]}))
        out = tmp_path / "out"
        assert run(command + ["--input", str(path), "--out", str(out)]) == 0
        assert_canonical_json(out)

    @pytest.mark.parametrize("model", ["quantum-dimer", "classical-dimer"])
    def test_trace_tables_match_per_sample_formatting(self, tmp_path, model):
        argv = ["trace", "--model", model, "--gamma", "1.2", "--JT", "1.3", "--periods", "6",
                "--steps-per-period", "7", "--psi0", "0.6,0.1;-0.3,0.7",
                "--format", "csv,gnuplot", "--out", str(tmp_path)]
        assert run(argv) == 0
        csv, dat = per_sample_trace_tables(argv)
        assert (tmp_path / "trace.csv").read_text() == csv
        for label, text in dat.items():
            assert (tmp_path / f"trace_{label}.dat").read_text() == text


def readme_commands():
    """The argument lists of the `intertwine ...` lines in README.md's sh block under "Command line"."""
    section = README.read_text().split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = (shlex.split(line) for line in block.replace("\\\n", " ").splitlines())
    return [argv[1:] for argv in lines if argv[:1] == ["intertwine"]]


class TestReadme:
    def test_every_command_has_an_example(self):
        assert sorted(argv[0] for argv in readme_commands()) == ["floquet", "scan", "static", "trace", "verify"]

    @pytest.mark.parametrize("argv", readme_commands(), ids=lambda argv: argv[0])
    def test_command_line_example_runs(self, tmp_path, argv):
        argv = list(argv)
        if "--out" in argv:
            at = argv.index("--out") + 1
            argv[at] = str(tmp_path / argv[at])
        assert run(argv) == 0


class TestStartup:
    def test_import_leaves_scipy_optimize_unloaded(self, tmp_path):
        src = str(Path(cli.__file__).resolve().parents[1])
        code = "import sys, intertwine.cli; print('scipy.optimize' in sys.modules)"
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={"PYTHONPATH": src},
        )
        assert done.stdout.strip() == "False"
        # nor does a scan, whose EP contour is refined by models.brent_roots
        scan = ["scan", "--model", "classical-dimer", "--grid", "0:2:11,0.5:3:6",
                "--out", str(tmp_path)]
        code = f"import sys, intertwine.cli as c; c.main({scan!r}); print('scipy.optimize' in sys.modules)"
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={"PYTHONPATH": src},
        )
        assert done.stdout.splitlines()[-1] == "False"
        assert (tmp_path / "contour.csv").read_text().count("\n") > 1
