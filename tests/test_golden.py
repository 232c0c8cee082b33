"""Byte-identity corpus: every output file and stdout line of a fixed set of CLI runs.

The expected outputs under tests/data/golden were written by the program
itself.  After a deliberate output change (recorded in CHANGES.md),
rewrite them with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import shutil
import tempfile
from pathlib import Path

import pytest

from intertwine import cli

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"
# a seeded N=4 PT-symmetric matrix, checked in as its own input file
H4 = GOLDEN / "h4.json"
# an N=3 schedule with kicks before, between and after its two segments
KICKED3 = GOLDEN / "kicked3.json"
STDOUT = "stdout.txt"


def _cases() -> dict[str, list[str]]:
    cases = {}
    for model in ("quantum-dimer", "classical-dimer"):
        # 0.99999999: the rank-1 static route next to the exceptional point
        for gamma in ("0.5", "1.5", "0.99999999"):
            cases[f"static-{model}-{gamma}"] = ["static", "--model", model, "--gamma", gamma]
        for gamma, jt in (("0.5", "1"), ("1.2", "1.3")):
            cases[f"floquet-{model}-{gamma}-{jt}"] = [
                "floquet", "--model", model, "--gamma", gamma, "--JT", jt]
        cases[f"trace-{model}"] = [
            "trace", "--model", model, "--gamma", "0.5", "--JT", "1", "--periods", "4",
            "--steps-per-period", "8", "--format", "csv,json,gnuplot"]
        cases[f"scan-{model}"] = ["scan", "--model", model, "--grid", "0:2:11,0.5:3:6"]
    # denser scans: more contour points, two of them in the first interval
    # of a classical row (the floor path of contour_roots)
    dense = "0:2.4:25,0.3:3.3:13"
    cases["scan-classical-dimer-dense"] = ["scan", "--model", "classical-dimer", "--grid", dense]
    cases["scan-quantum-dimer-dense"] = [
        "scan", "--model", "quantum-dimer", "--grid", dense, "--J", "2"]
    cases["static-n4"] = ["static", "--input", str(H4)]
    cases["floquet-n4"] = ["floquet", "--input", str(H4), "--JT", "0.7"]
    cases["trace-n4"] = [
        "trace", "--input", str(H4), "--JT", "0.7", "--periods", "3", "--steps-per-period", "7",
        "--format", "csv,json,gnuplot"]
    # 5 steps per period: the sample at t = 0.4 T falls on the middle kick
    cases["trace-kicked3"] = [
        "trace", "--input", str(KICKED3), "--periods", "3", "--steps-per-period", "5",
        "--format", "csv,json,gnuplot"]
    cases["verify"] = ["verify"]
    return cases


CASES = _cases()


def run_case(argv: list[str], out: Path) -> dict[str, bytes]:
    """Run one command into `out`; its files and its stdout (as STDOUT), by name."""
    if argv[0] != "verify":
        argv = [*argv, "--out", str(out)]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(argv)
    assert code == 0, f"{' '.join(argv)} exited {code}"
    files = {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else {}
    files[STDOUT] = stdout.getvalue().encode()
    return files


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_are_byte_identical(tmp_path, name):
    got = run_case(CASES[name], tmp_path / "out")
    pinned = GOLDEN / name
    want = {p.name: p.read_bytes() for p in pinned.iterdir()}
    assert sorted(got) == sorted(want)
    for fname in sorted(want):
        assert got[fname] == want[fname], f"{name}/{fname} differs"


def regenerate() -> None:
    for name, argv in CASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            files = run_case(argv, Path(tmp) / "out")
        target = GOLDEN / name
        shutil.rmtree(target, ignore_errors=True)
        target.mkdir()
        for fname, data in files.items():
            (target / fname).write_bytes(data)


if __name__ == "__main__":
    regenerate()
