"""Golden CLI outputs: fixed ``--no-manifest`` runs compared with committed files.

Covers ``verify-spectra`` on a 12x12 grid, a 21-point ``compare-states``
table and, for the 33 paper (channel, gamma) cases, the ``zones`` and
``sweep`` commands of ``scripts/reproduce_figures.py``, which defines them;
the sweeps run at 41 points. Zone documents and
every non-numeric CSV field must match byte for byte. A numeric CSV field may
move by one unit in its 9th significant digit or by 1e-14 absolute, because
reordering a floating-point sum moves digits that are only rounding noise.

After an intended output change, regenerate the files with

    PYTHONPATH=src python tests/test_golden.py

It rewrites only the files whose current output fails this comparison.
"""

from __future__ import annotations

import contextlib
import io
import math
import shutil
import sys
from pathlib import Path

import pytest

from esdscan.cli import main

from conftest import load_script

figures = load_script("reproduce_figures")

GOLDEN = Path(__file__).parent / "golden"
VERIFY_ARGV = ["verify-spectra", "--gamma-steps", "12", "--steps", "12", "--no-manifest"]
COMPARE_STATES_ARGV = ["compare-states", "--steps", "21", "--no-manifest"]
ABS_SLACK = 1e-14


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _outputs() -> dict[str, tuple[list[str], int]]:
    """Golden file name -> (argv, expected exit code)."""
    files = {"verify_spectra.csv": (VERIFY_ARGV, 2),
             "compare_states.csv": (COMPARE_STATES_ARGV, 0)}
    for channel, gamma in figures.CASES:
        tag = figures.tag(channel, gamma)
        files[f"zones/{tag}.json"] = (figures.zones_argv(channel, gamma) + ["--no-manifest"], 0)
        files[f"sweep/{tag}.csv"] = (figures.sweep_argv(channel, gamma, 41) + ["--no-manifest"], 0)
    return files


OUTPUTS = _outputs()


def _number(field: str) -> float | None:
    try:
        value = float(field)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def _fields_match(got: str, want: str) -> bool:
    if got == want:
        return True
    a, b = _number(got), _number(want)
    if a is None or b is None:
        return False
    unit = 10.0 ** (math.floor(math.log10(abs(b))) - 8) if b else 0.0
    return abs(a - b) <= max(ABS_SLACK, unit * (1 + 1e-9))


def _mismatch(name: str, got: str, want: str) -> str | None:
    """Why ``got`` fails the comparison with golden file ``name``, or None if it passes.

    CSV files compare field by field within the numeric slack, others byte for byte.
    """
    if not name.endswith(".csv"):
        return None if got == want else f"{got!r} != {want!r}"
    got_lines, want_lines = got.split("\n"), want.split("\n")
    if len(got_lines) != len(want_lines):
        return f"{len(got_lines)} lines, expected {len(want_lines)}"
    for n, (g, w) in enumerate(zip(got_lines, want_lines), start=1):
        gf, wf = g.split(","), w.split(",")
        if len(gf) != len(wf):
            return f"line {n}: {g!r} != {w!r}"
        bad = [(x, y) for x, y in zip(gf, wf) if not _fields_match(x, y)]
        if bad:
            return f"line {n}: fields {bad} outside the golden tolerance"
    return None


def _texts(name: str, out: str, err: str) -> dict[str, str]:
    """Golden file name -> the text it must match, for one command's output."""
    texts = {name: out}
    if name == "verify_spectra.csv":
        texts["verify_spectra.stderr"] = err
    return texts


@pytest.mark.parametrize("name", sorted(OUTPUTS))
def test_cli_output_matches_golden(name):
    argv, expected_code = OUTPUTS[name]
    code, out, err = _run(argv)
    assert code == expected_code
    for file, text in _texts(name, out, err).items():
        assert _mismatch(file, text, (GOLDEN / file).read_text(encoding="utf-8")) is None


def test_numeric_fields_tolerance():
    assert _fields_match("0.123456789", "0.123456788")
    assert not _fields_match("0.123456789", "0.123456787")
    assert _fields_match("0", "5.55e-17")
    assert not _fields_match("0", "5.55e-12")
    assert _fields_match("1", "0.999999999")
    assert not _fields_match("nan", "0")
    assert not _fields_match("bitflip", "phaseflip")


def regenerate(golden: Path = GOLDEN) -> int:
    """Rewrite each golden file the current output fails to match; return how many."""
    written = 0
    for name, (argv, expected_code) in OUTPUTS.items():
        code, out, err = _run(argv)
        if code != expected_code:
            raise SystemExit(f"{' '.join(argv)} exited {code}, expected {expected_code}")
        for file, text in _texts(name, out, err).items():
            path = golden / file
            if path.exists() and _mismatch(file, text, path.read_text(encoding="utf-8")) is None:
                continue  # rounding noise the test accepts is not a change
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")
            written += 1
    print(f"wrote {written} of {len(OUTPUTS) + 1} files under {golden}", file=sys.stderr)
    return written


def test_regenerate_keeps_matching_files(tmp_path):
    golden = tmp_path / "golden"
    shutil.copytree(GOLDEN, golden)
    before = {p: p.read_bytes() for p in golden.rglob("*") if p.is_file()}
    assert regenerate(golden) == 0
    assert {p: p.read_bytes() for p in golden.rglob("*") if p.is_file()} == before


if __name__ == "__main__":
    regenerate()
