"""Golden CLI outputs: fixed ``--no-manifest`` runs compared with committed files.

Covers ``verify-spectra`` on a 12x12 grid, ``zones`` for the 33 paper
(channel, gamma) cases and the matching 41-point sweeps. Zone documents and
every non-numeric CSV field must match byte for byte. A numeric CSV field may
move by one unit in its 9th significant digit or by 1e-14 absolute, because
reordering a floating-point sum moves digits that are only rounding noise.

After an intended output change, regenerate the files with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import math
import sys
from pathlib import Path

import pytest

from esdscan.cli import main

GOLDEN = Path(__file__).parent / "golden"

FLIP_GAMMAS = (0.2, 0.4, 0.66, 0.866, 0.9666, 1.0)
DAMPING_GAMMAS = (0.2, 0.4, 0.66, 0.866, 1.0)
CASES = [(ch, g) for ch in ("bitflip", "phaseflip", "bitphaseflip") for g in FLIP_GAMMAS] + [
    (ch, g) for ch in ("amplitudedamping", "phasedamping", "depolarizing") for g in DAMPING_GAMMAS
]
VERIFY_ARGV = ["verify-spectra", "--gamma-steps", "12", "--steps", "12", "--no-manifest"]
ABS_SLACK = 1e-14


def _tag(channel: str, gamma: float) -> str:
    return f"{channel}_g{gamma:g}".replace(".", "p")


def _zones_argv(channel: str, gamma: float) -> list[str]:
    return ["zones", "--channel", channel, "--gamma", str(gamma), "--no-manifest"]


def _sweep_argv(channel: str, gamma: float) -> list[str]:
    argv = ["sweep", "--channel", channel, "--gamma", str(gamma), "--steps", "41",
            "--no-manifest"]
    # bit-phase flip's tabulated spectra do not evaluate over most of [0, 1]
    return argv if channel == "bitphaseflip" else argv + ["--engine", "closedform"]


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _outputs() -> dict[str, tuple[list[str], int]]:
    """Golden file name -> (argv, expected exit code)."""
    files = {"verify_spectra.csv": (VERIFY_ARGV, 2)}
    for channel, gamma in CASES:
        files[f"zones/{_tag(channel, gamma)}.json"] = (_zones_argv(channel, gamma), 0)
        files[f"sweep/{_tag(channel, gamma)}.csv"] = (_sweep_argv(channel, gamma), 0)
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


def _assert_csv_matches(got: str, want: str) -> None:
    got_lines, want_lines = got.split("\n"), want.split("\n")
    assert len(got_lines) == len(want_lines)
    for n, (g, w) in enumerate(zip(got_lines, want_lines), start=1):
        gf, wf = g.split(","), w.split(",")
        assert len(gf) == len(wf), f"line {n}: {g!r} != {w!r}"
        bad = [(x, y) for x, y in zip(gf, wf) if not _fields_match(x, y)]
        assert not bad, f"line {n}: fields {bad} outside the golden tolerance"


@pytest.mark.parametrize("name", sorted(OUTPUTS))
def test_cli_output_matches_golden(name):
    argv, expected_code = OUTPUTS[name]
    code, out, err = _run(argv)
    assert code == expected_code
    want = (GOLDEN / name).read_text(encoding="utf-8")
    if name.endswith(".json"):
        assert out == want
    else:
        _assert_csv_matches(out, want)
    if name == "verify_spectra.csv":
        assert err == (GOLDEN / "verify_spectra.stderr").read_text(encoding="utf-8")


def test_numeric_fields_tolerance():
    assert _fields_match("0.123456789", "0.123456788")
    assert not _fields_match("0.123456789", "0.123456787")
    assert _fields_match("0", "5.55e-17")
    assert not _fields_match("0", "5.55e-12")
    assert _fields_match("1", "0.999999999")
    assert not _fields_match("nan", "0")
    assert not _fields_match("bitflip", "phaseflip")


def regenerate() -> None:
    for name, (argv, expected_code) in OUTPUTS.items():
        code, out, err = _run(argv)
        if code != expected_code:
            raise SystemExit(f"{' '.join(argv)} exited {code}, expected {expected_code}")
        path = GOLDEN / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(out, encoding="utf-8")
        if name == "verify_spectra.csv":
            (GOLDEN / "verify_spectra.stderr").write_text(err, encoding="utf-8")
    print(f"wrote {len(OUTPUTS) + 1} files under {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
