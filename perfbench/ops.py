"""Seeded workload generator and output checks for the densediv benchmark.

A workload is a fixed list of CLI ops.  The seed selects one of VARIANTS
input variants: variant 0 (the default seed) uses the base inputs
unchanged, so the pinned anchor counts apply to it; every other variant
moves each x (and the dfun range) by at most PERTURB and picks the dense t
and the divisor filter q from small fixed sets.  The op mix and the
magnitude of every input never change, so a pass costs about the same
under every seed.  Expected outputs for all variants are recorded in
expected.json by ``run.py --record``; because the variant set is finite,
every seed is checked against a recorded output.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
from pathlib import Path

VARIANTS = 16
# Peak RSS of the frontier ops jumps by up to 5% when x moves by 1% (the
# expansion blocks split differently), so x moves by at most 0.25%.
PERTURB = 0.0025

# Relative tolerance for real-valued cells.  The CLI prints reals with 12
# significant digits, so this admits a change of summation order (a few
# units in the last printed digit) and nothing larger.
REL_TOL = 1e-9
ABS_TOL = 1e-12

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

# Counts pinned independently of the recording: (argv, line, column, value).
ANCHORS = (
    ("count --family dense --t 2 --x 10000000 --engine python --threads 2", 0, 0, 776087),
    ("count --family dense --t 2 --x 1000000000", 0, 0, 60447501),
    ("stats --family practical --x 100000000", 1, 2, 7266286),
)

# Data lines kept from a long output; the line count, a digest (integer-only
# outputs) or the column sums (outputs with reals) cover the rest.
_SAMPLE_LINES = 64


def ops_for(workload: str, seed: int) -> list[list[str]]:
    """The argv of every op of one pass, as the program receives them."""
    variant = seed % VARIANTS
    rng = random.Random(variant)

    def x(base: int) -> str:
        if variant == 0:
            return str(base)
        return str(round(base * (1 + rng.uniform(-PERTURB, PERTURB))))

    def pick(choices: tuple[str, ...]) -> str:
        return choices[0] if variant == 0 else rng.choice(choices)

    dense2 = ["--family", "dense", "--t", "2"]
    if workload == "count":
        return [
            ["count", *dense2, "--x", x(10**9)],
            ["count", "--family", "dense", "--t", pick(("5/2", "12/5", "8/3")),
             "--x", x(3 * 10**8), "--q", pick(("3", "5", "7"))],
            ["count", "--family", "practical", "--x", x(3 * 10**8)],
        ]
    if workload == "moments":
        return [
            ["stats", *dense2, "--x", x(5 * 10**8)],
            ["stats", "--family", "practical", "--x", x(10**8)],
            ["experiment", "tau-order", "--x", x(10**7)],
        ]
    if workload == "oracle":
        return [
            ["identity", "--check", "phi0", *dense2, "--x", x(10**7)],
            ["count", *dense2, "--x", x(10**7), "--engine", "python", "--threads", "2"],
        ]
    if workload == "tables":
        vmax = "32" if variant == 0 else f"{32 * (1 + rng.uniform(-PERTURB, PERTURB)):.3f}"
        return [
            ["enumerate", *dense2, "--x", x(3 * 10**6)],
            ["dfun", "--vmax", vmax, "--step", "1e-3"],
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("count", "moments", "oracle", "tables")
SETUP_OP = ["constants"]

# The baseline commands of ROADMAP.md, run once each by ``run.py --baseline``.
BASELINE = (
    ["count", "--family", "dense", "--t", "2", "--x", "1000000000"],
    ["stats", "--family", "dense", "--t", "2", "--x", "1000000000"],
    ["stats", "--family", "practical", "--x", "100000000"],
    ["identity", "--check", "phi0", "--family", "dense", "--t", "2", "--x", "10000000"],
    ["enumerate", "--family", "dense", "--t", "2", "--x", "10000000"],
    ["dfun", "--vmax", "32", "--step", "1e-3"],
    ["count", "--family", "dense", "--t", "2", "--x", "10000000", "--engine", "python", "--threads", "1"],
    ["count", "--family", "dense", "--t", "2", "--x", "10000000", "--engine", "python", "--threads", "2"],
)


def op_key(argv: list[str]) -> str:
    return " ".join(argv)


def _cell(text: str) -> int | float | str:
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _cells(line: str) -> list[int | float | str]:
    """CSV cells, or the whitespace-separated fields of a ``constants`` line."""
    return [_cell(c) for c in re.split(r",|\s+", line.strip())]


def _rows(stdout: str) -> list[list[int | float | str]]:
    return [_cells(line) for line in stdout.splitlines()]


def members_reported(argv: list[str], stdout: str) -> int:
    """Exact members an op reports: the count, the stats count, or CSV rows.

    A ``--q`` count reports only the members divisible by q, a share set by
    the seed's choice of q rather than by the work done, so it adds none.
    """
    rows = _rows(stdout)
    if argv[0] == "count":
        return 0 if "--q" in argv else rows[0][0]
    if argv[0] == "stats":
        return rows[1][2]
    if argv[0] == "enumerate":
        return len(rows) - 1
    return 0


def summarize(stdout: str) -> dict:
    """What expected.json keeps of one op's output."""
    lines = stdout.splitlines()
    rows = _rows(stdout)
    stride = max(1, math.ceil(len(lines) / _SAMPLE_LINES))
    keep = sorted({*range(0, len(lines), stride), len(lines) - 1} - {-1})
    summary = {"lines": len(lines), "sample": {str(i): lines[i] for i in keep}}
    if all(isinstance(c, (int, str)) for row in rows for c in row):
        summary["sha256"] = hashlib.sha256(stdout.encode()).hexdigest()
    else:
        summary["column_sums"] = _column_sums(rows)
    return summary


def _column_sums(rows) -> list[float]:
    width = max((len(r) for r in rows), default=0)
    sums = [0.0] * width
    for row in rows:
        for k, c in enumerate(row):
            if isinstance(c, (int, float)):
                sums[k] += c
    return sums


def _close(a, b) -> bool:
    if isinstance(a, int) and isinstance(b, int):
        return a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return abs(a - b) <= REL_TOL * max(abs(a), abs(b)) + ABS_TOL
    return a == b


def _same_line(got: str, want: str) -> bool:
    g, w = _cells(got), _cells(want)
    return len(g) == len(w) and all(_close(a, b) for a, b in zip(g, w))


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def check_output(argv: list[str], stdout: str, expected: dict) -> str | None:
    """None when the output is right, else a one-line reason."""
    key = op_key(argv)
    lines = stdout.splitlines()
    for anchor_argv, line, col, value in ANCHORS:
        if key == anchor_argv:
            try:
                got = int(lines[line].split(",")[col])
            except (IndexError, ValueError):
                return f"anchor cell {line},{col} missing"
            if got != value:
                return f"anchor {value} expected, got {got}"
    if argv[:3] == ["identity", "--check", "phi0"]:
        reason = _check_identity(argv, lines)
        if reason:
            return reason
    want = expected.get(key)
    if want is None:
        return "no recorded output for this argv"
    if len(lines) != want["lines"]:
        return f"{want['lines']} lines expected, got {len(lines)}"
    for index, line in want["sample"].items():
        if not _same_line(lines[int(index)], line):
            return f"line {index}: expected {line!r}, got {lines[int(index)]!r}"
    if "sha256" in want:
        if hashlib.sha256(stdout.encode()).hexdigest() != want["sha256"]:
            return "integer output differs from the recording"
    else:
        got_sums = _column_sums(_rows(stdout))
        if len(got_sums) != len(want["column_sums"]) or not all(
            _close(float(a), float(b)) for a, b in zip(got_sums, want["column_sums"])
        ):
            return "column sums differ from the recording"
    return None


def _check_identity(argv: list[str], lines: list[str]) -> str | None:
    """The exact partition identity must hold: pass=true and lhs == rhs == x."""
    x = argv[argv.index("--x") + 1]
    try:
        lhs, rhs, _gap, verdict = lines[1].split(",")
    except (IndexError, ValueError):
        return "identity output malformed"
    if verdict != "true" or lhs != rhs or rhs != x:
        return f"identity failed: lhs={lhs} rhs={rhs} pass={verdict} x={x}"
    return None
