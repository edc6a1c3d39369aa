"""Acceptance gate: nine criteria, one verdict line each.

Each test prints exactly one ``criterion N: PASS/FAIL`` line (also echoed in
the terminal summary) carrying the measured values next to their gates, then
asserts the verdict.  Criteria 4-7 drive the installed command-line interface
in subprocesses, once with ``--threads 1`` and once with ``--threads 4``; the
byte comparison of those outputs is criterion 9.

Two criteria are expected to fail honestly at desk scale with this build's
calibration:
  - criterion 5: the distinct-factor mean trails its predicted value by a
    near-constant ~2.3 at 10^5..10^7, above the 1.5 gate (the gap is stable,
    so the trend gates pass; the with-multiplicity mean would pass the same
    gate with ~0.7 to spare).
  - criterion 7: mean omega / (C ln ln x) reaches only ~0.72 at 10^8,
    below the [0.8, 1.2] window; the fitted exponent gate passes.
The module docstrings and README document both as calibration-gate
mismatches, not implementation defects.
"""

import itertools
import math
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from densediv import (
    DENSITY_SCALE,
    SolverConfig,
    ThetaFamily,
    check_partition_identity,
    check_shifted_partition_identity,
    expected_distinct_factors,
    is_dense_by_divisor_scan,
    is_dense_by_ratio_bound,
    is_member,
    is_practical_by_subset_sums,
    log_moment_gap,
    tabulate_buchstab,
    tabulate_density_kernel,
    weight_series_partial_sum,
    weighted_log_moment_sum,
)

from conftest import ACCEPTANCE_LINES

DENSE2 = ThetaFamily.dense(2)
DENSE3 = ThetaFamily.dense(3)
PRACTICAL = ThetaFamily("practical")

#: (label, stdout from --threads 1, stdout from --threads 4) per CLI run,
#: accumulated by criteria 4-7 and compared byte-for-byte by criterion 9.
_THREAD_PAIRS: list[tuple[str, bytes, bytes]] = []


def record(num: int, ok: bool, detail: str) -> bool:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    return ok


def run_cli(label: str, args: list[str]) -> tuple[int, list[str]]:
    """Run one CLI command twice (1 and 4 workers) and stash the pair."""
    outputs = []
    code = 0
    for threads in ("1", "4"):
        proc = subprocess.run(
            [sys.executable, "-m", "densediv.cli", *args, "--threads", threads],
            capture_output=True,
        )
        outputs.append(proc.stdout)
        code = proc.returncode
    _THREAD_PAIRS.append((label, outputs[0], outputs[1]))
    return code, outputs[0].decode().splitlines()


def test_criterion_1_exact_identity_suite(table):
    start = time.perf_counter()
    families = [("dense2", DENSE2), ("dense3", DENSE3), ("practical", PRACTICAL)]
    mismatches: list[tuple] = []
    checks = 0
    for name, family in families:
        for x in itertools.chain(range(1, 1001), (10**4, 10**5)):
            checks += 1
            if not check_partition_identity(family, x, table).passed:
                mismatches.append((name, x))
                break
    for name, family in families:
        for x in (10**3, 10**4):
            for qs in ([2], [3], [5], [2, 2], [2, 3], [3, 5]):
                checks += 1
                res = check_shifted_partition_identity(family, x, qs, table)
                if not res.passed:
                    mismatches.append((name, x, tuple(qs)))
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 60.0
    assert record(
        1,
        ok,
        f"{checks} exact partition checks, {len(mismatches)} mismatches, "
        f"runtime {elapsed:.1f}s (gate: 0 mismatches, < 60s)",
    ), mismatches


def test_criterion_2_membership_oracles(table):
    bad_practical = sum(
        1
        for n in range(1, 10**4 + 1)
        if is_member(n, PRACTICAL, table) != is_practical_by_subset_sums(n)
    )
    bad_dense = 0
    for t in (Fraction(2), Fraction(5, 2), Fraction(3), Fraction(10)):
        family = ThetaFamily.dense(t)
        num, den = t.numerator, t.denominator
        for n in range(1, 10**5 + 1):
            member = is_member(n, family, table)
            if member != is_dense_by_ratio_bound(n, num, den, table):
                bad_dense += 1
            elif member != is_dense_by_divisor_scan(n, num, den):
                bad_dense += 1
    ok = bad_practical == 0 and bad_dense == 0
    assert record(
        2,
        ok,
        f"practical vs subset-sum to 1e4: {bad_practical} mismatches; "
        f"dense vs ratio-bound and divisor-scan to 1e5 x 4 ratios: "
        f"{bad_dense} mismatches (gate: zero)",
    )


def test_criterion_3_special_functions():
    w = tabulate_buchstab(SolverConfig(step=1e-3, max_abscissa=64.0))
    w_err = abs(w(3.0) - (1 + math.log(2)) / 3)
    w_lo, w_hi = float(w.values.min()), float(w.values.max())
    w_half = tabulate_buchstab(SolverConfig(step=5e-4, max_abscissa=25.0))
    w_grid = np.linspace(1.0, 25.0, 2001)
    w_conv = max(abs(w(float(u)) - w_half(float(u))) for u in w_grid)

    wd = tabulate_buchstab(SolverConfig(step=5e-4, max_abscissa=26.0))
    d = tabulate_density_kernel(SolverConfig(step=1e-3, max_abscissa=25.0), wd)
    m = round(1.0 / d.step)
    d_unit_exact = bool(np.all(d.values[: m + 1] == 1.0))
    d_err = abs(d(2.0) - (1 - math.log(4 / 3)))
    d_half = tabulate_density_kernel(SolverConfig(step=5e-4, max_abscissa=25.0), wd)
    d_grid = np.linspace(0.0, 25.0, 2001)
    d_conv = max(abs(d(float(v)) - d_half(float(v))) for v in d_grid)
    gaps = [abs((v + 1) * d(v) - DENSITY_SCALE) for v in (6.0, 12.0, 24.0)]

    ok = (
        w_err <= 1e-6
        and (w_lo, w_hi) == (0.5, 1.0)
        and w_conv <= 5e-6
        and d_unit_exact
        and d_err <= 1e-5
        and d_conv <= 5e-6
        and gaps[0] > gaps[1] > gaps[2]
        and gaps[2] <= 0.05
    )
    assert record(
        3,
        ok,
        f"w(3) err {w_err:.2e} (<=1e-6), w range [{w_lo},{w_hi}] (=[0.5,1]), "
        f"d==1 on [0,1]: {d_unit_exact}, d(2) err {d_err:.2e} (<=1e-5), "
        f"halving sup-norms w {w_conv:.2e} / d {d_conv:.2e} (<=5e-6), "
        f"(v+1)d(v) gaps {gaps[0]:.4f}>{gaps[1]:.4f}>{gaps[2]:.4f} (last <=0.05)",
    )


def test_criterion_4_counting_fixtures():
    fixtures = [
        (["count", "--family", "dense", "--t", "2", "--x", "20"], "9"),
        (["count", "--family", "dense", "--t", "2", "--x", "20", "--q", "2"], "8"),
        (["count", "--family", "practical", "--x", "20"], "9"),
    ]
    fixture_ok = True
    got = []
    for args, expect in fixtures:
        code, out = run_cli("count:" + " ".join(args[1:]), args)
        got.append(out[0])
        fixture_ok = fixture_ok and code == 0 and out == [expect]
    code, out = run_cli(
        "count-ratio",
        ["experiment", "count-ratio", "--t", "2",
         "--xs", "10000,100000,1000000,10000000"],
    )
    ratios = [float(line.split(",")[3]) for line in out[1:]]
    ratio_ok = code == 0 and all(0.3 <= r <= 5.0 for r in ratios)
    stable = abs(ratios[-1] / ratios[-2] - 1.0)
    ok = fixture_ok and ratio_ok and stable <= 0.10
    assert record(
        4,
        ok,
        f"counts(20)={','.join(got)} (=9,8,9); envelope ratios "
        f"{ratios[0]:.3f}..{ratios[-1]:.3f} in [0.3,5]; stabilization "
        f"{stable:.4f} (<=0.10)",
    )


def test_criterion_5_mean_omega_concentration():
    xs = (10**5, 10**6, 10**7)
    rows = {}
    for x in xs:
        code, out = run_cli(
            f"stats:{x}",
            ["stats", "--family", "dense", "--t", "2", "--x", str(x)],
        )
        assert code == 0
        fields = out[1].split(",")
        rows[x] = {
            "mean_omega": float(fields[3]),
            "variance": float(fields[5]),
            "expected": float(fields[8]),
            "exceed": float(fields[9]),
        }
    gaps = {x: abs(rows[x]["mean_omega"] - rows[x]["expected"]) for x in xs}
    excs = [rows[x]["exceed"] for x in xs]
    gate_mean = gaps[10**7] <= 1.5
    gate_trend = gaps[10**7] <= gaps[10**5] + 0.1
    gate_exceed = excs[-1] <= 0.15 and all(
        b <= a + 1e-5 for a, b in zip(excs, excs[1:])
    )
    gate_var = all(
        rows[x]["variance"] <= 3 * math.log(math.log(x)) for x in xs[1:]
    )
    ok = gate_mean and gate_trend and gate_exceed and gate_var
    assert record(
        5,
        ok,
        f"mean-omega gap at 1e7: {gaps[10**7]:.4f} (gate <=1.5: "
        f"{'ok' if gate_mean else 'FAIL'}); gap drift 1e5->1e7 "
        f"{gaps[10**7] - gaps[10**5]:+.4f} (<=+0.1); exceedance "
        f"{excs[0]:.2e},{excs[1]:.2e},{excs[2]:.2e} (<=0.15, non-increasing "
        f"+1e-5); variance <= 3 lnln x: {'ok' if gate_var else 'FAIL'}",
    )


def test_criterion_6_filtered_coefficient_structure():
    code, out = run_cli(
        "cq-structure",
        ["experiment", "cq-structure", "--t", "54.598", "--x", "100000000",
         "--qs", "2,3,5,7"],
    )
    rows = [line.split(",") for line in out[1:] if line.split(",")[2] != "1"]
    measured = [float(r[3]) for r in rows]
    rels = [float(r[5]) for r in rows]
    increasing = all(b > a for a, b in zip(measured, measured[1:]))
    ok = code == 0 and len(rows) == 4 and max(rels) <= 0.30 and increasing
    assert record(
        6,
        ok,
        f"q*c_q - c_1 for q=2,3,5,7: {', '.join(f'{v:.4f}' for v in measured)}; "
        f"rel errs vs C ln q: {', '.join(f'{r:.3f}' for r in rels)} "
        f"(<=0.30); increasing: {increasing}",
    )


def test_criterion_7_margenstern_tables():
    code, out = run_cli(
        "margenstern",
        ["experiment", "margenstern",
         "--xs", "10000,100000,1000000,10000000,100000000"],
    )
    rows = [line.split(",") for line in out[1:]]
    fit = [r for r in rows if r[6] == "tau_exponent_fit"][0]
    slope = float(fit[3])
    omega_rows = [r for r in rows if r[6] == "mean_omega"]
    last = omega_rows[-1]
    ratio = float(last[3]) / float(last[4])
    csv_ok = out[0] == "x,t,q,measured,predicted,rel_err,metric" and len(rows) == 16
    gate_slope = 0.5 <= slope <= 0.9
    gate_ratio = 0.8 <= ratio <= 1.2
    ok = csv_ok and gate_slope and gate_ratio and code == 0
    assert record(
        7,
        ok,
        f"tau-exponent fit {slope:.4f} (in [0.5,0.9]: "
        f"{'ok' if gate_slope else 'FAIL'}); mean omega/(C lnln x) at 1e8: "
        f"{ratio:.4f} (in [0.8,1.2]: {'ok' if gate_ratio else 'FAIL'}); "
        f"CSV rows {len(rows)}",
    )


def test_criterion_8_series_convergence():
    sums = [
        weight_series_partial_sum(DENSE2, 1.0, n)
        for n in (10**3, 10**4, 10**5, 10**6)
    ]
    lam_ok = sums == sorted(sums) and sums[-1] >= 0.93
    mu_small = abs(weighted_log_moment_sum(DENSE2, 1.5, 10**3))
    mu_large = abs(weighted_log_moment_sum(DENSE2, 1.5, 10**6))
    mu_ok = mu_large <= 0.05 and mu_large < mu_small
    gap_ok = True
    gap_text = []
    for t in (Fraction(2), Fraction(10)):
        gaps = [log_moment_gap(n, t) for n in (10**2, 10**3, 10**4)]
        gap_ok = gap_ok and gaps[0] > gaps[1] > gaps[2]
        gap_text.append(f"t={t}: {gaps[0]:.4f}>{gaps[1]:.4f}>{gaps[2]:.4f}")
    ok = lam_ok and mu_ok and gap_ok
    assert record(
        8,
        ok,
        f"weight partial sums {sums[0]:.4f}..{sums[-1]:.4f} nondecreasing, "
        f"last >=0.93; |log-moment series| {mu_small:.4f}->{mu_large:.6f} "
        f"(<=0.05 and shrinking, s=1.5); limit gaps decreasing "
        f"({'; '.join(gap_text)})",
    )


def test_criterion_9_thread_determinism():
    assert _THREAD_PAIRS, "criteria 4-7 must run first"
    diffs = [label for label, one, four in _THREAD_PAIRS if one != four]
    ok = not diffs
    assert record(
        9,
        ok,
        f"{len(_THREAD_PAIRS)} CLI commands from criteria 4-7 byte-identical "
        f"across --threads 1 vs 4; mismatches: {diffs if diffs else 'none'}",
    )
