"""Command-line interface tests: output fixtures, exit codes, atomic file
output, and worker-count invariance via in-process main() calls, plus
subprocess checks of the process entry point (imports, flush, closed pipe)."""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

# A CLI process loads experiments, identities and specfun only in the
# handlers that run them; the sys.modules sweeps below patch every loaded
# densediv module, so all of them are imported here.
import densediv
import densediv.arith
import densediv.cli
import densediv.experiments  # noqa: F401
import densediv.generate
import densediv.identities  # noqa: F401
import densediv.specfun  # noqa: F401
from densediv.cli import main

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out.splitlines(), captured.err


class TestEnumerate:
    def test_dense2_fixture(self, capsys):
        code, out, _ = run(capsys, ["enumerate", "--family", "dense", "--t", "2", "--x", "20"])
        assert code == 0
        assert out[0] == "n,omega,big_omega,tau,sigma"
        assert out[1] == "1,0,0,1,1"
        ns = [int(line.split(",")[0]) for line in out[1:]]
        assert ns == [1, 2, 4, 6, 8, 12, 16, 18, 20]
        assert out[6] == "12,2,3,6,28"

    def test_shifted2_keeps_three(self, capsys):
        code, out, _ = run(capsys, ["enumerate", "--family", "shifted2", "--x", "3"])
        assert code == 0
        assert [line.split(",")[0] for line in out[1:]] == ["1", "2", "3"]

    def test_rows_written_in_blocks(self, capsys, tmp_path, monkeypatch):
        # Block boundaries leave the bytes unchanged, on stdout and in --out.
        argv = ["enumerate", "--family", "practical", "--x", "3000"]
        _, whole, _ = run(capsys, argv)
        monkeypatch.setattr(densediv.cli, "_ROW_BLOCK", 7)
        code, blocked, _ = run(capsys, argv)
        assert code == 0 and blocked == whole and len(whole) > 100
        target = tmp_path / "members.csv"
        assert run(capsys, [*argv, "--out", str(target)])[:2] == (0, [])
        assert target.read_text() == "\n".join(whole) + "\n"
        assert os.listdir(tmp_path) == ["members.csv"]


class TestCount:
    def test_spot_values(self, capsys):
        code, out, _ = run(capsys, ["count", "--family", "dense", "--t", "2", "--x", "20"])
        assert (code, out) == (0, ["9"])
        code, out, _ = run(
            capsys, ["count", "--family", "dense", "--t", "2", "--x", "20", "--q", "2"]
        )
        assert (code, out) == (0, ["8"])
        code, out, _ = run(capsys, ["count", "--family", "practical", "--x", "20"])
        assert (code, out) == (0, ["9"])

    def test_engines_agree(self, capsys):
        base = ["count", "--family", "dense", "--t", "5/2", "--x", "150000"]
        _, out_py, _ = run(capsys, base + ["--engine", "python"])
        _, out_np, _ = run(capsys, base + ["--engine", "numpy"])
        assert out_py == out_np

    def test_scientific_integer_notation(self, capsys):
        _, out_sci, _ = run(capsys, ["count", "--family", "dense", "--t", "2", "--x", "1e3"])
        _, out_dec, _ = run(capsys, ["count", "--family", "dense", "--t", "2", "--x", "1000"])
        assert out_sci == out_dec

    def test_fractional_x_rejected(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["count", "--family", "dense", "--t", "2", "--x", "12.5"])
        assert info.value.code == 2
        capsys.readouterr()


class TestStats:
    def test_dense_row(self, capsys):
        code, out, _ = run(capsys, ["stats", "--family", "dense", "--t", "2", "--x", "1000"])
        assert code == 0
        assert out[0] == (
            "x,t,count,mean_omega,mean_big_omega,variance_omega,"
            "mean_tau,mean_log_tau,expected_omega,exceed_fraction"
        )
        fields = out[1].split(",")
        assert fields[0] == "1000" and fields[1] == "2"
        assert int(fields[2]) == 193
        assert float(fields[4]) >= float(fields[3])
        assert float(fields[8]) == pytest.approx(4.876236, abs=1e-5)

    def test_family_without_ratio_shows_zero_t(self, capsys):
        _, out, _ = run(capsys, ["stats", "--family", "practical", "--x", "100"])
        assert out[1].split(",")[1] == "0"


class TestTabulators:
    def test_wfun_grid(self, capsys):
        code, out, _ = run(capsys, ["wfun", "--umax", "4", "--step", "0.01"])
        assert code == 0
        assert out[0] == "abscissa,value"
        assert out[1] == "1,1"
        assert len(out) == 302  # header + 301 grid points
        u, value = out[101].split(",")
        assert float(u) == pytest.approx(2.0, abs=1e-9)
        assert float(value) == pytest.approx(0.5, abs=1e-9)

    def test_dfun_grid(self, capsys):
        code, out, _ = run(capsys, ["dfun", "--vmax", "4", "--step", "0.01"])
        assert code == 0
        assert out[1] == "0,1"
        assert len(out) == 402
        assert all(line.split(",")[1] == "1" for line in out[1:102])

    def test_bad_step_rejected(self, capsys):
        code, _, err = run(capsys, ["wfun", "--step", "0.5"])
        assert code == 2 and "error:" in err

    def test_dfun_bytes_pinned(self, capped_cli):
        # The benchmark's dfun op, run as a process whose march forks its
        # workers: a worker that flushed a copy of stdout would show here.
        out = capped_cli(["dfun", "--vmax", "32", "--step", "1e-3"], 0)
        assert hashlib.sha256(out).hexdigest() == (
            "b98a0403e33ad49d7e118444b60c3412e41ed5f34ec7ff5c56bc6795d7265f41"
        )


class TestConstants:
    def test_text_layout(self, capsys):
        code, out, _ = run(capsys, ["constants"])
        assert code == 0
        assert len(out) == 8
        assert out[0].startswith("gamma") and out[0].endswith("0.577215664902")
        assert out[1].split()[-1] == "2.28029101651"

    def test_json_mode(self, capsys):
        code, out, _ = run(capsys, ["constants", "--json"])
        assert code == 0
        data = json.loads("\n".join(out))
        assert data["C"] == pytest.approx(2.28029101651436, rel=1e-11)
        assert set(data) == {
            "gamma", "C", "C_log2", "exp_shifted_prime", "exp_twin",
            "exp_shifted_prime_e", "exp_twin_e", "e_log2",
        }


class TestIdentity:
    def test_partition_exact(self, capsys):
        code, out, _ = run(
            capsys,
            ["identity", "--check", "phi0", "--family", "dense", "--t", "2", "--x", "100"],
        )
        assert code == 0
        assert out == ["lhs,rhs,gap,pass", "100,100,0,true"]

    def test_shifted_partition_hand_value(self, capsys):
        code, out, _ = run(
            capsys,
            ["identity", "--check", "phik", "--family", "dense", "--t", "2",
             "--x", "10", "--qs", "2"],
        )
        assert code == 0
        assert out[1] == "5,5,0,true"

    @pytest.mark.parametrize(
        "check, expect",
        [(["phi0"], "300000,300000,0,true"), (["phik", "--qs", "2,3"], "50000,50000,0,true")],
    )
    def test_int64_overflowing_t_takes_reference_loop(self, capsys, check, expect):
        # x * t_num is about 6e18 > 2^62: theta needs Python ints for the
        # small rows.
        code, out, _ = run(
            capsys,
            ["identity", "--check", *check, "--family", "dense",
             "--t", "2.0000000000001", "--x", "300000"],
        )
        assert code == 0
        assert out == ["lhs,rhs,gap,pass", expect]

    def test_weight_series(self, capsys):
        code, out, _ = run(
            capsys,
            ["identity", "--check", "lambda0", "--family", "dense", "--t", "2",
             "--N", "1000"],
        )
        assert code == 0
        lhs, rhs, gap, passed = out[1].split(",")
        assert float(lhs) == pytest.approx(0.909572, abs=1e-6)
        assert rhs == "1" and passed == "true"

    def test_weight_shift(self, capsys):
        code, out, _ = run(
            capsys,
            ["identity", "--check", "lambdak", "--family", "dense", "--t", "2",
             "--N", "1000", "--qs", "2,3"],
        )
        assert code == 0 and out[1].endswith("true")

    def test_log_moment_series(self, capsys):
        code, out, _ = run(
            capsys,
            ["identity", "--check", "mu0", "--family", "dense", "--t", "2",
             "--N", "1000", "--s", "1.5"],
        )
        assert code == 0
        assert float(out[1].split(",")[0]) == pytest.approx(0.022671, abs=1e-6)

    def test_log_moment_limit(self, capsys):
        code, out, _ = run(
            capsys,
            ["identity", "--check", "muapprox", "--family", "dense", "--t", "2",
             "--x", "100"],
        )
        assert code == 0
        assert float(out[1].split(",")[0]) == pytest.approx(0.121665, abs=1e-6)

    def test_usage_errors(self, capsys):
        base = ["identity", "--family", "dense", "--t", "2"]
        assert run(capsys, base + ["--check", "phi0"])[0] == 2  # missing --x
        assert run(capsys, base + ["--check", "phik", "--x", "10"])[0] == 2
        assert run(capsys, base + ["--check", "phi0", "--x", "10", "--s", "0.5"])[0] == 2
        for check in (["mu0", "--N", "100"], ["lambdak", "--N", "100", "--qs", "2"]):
            code, out, err = run(capsys, base + ["--check", *check, "--s", "nan"])
            assert (code, out) == (2, [])
            assert err.startswith("error: --s") and err.count("\n") == 1
        code, _, err = run(
            capsys,
            ["identity", "--check", "muapprox", "--family", "practical", "--x", "10"],
        )
        assert code == 2 and "dense" in err


class TestExperimentCommand:
    def test_count_ratio_pass(self, capsys):
        code, out, err = run(
            capsys, ["experiment", "count-ratio", "--t", "2", "--xs", "20,40"]
        )
        assert code == 0
        assert out[0] == "x,t,q,measured,predicted,rel_err,metric"
        assert len(out) == 3
        assert out[1].split(",")[-1] == "count_ratio"
        assert err.strip() == "experiment count-ratio: pass"

    def test_failing_experiment_exits_one(self, capsys):
        code, _, err = run(capsys, ["experiment", "margenstern", "--xs", "20,100"])
        assert code == 1
        assert "experiment margenstern: fail" in err

    @pytest.mark.parametrize("xs", ["1,100", "2,100"])
    def test_margenstern_grid_below_three_refused(self, capsys, xs):
        # C ln ln x <= 0 below x = 3: one error line, no math domain error.
        code, out, err = run(capsys, ["experiment", "margenstern", "--xs", xs])
        assert (code, out) == (1, [])
        assert err.startswith("error:") and err.count("\n") == 1
        assert "grid values must be >= 3" in err

    def test_report_only_exits_zero(self, capsys):
        code, _, err = run(capsys, ["experiment", "tau-order", "--x", "10000"])
        assert code == 0
        assert "report-only" in err

    def test_json_report(self, capsys):
        code, out, _ = run(
            capsys,
            ["experiment", "count-ratio", "--t", "2", "--xs", "20,40", "--json"],
        )
        assert code == 0
        data = json.loads("\n".join(out))
        assert data["name"] == "count-ratio" and data["verdict"] == "pass"
        assert len(data["rows"]) == 2
        assert data["rows"][0]["measured"] == pytest.approx(2.394868, abs=1e-5)

    def test_concentration_multi_x(self, capsys):
        code, out, _ = run(
            capsys,
            ["experiment", "concentration", "--t", "2", "--xs", "1000,10000",
             "--xi", "50"],
        )
        assert code == 0
        assert len(out) == 7  # header + 3 rows per grid point

    def test_phi_scan_y_in_t_column(self, capsys):
        code, out, _ = run(
            capsys, ["experiment", "phi-scan", "--xs", "1000", "--ys", "10"]
        )
        assert code == 0
        assert out[1].split(",")[1] == "10"

    def test_phi_scan_y_beyond_every_x(self, capsys):
        # y above max(xs): every n in [2, x] has a prime factor <= y.
        code, out, _ = run(
            capsys, ["experiment", "phi-scan", "--xs", "1000", "--ys", "2000"]
        )
        assert code == 0
        row = out[1].split(",")
        assert (row[0], row[1], row[3], row[-1]) == ("1000", "2000", "1", "rough_count")

    def test_missing_argument(self, capsys):
        code, _, err = run(capsys, ["experiment", "mean-omega", "--xs", "100,200"])
        assert code == 2 and "--t is required" in err


class TestOutputFile:
    def test_atomic_write(self, capsys, tmp_path):
        target = tmp_path / "count.txt"
        code, out, _ = run(
            capsys,
            ["count", "--family", "dense", "--t", "2", "--x", "20",
             "--out", str(target)],
        )
        assert code == 0
        assert out == []  # nothing on stdout when --out is given
        assert target.read_text() == "9\n"
        assert os.listdir(tmp_path) == ["count.txt"]  # no temp litter


class TestExitCodes:
    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2
        capsys.readouterr()

    def test_usage_level_errors(self, capsys):
        assert run(capsys, ["count", "--family", "dense", "--x", "10"])[0] == 2
        assert run(capsys, ["count", "--family", "dense", "--t", "1", "--x", "10"])[0] == 2
        assert run(capsys, ["count", "--family", "practical", "--t", "2", "--x", "10"])[0] == 2

    def test_domain_errors_exit_one(self, capsys):
        code, _, err = run(capsys, ["enumerate", "--family", "dense", "--t", "2", "--x", "0"])
        assert code == 1 and "error:" in err

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_rejected(self, capsys, threads):
        code, out, err = run(
            capsys,
            ["count", "--family", "dense", "--t", "2", "--x", "20", "--threads", threads],
        )
        assert (code, out) == (2, [])
        assert err.startswith("error: --threads") and err.count("\n") == 1

    @pytest.mark.parametrize("xi", ["-1", "0", "nan", "inf"])
    def test_stats_bad_xi_rejected(self, capsys, xi):
        code, out, err = run(
            capsys,
            ["stats", "--family", "dense", "--t", "2", "--x", "1000", "--xi", xi],
        )
        assert (code, out) == (2, [])
        assert err.startswith("error: --xi") and err.count("\n") == 1

    @pytest.mark.parametrize("xi", ["-1", "0", "0.5", "nan", "inf"])
    def test_experiment_bad_xi_rejected(self, capsys, xi):
        code, out, err = run(
            capsys,
            ["experiment", "concentration", "--t", "2", "--xs", "1000", "--xi", xi],
        )
        assert (code, out) == (2, [])
        assert err.startswith("error: --xi") and err.count("\n") == 1

    def test_identity_beyond_cap_starts_no_work(self, capsys, monkeypatch):
        def refuse(limit):
            raise AssertionError("sieve started")

        monkeypatch.setattr(densediv.arith, "primes_up_to", refuse)
        monkeypatch.setattr(densediv.generate, "primes_up_to", refuse)
        code, out, err = run(
            capsys,
            ["identity", "--check", "phi0", "--family", "dense", "--t", "2",
             "--x", "1000000000001"],
        )
        assert (code, out) == (1, [])
        assert err.startswith("error:") and err.count("\n") == 1

    def test_sigma_beyond_cap_starts_no_work(self, capsys, monkeypatch):
        # The prime bound 2e9 passes the 2^31 cap, but enumerate's sigma
        # column at x >= 2^60 is refused before the sieve.
        def refuse(limit):
            raise AssertionError("sieve started")

        monkeypatch.setattr(densediv.generate, "primes_up_to", refuse)
        code, out, err = run(
            capsys,
            ["enumerate", "--family", "dense", "--t", "2",
             "--x", "2000000000000000000"],
        )
        assert (code, out) == (1, [])
        assert err == "error: x=2000000000000000000 exceeds the sigma-column cap 2^60\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["count", "--family", "dense", "--t", "2", "--x", "1e20"],
            ["identity", "--check", "phi0", "--family", "dense", "--t", "10000000",
             "--x", "1e12"],
        ],
        ids=["count-1e20", "phi0-t1e7"],
    )
    def test_prime_bound_beyond_cap_starts_no_work(self, capsys, monkeypatch, argv):
        def refuse(limit):
            raise AssertionError("sieve started")

        monkeypatch.setattr(densediv.arith, "primes_up_to", refuse)
        monkeypatch.setattr(densediv.generate, "primes_up_to", refuse)
        code, out, err = run(capsys, argv)
        assert (code, out) == (1, [])
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["--check", "lambda0", "--t", "2", "--N", "1e9"],
            ["--check", "lambda0", "--t", "1000000", "--N", "100000"],
            ["--check", "mu0", "--t", "1e12", "--N", "1e9"],
            ["--check", "muapprox", "--t", "2", "--x", "1e9"],
        ],
        ids=["lambda0-t2", "lambda0-t1e6", "mu0-t1e12", "muapprox"],
    )
    def test_weight_series_beyond_sieve_cap(self, capsys, argv):
        code, out, err = run(capsys, ["identity", "--family", "dense", *argv])
        assert (code, out) == (1, [])
        assert err.startswith("error:") and err.count("\n") == 1
        assert "prime-sieve cap" in err

    @pytest.mark.parametrize(
        "argv, code",
        [
            # the prime bound 2.1e9 passes the 2^31 cap, but its 2.1 GB
            # sieve does not fit under the 2 GiB address-space limit
            (["count", "--family", "dense", "--t", "1000000000000",
              "--x", "2100000000"], 1),
            (["dfun", "--vmax", "nan"], 2),
            (["dfun", "--vmax", "inf"], 2),
            (["dfun", "--vmax", "1e9"], 1),  # past the grid-point cap
            # span * m overflows to inf before the point count is rounded up
            (["dfun", "--vmax", "1e308"], 1),
            (["wfun", "--umax", "1e308"], 1),
            # sigma columns at x >= 2^60, refused before the 2e9 sieve
            (["enumerate", "--family", "dense", "--t", "2",
              "--x", "2000000000000000000"], 1),
            # past the column-cell cap, refused by the sizing walk before
            # any column is built
            (["enumerate", "--family", "dense", "--t", "2", "--x", "1e12",
              "--out", os.devnull], 1),
        ],
        ids=["count-sieve-2.1e9", "dfun-nan", "dfun-inf", "dfun-1e9",
             "dfun-1e308", "wfun-1e308",
             "enumerate-sigma-2e18", "enumerate-cells-1e12"],
    )
    def test_refused_in_one_line_under_2gib(self, capped_cli, argv, code):
        capped_cli(argv, code)

    def test_verbose_banner(self, capsys):
        code, _, err = run(
            capsys,
            ["--verbose", "count", "--family", "dense", "--t", "2", "--x", "20"],
        )
        assert code == 0 and err.startswith("densediv ")


NEAR2 = ["--family", "dense", "--t", "2.0000000000001"]
UNSAFE = ["--family", "dense", "--t", "4611686018427387905/2305843009213693952"]
T1E12 = ["--family", "dense", "--t", "1000000000000"]

# sha256 of stdout for dense t whose products n*t_num leave int64, as
# printed when the frontier still ran such t on Python-int columns.
INT64_UNSAFE_STDOUT_SHA256 = {
    ("count", *NEAR2, "--x", "300000"):
        "e50875340cafdbdeea12226f20b30b7a42349fbddb5656f1da2505ef40ce32d2",
    ("stats", *NEAR2, "--x", "300000"):
        "d266f1598efb0c818f48e372bf0ecae0f90dbc1bf8c6c5baef266652c0305425",
    ("enumerate", *NEAR2, "--x", "300000"):
        "ceccc881d6064259007b21ad0a9a5f795b7326d5b85c1d718903d8c81acdb476",
    ("count", *UNSAFE, "--x", "300000"):
        "e50875340cafdbdeea12226f20b30b7a42349fbddb5656f1da2505ef40ce32d2",
    ("stats", *UNSAFE, "--x", "300000"):
        "d266f1598efb0c818f48e372bf0ecae0f90dbc1bf8c6c5baef266652c0305425",
    ("enumerate", *UNSAFE, "--x", "300000"):
        "ceccc881d6064259007b21ad0a9a5f795b7326d5b85c1d718903d8c81acdb476",
    ("identity", "--check", "phi0", *T1E12, "--x", "300000"):
        "fe6e23a3fcb014f4f0ed13585dfce50daeb25bb9754224a3a0f270d5acb079fe",
    ("identity", "--check", "phik", *T1E12, "--x", "300000", "--qs", "2,3"):
        "28f779d27d58894825ba1ae08e252de938679decc504f6c4611ed1dc27290245",
    ("identity", "--check", "lambda0", *NEAR2, "--N", "100000"):
        "efd2a7e80edae9cb73c67632296d6a1abdcd77a1bd696343bd80afd059ffa3e9",
}


class TestInt64UnsafeBytes:
    @pytest.mark.parametrize(
        "argv", list(INT64_UNSAFE_STDOUT_SHA256), ids=lambda a: " ".join(a[:3])
    )
    def test_stdout_pinned(self, capsys, argv):
        code = main(list(argv))
        out = capsys.readouterr().out.encode()
        assert code == 0
        assert hashlib.sha256(out).hexdigest() == INT64_UNSAFE_STDOUT_SHA256[argv]

    def test_ratio_bound_past_int64(self, capsys):
        # floor(t) >= 2^63 admits every n <= x.
        argv = ["count", "--family", "dense", "--t", "10000000000000000000",
                "--x", "1000"]
        assert main(argv) == 0
        assert capsys.readouterr().out == "1000\n"

    def test_refusal_names_exact_threshold(self, capsys):
        # The largest threshold, 99991 * 10^6 of the prime 99991, is named
        # exactly, not as a value clipped at the cap.
        argv = ["identity", "--check", "lambda0", "--family", "dense",
                "--t", "1000000", "--N", "100000"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: threshold=99991000000 exceeds the prime-sieve cap 300000000\n"
        )

    def test_refusal_threshold_follows_chunk_order(self, capsys):
        # The first refused chunk names its largest threshold, so the order
        # of _member_chunks (rows with mid <= last first in each block)
        # fixes the number printed.
        argv = ["identity", "--check", "lambda0", "--family", "dense",
                "--t", "2", "--N", "1e9"]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "error: threshold=1999992984 exceeds the prime-sieve cap 300000000\n"
        )


class TestAtScale:
    """Counts and moments at x = 10^10 and tau-order at 10^9 through the
    CLI, under the 2 GiB limit; the stats sha256 was recorded before
    terminal children of the frontier were tallied without being
    expanded."""

    @pytest.mark.parametrize(
        "argv, want",
        [
            (["--family", "dense", "--t", "2"], 541495106),
            (["--family", "practical"], 582798892),
            (["--family", "shifted1", "--q", "6"], 263506862),
        ],
        ids=["dense2", "practical", "shifted1_q6"],
    )
    def test_count_pinned(self, capped_cli, argv, want):
        out = capped_cli(["count", *argv, "--x", "10000000000"], 0)
        assert out == f"{want}\n".encode()

    def test_stats_bytes_pinned(self, capped_cli):
        out = capped_cli(["stats", "--family", "practical", "--x", "10000000000"], 0)
        assert hashlib.sha256(out).hexdigest() == (
            "fa6ecb8cd5421c4dfc5559b0ed64c097767a6dc2dc3921ddb86ba3fc6a9ec66b"
        )

    def test_tau_order_bytes_pinned(self, capped_cli):
        # Recorded when the walk still built every member (1.7 GB peak).
        out = capped_cli(
            ["experiment", "tau-order", "--x", "1000000000"], 0,
            stderr_lines=["experiment tau-order: pass"],
        )
        assert hashlib.sha256(out).hexdigest() == (
            "0a760df9daea36bc207811853055806577097738061752d3cc579a30f0b92771"
        )


class TestThreadInvariance:
    def test_count_and_stats(self, capsys):
        base = ["count", "--family", "practical", "--x", "50000"]
        _, one, _ = run(capsys, base + ["--threads", "1"])
        _, four, _ = run(capsys, base + ["--threads", "4"])
        assert one == four
        base = ["stats", "--family", "dense", "--t", "2", "--x", "50000",
                "--engine", "python"]
        _, one, _ = run(capsys, base + ["--threads", "1"])
        _, four, _ = run(capsys, base + ["--threads", "4"])
        assert one == four


def test_weight_series_and_phi_scan_build_no_factor_table(capsys, monkeypatch):
    def refuse(limit):
        raise AssertionError(f"build_spf_table({limit}) called")

    for name, module in list(sys.modules.items()):
        if name.startswith("densediv") and hasattr(module, "build_spf_table"):
            monkeypatch.setattr(module, "build_spf_table", refuse)
    dense = ["--family", "dense", "--t", "2"]
    near2 = ["--family", "dense", "--t", "2.0000000000001"]  # int64-unsafe
    for argv in (
        ["identity", "--check", "lambda0", *dense, "--N", "1000"],
        ["identity", "--check", "lambdak", "--family", "practical", "--N", "1000",
         "--qs", "2,3"],
        ["identity", "--check", "mu0", "--family", "shifted1", "--N", "1000"],
        ["identity", "--check", "muapprox", *dense, "--x", "1000"],
        ["experiment", "phi-scan", "--xs", "1000,100000", "--ys", "10,2000"],
        ["identity", "--check", "phi0", *near2, "--x", "300000"],
        ["identity", "--check", "phik", *near2, "--x", "300000", "--qs", "2,3"],
    ):
        code, out, _ = run(capsys, argv)
        assert code == 0 and len(out) >= 2, argv


def test_enumerate_needs_no_second_traversal(capsys, monkeypatch):
    def refuse(family, x):
        raise AssertionError(f"iter_members({family}, {x}) called")

    for name, module in list(sys.modules.items()):
        if name.startswith("densediv") and hasattr(module, "iter_members"):
            monkeypatch.setattr(module, "iter_members", refuse)
    for fam in (
        ["--family", "dense", "--t", "2"],
        ["--family", "practical"],
        ["--family", "dense", "--t", "2.0000000000001"],  # int64-unsafe
    ):
        code, out, _ = run(capsys, ["enumerate", *fam, "--x", "3000"])
        assert code == 0, fam
        assert out[:2] == ["n,omega,big_omega,tau,sigma", "1,0,0,1,1"], fam


def test_import_loads_no_process_pool():
    # Counting is serial; importing the package and its CLI must not pull
    # in the process-pool machinery (about 15-20 ms of every CLI start).
    code = (
        "import sys, densediv, densediv.cli; "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('multiprocessing', 'concurrent')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "[]"


def _python(*args):
    """Run python with src on the path; returns the CompletedProcess."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, env=env, timeout=120
    )


def test_count_imports_only_what_it_runs():
    proc = _python(
        "-X", "importtime", "-m", "densediv.cli",
        "count", "--family", "dense", "--t", "2", "--x", "1000",
    )
    assert proc.returncode == 0 and proc.stdout == b"193\n"
    loaded = {
        line.rpartition("|")[2].strip()
        for line in proc.stderr.decode().splitlines()
        if line.startswith("import time:")
    }
    assert {"densediv.generate", "densediv.families"} <= loaded
    assert not loaded & {
        "densediv.experiments", "densediv.identities", "densediv.specfun"
    }


def test_import_package_loads_no_submodule():
    proc = _python(
        "-c",
        "import sys, densediv; print(sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('numpy', 'densediv')))",
    )
    assert proc.stdout.decode().strip() == "['densediv']"


def test_public_names_resolve():
    exports = densediv._EXPORTS
    assert densediv.__all__ == sorted(exports)
    for name, module in exports.items():
        defining = sys.modules[f"densediv.{module}"]
        assert getattr(densediv, name) is getattr(defining, name), name
    namespace = {}
    exec("from densediv import *", namespace)
    assert set(densediv.__all__) <= set(namespace)
    assert set(densediv.__all__) <= set(dir(densediv))
    with pytest.raises(AttributeError):
        densediv.no_such_name


def test_process_entry_flushes_and_renames(capsys, capped_cli, tmp_path):
    # The entry point freezes the heap and flushes stdout itself; its bytes,
    # on stdout and through --out, equal an in-process main() run.
    argv = ["enumerate", "--family", "dense", "--t", "2", "--x", "300000"]
    assert main(argv) == 0
    want = capsys.readouterr().out.encode()
    assert capped_cli(argv, 0) == want and want.count(b"\n") > 20_000
    target = tmp_path / "members.csv"
    assert capped_cli([*argv, "--out", str(target)], 0) == b""
    assert target.read_bytes() == want
    assert os.listdir(tmp_path) == ["members.csv"]


CONSOLE_SCRIPT = "import sys; from densediv.cli import run; sys.exit(run())"


def test_console_script_is_the_process_entry():
    project = (ROOT / "pyproject.toml").read_text()
    assert '\n[project.scripts]\ndensediv = "densediv.cli:run"\n' in project


@pytest.mark.parametrize("entry", [["-m", "densediv.cli"], ["-c", CONSOLE_SCRIPT]])
@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--family", "dense", "--t", "2", "--x", "3000000"],
        ["wfun"],  # the table writer of wfun and dfun, about 1.4 MB
    ],
)
def test_closed_stdout_ends_quietly(entry, argv):
    # Like `densediv ... | head -1`: the reader leaves after one line.
    proc = subprocess.Popen(
        [sys.executable, *entry, *argv], env=dict(os.environ, PYTHONPATH=SRC),
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    try:
        code = proc.wait(timeout=120)
    finally:
        proc.kill()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert first.startswith((b"n,omega", b"abscissa"))
    assert code == 1
    assert "Traceback" not in err and "Exception ignored" not in err, err
    assert sum(line.startswith("error:") for line in err.splitlines()) <= 1
