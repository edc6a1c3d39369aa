"""Command-line interface tests: output fixtures, exit codes, file output,
and --threads/--engine invariance via in-process main() calls, subprocess
checks of the process entry point (imports, flush, closed pipe), and
package-wide checks (the one export list, no unused imports, no unread
private names)."""

import ast
import contextlib
import hashlib
import importlib
import inspect
import json
import math
import os
import stat
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
from conftest import CONSOLE_SCRIPT, csv_entry

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")
PACKAGE = ROOT / "src" / "densediv"

# The prime bound 2.1e9 passes the 2^31 cap, but the sieve and its primes
# do not fit under the 2 GiB address-space limit.
COUNT_SIEVE_2_1E9 = ["count", "--family", "dense", "--t", "1000000000000",
                     "--x", "2100000000"]


DENSE2 = ["--family", "dense", "--t", "2"]
ENUMERATE_3E6 = ["enumerate", *DENSE2, "--x", "3000000"]


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

    def test_bytes_pinned_at_3e6(self, capped_cli, csv_fill):
        # The benchmark's enumerate op, through the C formatter and the
        # %-formatting, as printed before the C formatter existed.
        out = capped_cli(ENUMERATE_3E6, 0, entry=csv_entry(csv_fill))
        assert hashlib.sha256(out).hexdigest() == (
            "519f8baba455956292c0659e92cb584f2f76ceec4e475227bbceb5341e908a93"
        )


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

    def test_q_past_x_counts_zero_past_the_sieve_cap(self, capsys):
        # The prime bound of t = 1e12 at x = 3e9 passes the sieve cap, but
        # q > x divides no member, so nothing is sieved.
        code, out, err = run(
            capsys, ["count", "--family", "dense", "--t", "1e12", "--x", "3e9",
                     "--q", "4e9"]
        )
        assert (code, out, err) == (0, ["0"], "")

    def test_engines_agree(self, capsys):
        base = ["count", "--family", "dense", "--t", "5/2", "--x", "150000"]
        _, out_py, _ = run(capsys, base + ["--engine", "python"])
        _, out_np, _ = run(capsys, base + ["--engine", "numpy"])
        assert out_py == out_np

    def test_scientific_integer_notation(self, capsys):
        _, out_sci, _ = run(capsys, ["count", "--family", "dense", "--t", "2", "--x", "1e3"])
        _, out_dec, _ = run(capsys, ["count", "--family", "dense", "--t", "2", "--x", "1000"])
        assert out_sci == out_dec

    @pytest.mark.parametrize(
        "argv",
        [
            ["count", *DENSE2, "--x", "12.5"],
            ["count", *DENSE2, "--x", "inf"],
            ["count", *DENSE2, "--x", "Infinity"],
            ["count", *DENSE2, "--x=-inf"],
            ["count", *DENSE2, "--x", "20", "--q", "sNaN"],
            ["identity", "--check", "lambda0", *DENSE2, "--N", "inf"],
            ["identity", "--check", "phik", *DENSE2, "--x", "100",
             "--qs", "2,sNaN"],
            ["experiment", "phi-scan", "--xs", "100,inf", "--ys", "10"],
        ],
        ids=["x-12.5", "x-inf", "x-Infinity", "x-minus-inf", "q-sNaN",
             "N-inf", "qs-sNaN", "xs-inf"],
    )
    def test_non_integer_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        lines = err.splitlines()
        assert [line for line in lines if "error:" in line] == lines[-1:]
        assert "invalid _parse_" in lines[-1]


class TestStats:
    @pytest.mark.parametrize(
        "argv",
        [
            ["stats", "--family", "dense", "--t", "1e400", "--x", "100"],
            ["experiment", "mean-omega", "--t", "1e400", "--xs", "1000"],
            ["experiment", "concentration", "--t", "1e400", "--xs", "1000"],
            ["experiment", "count-ratio", "--t", "1e400", "--xs", "100,1000"],
            ["experiment", "cq-structure", "--t", "1e400", "--x", "1000",
             "--qs", "3"],
        ],
        ids=["stats", "mean-omega", "concentration", "count-ratio", "cq-structure"],
    )
    def test_t_past_float_range_refused(self, capsys, argv):
        # These print or use t as a float; a t past the float range ends in
        # one error line, while count, which needs no float t, still runs.
        code, out, err = run(capsys, argv)
        assert (code, out) == (1, [])
        assert err == "error: ratio bound t exceeds the float range\n"
        code, out, _ = run(capsys, ["count", "--family", "dense", "--t", "1e400",
                                    "--x", "100"])
        assert (code, out) == (0, ["100"])

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

    def test_dfun_same_bytes_without_kernel(self, capfd, monkeypatch, fresh_native):
        # The first run builds the row kernel afresh: nothing the compiler
        # prints may reach the process's stdout or stderr.
        argv = ["dfun", "--vmax", "8", "--step", "1e-3"]
        monkeypatch.setattr(fresh_native, "MARCH_MIN_CELLS", 0)
        assert main(argv) == 0
        kernel = capfd.readouterr()
        monkeypatch.setattr(densediv.specfun, "_row_kernel", lambda: None)
        assert main(argv) == 0
        numpy_fill = capfd.readouterr()
        assert kernel.out == numpy_fill.out
        assert len(kernel.out.splitlines()) == 8002
        assert kernel.err == numpy_fill.err == ""

    def test_dfun_bytes_pinned(self, capped_cli):
        # The benchmark's dfun op, run as a process whose march splits its
        # waves over threads: its stdout bytes and an empty stderr.
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

    @pytest.mark.parametrize(
        "argv, want",
        [
            (["lambda0", *DENSE2, "--N", "1000"],
             "0.909571671448,1,0.090428328552,true"),
            (["lambdak", *DENSE2, "--N", "1000", "--qs", "2,3"],
             "0.109857766214,0.136523890483,0.0266661242689,true"),
            (["mu0", *DENSE2, "--N", "1000"],
             "0.526250969847,0,0.526250969847,true"),
            (["lambda0", *DENSE2, "--N", "100000"],
             "0.943600829146,1,0.0563991708538,true"),
            (["lambdak", *DENSE2, "--N", "100000", "--qs", "2,3"],
             "0.131108720889,0.147866943049,0.0167582221599,true"),
            (["mu0", *DENSE2, "--N", "100000"],
             "0.530582341467,0,0.530582341467,true"),
            (["lambda0", "--family", "practical", "--N", "1e6"],
             "0.949323401825,1,0.0506765981752,true"),
            (["lambdak", "--family", "practical", "--N", "1e6", "--qs", "2,3"],
             "0.133989957391,0.149774467275,0.0157845098836,true"),
            (["mu0", "--family", "practical", "--N", "1e6"],
             "0.566145763466,0,0.566145763466,true"),
        ],
        ids=[f"{c}-{f}-{n}" for f, n in (("dense2", "1e3"), ("dense2", "1e5"),
                                          ("practical", "1e6"))
             for c in ("lambda0", "lambdak", "mu0")],
    )
    def test_weight_series_stdout_pinned(self, capsys, argv, want):
        # Recorded when the series still summed the members sorted by n
        # with np.sum; the exactly rounded sums print the same bytes.
        assert main(["identity", "--check", *argv]) == 0
        assert capsys.readouterr().out == f"lhs,rhs,gap,pass\n{want}\n"

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

    @pytest.mark.parametrize("where", ["missing-dir", "a-directory"])
    def test_unwritable_target_refused(self, capsys, tmp_path, where):
        if where == "missing-dir":
            target = tmp_path / "missing" / "o.csv"
        else:
            target = tmp_path / "o.csv"
            target.mkdir()
        code, out, err = run(
            capsys,
            ["count", *DENSE2, "--x", "20", "--out", str(target)],
        )
        assert (code, out) == (2, [])
        assert err.startswith(f"error: cannot write {target}: ")
        assert err.count("\n") == 1
        left = [p.name for p in tmp_path.rglob("*")]  # no temp litter
        assert left == ([] if where == "missing-dir" else ["o.csv"])

    def test_pipe_target_written_in_place(self, capsys, tmp_path):
        # A rename over a device or a pipe would replace the node itself
        # (run as root, /dev/null), so such a target is written in place.
        target = tmp_path / "pipe"
        os.mkfifo(target)
        reader = os.open(target, os.O_RDONLY | os.O_NONBLOCK)
        try:
            code, out, _ = run(
                capsys, ["count", *DENSE2, "--x", "20", "--out", str(target)]
            )
            assert (code, out) == (0, [])
            assert stat.S_ISFIFO(os.stat(target).st_mode)
            assert os.read(reader, 64) == b"9\n"
        finally:
            os.close(reader)
        assert os.listdir(tmp_path) == ["pipe"]  # no temp litter

    def test_fd_pipe_target_written_in_place(self, capsys):
        # /dev/fd/N resolves through a /proc magic link to "pipe:[N]", which
        # names no file: such a target must be written as given, in place.
        reader, writer = os.pipe()
        try:
            code, out, _ = run(
                capsys,
                ["count", *DENSE2, "--x", "20", "--out", f"/dev/fd/{writer}"],
            )
            assert (code, out) == (0, [])
            assert os.read(reader, 64) == b"9\n"
        finally:
            os.close(reader)
            os.close(writer)

    @pytest.mark.parametrize("dangling", [False, True], ids=["file", "dangling"])
    def test_symlink_target_replaced_through_link(self, capsys, tmp_path, dangling):
        # The rename replaces the file the link names, not the link: the
        # link survives and its target (created, if dangling) gets the bytes.
        target = tmp_path / "target.csv"
        if not dangling:
            target.write_text("old\n")
        link = tmp_path / "link.csv"
        link.symlink_to("target.csv")
        code, out, _ = run(
            capsys, ["count", *DENSE2, "--x", "100", "--out", str(link)]
        )
        assert (code, out) == (0, [])
        assert link.is_symlink() and os.readlink(link) == "target.csv"
        assert target.read_text() == "29\n"
        assert sorted(os.listdir(tmp_path)) == ["link.csv", "target.csv"]


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

        monkeypatch.setattr(densediv.arith, "prime_counter", refuse)
        monkeypatch.setattr(densediv.generate, "prime_counter", refuse)
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

        monkeypatch.setattr(densediv.generate, "prime_counter", refuse)
        code, out, err = run(
            capsys,
            ["enumerate", "--family", "dense", "--t", "2",
             "--x", "2000000000000000000"],
        )
        assert (code, out) == (1, [])
        assert err == "error: x=2000000000000000000 exceeds the sigma-column cap 2^60\n"

    @pytest.mark.parametrize(
        "x, shown",
        [
            ("1" + "0" * 19, "1" + "0" * 19),
            ("1" + "0" * 20, "1.00000e+20"),
            ("123456" + "9" * 395, "1.23457e+400"),
        ],
    )
    def test_long_integers_shortened(self, capsys, x, shown):
        # Integers of more than 20 digits are named in e-notation, rounded.
        code, out, err = run(
            capsys,
            ["identity", "--check", "phi0", "--family", "dense", "--t", "2",
             "--x", x],
        )
        assert (code, out) == (1, [])
        assert err == f"error: x={shown} exceeds the identity cap 1000000000000\n"

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

        monkeypatch.setattr(densediv.arith, "prime_counter", refuse)
        monkeypatch.setattr(densediv.generate, "prime_counter", refuse)
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
            (COUNT_SIEVE_2_1E9, 1),
            (["dfun", "--vmax", "nan"], 2),
            (["dfun", "--vmax", "inf"], 2),
            (["dfun", "--vmax", "1e9"], 1),  # past the grid-point cap
            # span * m overflows to inf before the point count is rounded up
            (["dfun", "--vmax", "1e308"], 1),
            (["wfun", "--umax", "1e308"], 1),
            # finite over-cap grids name their point count in 6 digits
            (["wfun", "--umax", "1e300"], 1),
            (["dfun", "--step", "1e-300"], 1),
            # sigma columns at x >= 2^60, refused before the 2e9 sieve
            (["enumerate", "--family", "dense", "--t", "2",
              "--x", "2000000000000000000"], 1),
            # past the column-cell cap, refused by the sizing walk before
            # any column is built
            (["enumerate", "--family", "dense", "--t", "2", "--x", "1e12",
              "--out", os.devnull], 1),
            # weight series whose member 2^k passes the cap check: the first
            # walk runs over every member <= N before the refusal
            (["identity", "--check", "lambda0", "--family", "dense", "--t", "2",
              "--N", "2e8"], 1),
            (["identity", "--check", "mu0", "--family", "practical",
              "--N", "1e8", "--s", "1.5"], 1),
            (["identity", "--check", "mu0", "--family", "shifted2",
              "--N", "536870911"], 1),
            # qs out of order, refused before the counting walk
            (["experiment", "cq-structure", "--t", "5", "--x", "1000",
              "--qs", "3,2"], 2),
            # a non-prime q past t is refused as non-prime, as below t
            (["experiment", "cq-structure", "--t", "3", "--x", "1000",
              "--qs", "4"], 2),
            # a prime q past t is still refused as past t
            (["experiment", "cq-structure", "--t", "3", "--x", "1000",
              "--qs", "5"], 1),
            # integers past 20 digits are named in e-notation
            (["identity", "--check", "phi0", "--family", "dense", "--t", "2",
              "--x", "1e400"], 1),
            (["identity", "--check", "phik", "--family", "dense", "--t", "2",
              "--x", "1e400", "--qs", "2"], 1),
            (["identity", "--check", "lambda0", "--family", "dense", "--t", "2",
              "--N", "1e400"], 1),
            (["identity", "--check", "muapprox", "--family", "dense",
              "--t", "1e400", "--x", "10"], 1),
            (["experiment", "cq-structure", "--t", "3", "--x", "1e400",
              "--qs", "2"], 1),
            (["count", "--family", "dense", "--t", "2", "--x", "1e400"], 1),
            # a repeated grid point
            (["experiment", "count-ratio", "--t", "2", "--xs", "100000,100000"], 2),
            (["experiment", "margenstern", "--xs", "1000,1000"], 2),
            (["experiment", "concentration", "--t", "2", "--xs", "1000,1000"], 2),
            (["experiment", "concentration", "--t", "2", "--xs", "10000,1000"], 2),
            (["experiment", "phi-scan", "--xs", "100000", "--ys", "100,100"], 2),
        ],
        ids=["count-sieve-2.1e9", "dfun-nan", "dfun-inf", "dfun-1e9",
             "dfun-1e308", "wfun-1e308", "wfun-1e300", "dfun-step-1e-300",
             "enumerate-sigma-2e18", "enumerate-cells-1e12",
             "lambda0-dense2-2e8", "mu0-practical-1e8", "mu0-shifted2-2^29-1",
             "cq-structure-qs-descending", "cq-structure-qs-4-past-t",
             "cq-structure-qs-5-past-t", "phi0-x-1e400", "phik-x-1e400",
             "lambda0-N-1e400", "muapprox-t-1e400", "cq-structure-x-1e400",
             "count-x-1e400", "count-ratio-xs-repeated",
             "margenstern-xs-repeated", "concentration-xs-repeated",
             "concentration-xs-descending", "phi-scan-ys-repeated"],
    )
    def test_refused_in_one_line_under_2gib(self, capped_cli, argv, code):
        # The sieve's peak is reserved before it starts, so its refusal
        # takes well under a second.
        capped_cli(argv, code, timeout=10 if argv is COUNT_SIEVE_2_1E9 else 120)

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
    def test_stdout_pinned(self, capsys, csv_fill, argv):
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
        # The threshold of the member 2^16, 65536 * 10^6, is named exactly,
        # not as a value clipped at the cap.
        argv = ["identity", "--check", "lambda0", "--family", "dense",
                "--t", "1000000", "--N", "100000"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: threshold=65536000000 exceeds the prime-sieve cap 300000000\n"
        )

    def test_refusal_names_member_2k_before_any_walk(self, capsys, monkeypatch):
        # The member 2^29 <= 1e9 already passes the cap: the message names
        # its threshold whatever the chunk size, and no chunk is formed.
        def refuse(*args, **kwargs):
            raise AssertionError("_member_chunks called")

        monkeypatch.setattr(densediv.identities, "_member_chunks", refuse)
        argv = ["identity", "--check", "lambda0", "--family", "dense",
                "--t", "2", "--N", "1e9"]
        want = "error: threshold=1073741824 exceeds the prime-sieve cap 300000000\n"
        for chunk in (densediv.generate._CHUNK, 5):
            monkeypatch.setattr(densediv.generate, "_CHUNK", chunk)
            assert main(argv) == 1
            assert capsys.readouterr().err == want

    def test_refusal_past_member_2k_names_largest_threshold(self, capsys):
        # theta(2^16) = 262,144,000 passes the cap check; the first walk
        # then runs to its end and names the largest threshold, that of the
        # member 100,000.
        argv = ["identity", "--check", "lambda0", "--family", "dense",
                "--t", "4000", "--N", "100000"]
        code, out, err = run(capsys, argv)
        assert (code, out) == (1, [])
        assert err == (
            "error: threshold=400000000 exceeds the prime-sieve cap 300000000\n"
        )

    def test_large_finite_s_prints_no_warning(self, capsys):
        # p^s past the float range is inf, whose reciprocal 0 is exact.
        argv = ["identity", "--check", "mu0", "--family", "dense", "--t", "2",
                "--N", "10", "--s", "800"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("lhs,rhs,gap,pass\n0,0,0,true\n", "")


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


THREADS = ("--threads", ["1", "4"])
ENGINES = ("--engine", ["auto", "python", "numpy"])


class TestThreadInvariance:
    # Only the CLI accepts --threads and --engine: every value it accepts
    # gives the same exit status, stdout and stderr.
    @pytest.mark.parametrize(
        "argv,flag,values",
        [
            pytest.param(
                ["count", "--family", "practical", "--x", "50000"], *THREADS,
                id="count-threads",
            ),
            pytest.param(
                ["stats", *DENSE2, "--x", "50000", "--engine", "python"], *THREADS,
                id="stats-threads",
            ),
            pytest.param(
                ["experiment", "mean-omega", "--t", "2", "--xs", "1000,20000"],
                *THREADS, id="mean-omega-threads",
            ),
            pytest.param(
                ["experiment", "concentration", "--t", "2", "--xs", "1000,20000"],
                *THREADS, id="concentration-threads",
            ),
            pytest.param(
                ["experiment", "cq-structure", "--t", "5", "--x", "20000",
                 "--qs", "2,3,5"],
                *THREADS, id="cq-structure-threads",
            ),
            pytest.param(
                ["experiment", "margenstern", "--xs", "20,100,20000"], *THREADS,
                id="margenstern-threads",
            ),
            pytest.param(
                ["experiment", "tau-order", "--x", "20000"], *THREADS,
                id="tau-order-threads",
            ),
            pytest.param(
                ["experiment", "count-ratio", "--t", "2", "--xs", "20,40,20000"],
                *THREADS, id="count-ratio-threads",
            ),
            pytest.param(
                ["count", *DENSE2, "--x", "50000", "--q", "3"], *ENGINES,
                id="count-engine",
            ),
            pytest.param(
                ["stats", "--family", "practical", "--x", "50000"], *ENGINES,
                id="stats-engine",
            ),
        ],
    )
    def test_same_bytes(self, capsys, argv, flag, values):
        first, *rest = [run(capsys, argv + [flag, value]) for value in values]
        assert first[1] and all(other == first for other in rest)


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


def _cli_imports(*argv):
    """Run the CLI under -X importtime; returns the CompletedProcess and
    the names of the modules it imported."""
    proc = _python("-X", "importtime", "-m", "densediv.cli", *argv)
    loaded = {
        line.rpartition("|")[2].strip()
        for line in proc.stderr.decode().splitlines()
        if line.startswith("import time:")
    }
    return proc, loaded


def test_count_imports_only_what_it_runs():
    proc, loaded = _cli_imports(
        "count", "--family", "dense", "--t", "2", "--x", "1000"
    )
    assert proc.returncode == 0 and proc.stdout == b"193\n"
    assert {"densediv.generate", "densediv.families"} <= loaded
    assert not loaded & {
        "densediv.experiments", "densediv.identities", "densediv.specfun"
    }


@pytest.mark.parametrize(
    "argv",
    [
        ["stats", *DENSE2, "--x", "1000"],
        ["experiment", "tau-order", "--x", "10000"],
        ["identity", "--check", "phi0", *DENSE2, "--x", "1000"],
        ["enumerate", *DENSE2, "--x", "1000000"],
        ["experiment", "phi-scan", "--xs", "1000", "--ys", "10"],
    ],
    ids=["stats", "tau-order", "phi0", "enumerate", "phi-scan"],
)
def test_ops_load_no_heavy_modules(argv):
    # Each op is mostly process start, so an import that creeps in costs
    # more than a walk change can win back: np.median alone loads numpy.ma
    # (11-14 ms).  Of these ops only phi-scan reads specfun.
    proc, loaded = _cli_imports(*argv)
    assert proc.returncode == 0
    assert not {
        name for name in loaded
        if name == "numpy.ma" or name.startswith("numpy.ma.")
        or name.split(".")[0] in ("concurrent", "multiprocessing")
    }
    assert ("densediv.specfun" in loaded) == (argv[1] == "phi-scan")


def test_dfun_loads_no_process_pool():
    # The density-kernel march splits its waves over plain threads.
    proc, loaded = _cli_imports("dfun", "--vmax", "8", "--step", "1e-3")
    assert proc.returncode == 0 and len(proc.stdout.splitlines()) == 8002
    assert "densediv.specfun" in loaded
    assert not {
        name for name in loaded
        if name.split(".")[0] in ("concurrent", "multiprocessing")
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
    # _EXPORTS is the one list of public names: no submodule keeps its own.
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            module = importlib.import_module(f"densediv.{path.stem}")
            assert not hasattr(module, "__all__"), path.name


def _imported_names(tree: ast.Module, lines: list[str]) -> dict[str, int]:
    """Each name an import statement binds, with its line; statements
    marked ``# noqa`` are left out."""
    names = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            names[alias.asname or alias.name.split(".")[0]] = node.lineno
    return names


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    source = path.read_text()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {
        name: line
        for name, line in _imported_names(tree, source.splitlines()).items()
        if name not in used
    }
    assert not unused, f"{path.name}: imported and never used: {unused}"


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    """Each undecorated module-level function, class or assignment whose
    name starts with one underscore, with its line."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [] if node.decorator_list else [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                names[name] = node.lineno
    return names


def _package_reads() -> set[str]:
    """Every name the package reads: Name loads, attributes, import aliases."""
    reads = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.add(node.id)
            elif isinstance(node, ast.Attribute):
                reads.add(node.attr)
            elif isinstance(node, ast.alias):
                reads.add(node.name)
    return reads


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unread_private_names(path):
    reads = _package_reads()
    unread = {
        name: line
        for name, line in _private_definitions(ast.parse(path.read_text())).items()
        if name not in reads
    }
    assert not unread, f"{path.name}: defined and never read: {unread}"


def test_no_public_callable_takes_threads_or_engine():
    # --threads and --engine are compatibility flags of the CLI alone; no
    # library function or public method accepts either.
    for name in densediv.__all__:
        value = getattr(densediv, name)
        targets = [(name, value)]
        if inspect.isclass(value):
            targets += [
                (f"{name}.{attr}", getattr(value, attr))
                for attr in vars(value) if not attr.startswith("_")
            ]
        for label, obj in targets:
            # The errors take a message and have no signature of their own.
            if callable(obj) and not (inspect.isclass(obj) and issubclass(obj, Exception)):
                params = inspect.signature(obj).parameters
                assert not {"threads", "engine"} & set(params), label


def test_process_entry_flushes_and_renames(capsys, capped_cli, tmp_path, csv_fill):
    # The entry point freezes the heap and flushes stdout itself; its bytes,
    # on stdout and through --out, equal an in-process main() run.
    argv = ["enumerate", "--family", "dense", "--t", "2", "--x", "300000"]
    entry = csv_entry(csv_fill)
    assert main(argv) == 0
    want = capsys.readouterr().out.encode()
    assert capped_cli(argv, 0, entry=entry) == want
    assert want.count(b"\n") > 20_000
    target = tmp_path / "members.csv"
    assert capped_cli([*argv, "--out", str(target)], 0, entry=entry) == b""
    assert target.read_bytes() == want
    assert os.listdir(tmp_path) == ["members.csv"]


def test_console_script_is_the_process_entry():
    project = (ROOT / "pyproject.toml").read_text()
    assert '\n[project.scripts]\ndensediv = "densediv.__main__:main"\n' in project
    # The script runs the CLI as python -m densediv.cli does, so constants
    # loads no numpy.
    script = (
        "import sys\nfrom densediv.__main__ import main\n"
        "try:\n    main()\n"
        "finally:\n    print('numpy' in sys.modules, file=sys.stderr)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, "constants"],
        capture_output=True, env=dict(os.environ, PYTHONPATH=SRC), timeout=60,
    )
    assert proc.returncode == 0 and proc.stdout.startswith(b"gamma ")
    assert proc.stderr == b"False\n"


def _closes_after_one_line(command):
    """Run command as a CLI process whose reader leaves after one line,
    like `densediv ... | head -1`, check that it ends with exit 1 and no
    traceback, and return that line."""
    proc = subprocess.Popen(
        command, env=dict(os.environ, PYTHONPATH=SRC),
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
    assert code == 1
    assert "Traceback" not in err and "Exception ignored" not in err, err
    assert sum(line.startswith("error:") for line in err.splitlines()) <= 1
    return first


@pytest.mark.parametrize("console", [False, True], ids=["module", "console"])
def test_closed_stdout_ends_quietly(csv_fill, console):
    # enumerate writes about 6 MB, through the C formatter or the
    # %-formatting.
    entry = csv_entry(csv_fill, console)
    first = _closes_after_one_line([sys.executable, *entry, *ENUMERATE_3E6])
    assert first.startswith(b"n,omega")


@pytest.mark.parametrize("entry", [["-m", "densediv.cli"], ["-c", CONSOLE_SCRIPT]])
def test_closed_stdout_ends_table_quietly(entry):
    # The table writer of wfun and dfun, about 1.4 MB.
    first = _closes_after_one_line([sys.executable, *entry, "wfun"])
    assert first.startswith(b"abscissa")


def _build_processes(marker):
    """The pids of the live processes whose command line holds marker."""
    found = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        with contextlib.suppress(OSError):
            with open(f"/proc/{pid}/cmdline", "rb") as handle:
                if marker.encode() in handle.read():
                    found.append(int(pid))
    return found


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
@pytest.mark.parametrize(
    "argv, reader_leaves",
    [
        (ENUMERATE_3E6, False),
        # refused at the column-cell cap, after the build has started
        (["enumerate", *DENSE2, "--x", "1e12"], False),
        (["dfun", "--vmax", "32"], False),
        (ENUMERATE_3E6, True),
    ],
    ids=["enumerate-3e6", "enumerate-refused", "dfun-32", "enumerate-closed"],
)
def test_no_build_outlives_the_cli(tmp_path, argv, reader_leaves):
    # The op runs in its own session, and its builds (and gcc's own
    # temporary files) in a private TMPDIR: once it has exited, no process
    # of its group, and no compiler working in that TMPDIR, is left, and
    # the TMPDIR is empty.
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    command = [sys.executable, "-m", "densediv.cli", *argv]
    env = dict(os.environ, PYTHONPATH=SRC, TMPDIR=str(tmp))
    proc = subprocess.Popen(
        command, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, start_new_session=True,
    )
    try:
        if reader_leaves:
            assert proc.stdout.readline().startswith(b"n,omega")
            proc.stdout.close()
            code = proc.wait(timeout=120)
        else:
            proc.communicate(timeout=120)
            code = proc.returncode
    finally:
        proc.kill()
    assert code == (1 if reader_leaves or "1e12" in argv else 0)
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)
    assert _build_processes(str(tmp)) == []
    assert os.listdir(tmp) == []


@pytest.mark.parametrize("argv", [["constants"], ["count", *DENSE2, "--x", "1000"]])
def test_light_ops_load_no_build_machinery(argv):
    # _native imports subprocess and shlex only when a build starts, so
    # ops that build nothing pay nothing for it.
    proc, loaded = _cli_imports(*argv)
    assert proc.returncode == 0
    assert "densediv._native" in loaded
    assert not loaded & {"subprocess", "shlex"}


@pytest.mark.parametrize(
    "argv, stdout",
    [
        ([], (
            b"gamma                0.577215664902\n"
            b"C                    2.28029101651\n"
            b"C_log2               1.58057728895\n"
            b"exp_shifted_prime    3.01711224322\n"
            b"exp_twin             8.32230915581\n"
            b"exp_shifted_prime_e  3.16479524025\n"
            b"exp_twin_e           9.53667754145\n"
            b"e_log2               1.88416938536\n"
        )),
        (["--json"], (
            b'{"gamma": 0.577215664902, "C": 2.28029101651, '
            b'"C_log2": 1.58057728895, "exp_shifted_prime": 3.01711224322, '
            b'"exp_twin": 8.32230915581, '
            b'"exp_shifted_prime_e": 3.16479524025, '
            b'"exp_twin_e": 9.53667754145, "e_log2": 1.88416938536}\n'
        )),
    ],
    ids=["text", "json"],
)
def test_constants_loads_no_numpy(argv, stdout):
    # The closed forms need only math, so the benchmark's setup op starts
    # without numpy.
    proc, loaded = _cli_imports("constants", *argv)
    assert proc.returncode == 0 and proc.stdout == stdout
    assert not loaded & {"numpy", "densediv.arith"}


def test_families_loads_no_numpy():
    # The CLI parses a family, and starts a build, before numpy loads.
    proc = _python(
        "-c", "import densediv.families, sys; print('numpy' in sys.modules)"
    )
    assert proc.stdout == b"False\n"
