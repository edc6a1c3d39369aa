"""Single command-line entry point for every subsystem.

Subcommands: ``enumerate``, ``count``, ``stats``, ``wfun``, ``dfun``,
``constants``, ``identity``, ``experiment``.  All data output is
machine-readable (CSV on stdout or ``--out``), ends with a newline, and is a
pure function of the argument vector: reals are printed with 12 significant
digits, integers in full, and no timestamps or versions enter the data
stream (version goes to stderr behind ``--verbose``).  ``--out`` replaces a
regular, missing or symlinked target atomically, via a temp file and rename,
and writes any other target (a device, a pipe) in place; a symlink keeps
pointing at its target, which gets the bytes.

Exit status: 0 on success, 1 on computation failure (range/domain errors,
a failed exact identity, or a failed experiment gate), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import itertools
import math
import os
import re
import sys
from decimal import Decimal, InvalidOperation
from typing import TYPE_CHECKING, Iterable, Iterator

from . import __version__, _native
from .errors import ConfigurationError, DensedivError
from .families import FAMILY_KINDS, ThetaFamily, parse_t

# Run as a script, the CLI imports numpy and every layer past families only
# in the handlers that run them: enumerate and dfun start their C build
# before those imports, and count, stats and enumerate never load
# experiments, identities or specfun (imported as a module it loads them
# all; see the end of this file).
if TYPE_CHECKING:
    from .experiments import ExperimentReport

_EXPERIMENTS = (
    "mean-omega",
    "concentration",
    "cq-structure",
    "phi-scan",
    "margenstern",
    "tau-order",
    "count-ratio",
)

_IDENTITY_CHECKS = ("phi0", "phik", "lambda0", "lambdak", "mu0", "muapprox")

_ROW_BLOCK = 1 << 16  # CSV rows formatted and written at a time


def _parse_exact_int(text: str) -> int:
    """Exact integer from '20', '1e6', or '10000.0'; reject fractions."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        value = Decimal(text)
    except InvalidOperation:
        raise ConfigurationError(f"not an integer: {text!r}") from None
    # is_finite first: inf has no int and comparing sNaN raises
    if not value.is_finite() or value != value.to_integral_value():
        raise ConfigurationError(f"not an integer: {text!r}")
    return int(value)


def _parse_int_list(text: str) -> list[int]:
    items = [piece for piece in text.split(",") if piece]
    if not items:
        raise ConfigurationError(f"empty integer list: {text!r}")
    return [_parse_exact_int(piece) for piece in items]


def _parse_float_list(text: str) -> list[float]:
    items = [piece for piece in text.split(",") if piece]
    if not items:
        raise ConfigurationError(f"empty list: {text!r}")
    try:
        return [float(piece) for piece in items]
    except ValueError:
        raise ConfigurationError(f"not a number list: {text!r}") from None


def _fmt(value: float | int | str) -> str:
    """Strings as given, integers in full, reals at 12 significant digits."""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return f"{value:.12g}"


def _emit(lines: Iterable[str], out: str | None) -> None:
    """Write each line as it arrives, to stdout or to a temp file renamed to
    out.  An out that exists and is no regular file (a device such as
    /dev/null, a pipe, /dev/fd/N) is written in place: a rename would replace
    the node.  Otherwise symlinks in out are resolved, so the rename replaces
    the file a link names (or creates it, for a dangling link) and the link
    stays."""
    if out is None:
        sys.stdout.writelines(f"{line}\n" for line in lines)
        return
    in_place = os.path.exists(out) and not os.path.isfile(out)
    path = out if in_place else os.path.realpath(out)
    tmp = path if in_place else f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.writelines(f"{line}\n" for line in lines)
        if not in_place:
            os.replace(tmp, path)
    except OSError as exc:
        raise ConfigurationError(
            f"cannot write {out}: {exc.strerror or exc}"
        ) from None
    finally:
        if not in_place:
            with contextlib.suppress(OSError):  # gone once renamed
                os.remove(tmp)


def _csv_blocks(row: str, columns) -> Iterator[str]:
    """The rows of equal-length columns, each formatted by the %-template
    row, as one newline-joined string per _ROW_BLOCK rows: one interpolation
    per block, and only one block's text held at a time."""
    import numpy as np

    for a in range(0, len(columns[0]), _ROW_BLOCK):
        cells = np.column_stack([c[a : a + _ROW_BLOCK] for c in columns])
        yield "\n".join([row] * len(cells)) % tuple(cells.ravel().tolist())


def _csv_kernel():
    """The C integer-CSV formatter (``_csv_rows.c``), or None where it
    cannot be built or loaded."""
    import ctypes

    count = ctypes.c_int64
    return _native.kernel(
        _native.CSV_SOURCE, "csv_rows",
        [ctypes.c_void_p, count, count, count, ctypes.c_void_p], count,
    )


def _int_blocks(columns, kernel) -> Iterator[str]:
    """_csv_blocks of the integer columns with the template "%d,...,%d":
    the same bytes, block by block, formatted by kernel (from _csv_kernel)
    into one reusable buffer when it is not None and the columns are
    C-contiguous int64 of one length."""
    import ctypes

    import numpy as np

    rows = len(columns[0])
    if kernel is None or not rows or not all(
        c.dtype == np.int64 and c.flags.c_contiguous and len(c) == rows
        for c in columns
    ):
        yield from _csv_blocks(",".join(["%d"] * len(columns)), columns)
        return
    # 21 bytes a cell: a sign, up to 19 digits and a separator
    buf = bytearray(21 * len(columns) * min(_ROW_BLOCK, rows))
    out = ctypes.addressof(ctypes.c_char.from_buffer(buf))
    cols = (ctypes.c_void_p * len(columns))(*(c.ctypes.data for c in columns))
    text = memoryview(buf)
    for a in range(0, rows, _ROW_BLOCK):
        end = kernel(cols, len(columns), a, min(a + _ROW_BLOCK, rows), out)
        yield str(text[: end - 1], "ascii")  # _emit ends the last row


def _family_from_args(args: argparse.Namespace) -> ThetaFamily:
    kind = args.family
    if kind == "dense":
        if args.t is None:
            raise ConfigurationError("--t is required for the dense family")
        return ThetaFamily.dense(parse_t(args.t))
    if getattr(args, "t", None) is not None:
        raise ConfigurationError("--t only applies to the dense family")
    return ThetaFamily(kind)


def _expected_omega(family: ThetaFamily, x: int) -> float:
    """Reference mean for the distinct-factor count (0 when undefined)."""
    from .constants import DENSITY_SCALE, expected_distinct_factors

    if family.kind == "dense" and x >= 2:
        return expected_distinct_factors(x, family.t_float)
    if x >= 3:
        return DENSITY_SCALE * math.log(math.log(x))
    return 0.0


def _check_common(args: argparse.Namespace) -> None:
    """Reject shared option values that no subcommand can honour."""
    if args.threads < 1:
        raise ConfigurationError(f"--threads must be >= 1, got {args.threads}")
    xi = getattr(args, "xi", None)
    if xi is not None and not (math.isfinite(xi) and xi > 0):
        raise ConfigurationError(f"--xi must be finite and > 0, got {xi}")


# ---- subcommand handlers ----


def _cmd_enumerate(args: argparse.Namespace) -> int:
    family = _family_from_args(args)
    fast = args.x >= _native.CSV_MIN_X
    if fast:  # builds while numpy loads and the members are walked
        _native.start(_native.CSV_SOURCE)
    from .generate import MEMBER_COLUMNS, member_columns

    columns = member_columns(family, args.x, MEMBER_COLUMNS)
    blocks = _int_blocks(columns, _csv_kernel() if fast else None)
    _emit(itertools.chain([",".join(MEMBER_COLUMNS)], blocks), args.out)
    return 0


def _cmd_count(args: argparse.Namespace) -> int:
    from .generate import count_members_multi

    family = _family_from_args(args)
    count = count_members_multi(family, args.x, [args.q])[0]
    _emit([str(count)], args.out)
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from .generate import collect_moments, deviation_bound

    family = _family_from_args(args)
    expected = _expected_omega(family, args.x)
    summary = collect_moments(family, args.x)
    columns = {
        "x": args.x,
        "t": family.t_float,
        "count": summary.count,
        "mean_omega": summary.mean_omega,
        "mean_big_omega": summary.mean_big_omega,
        "variance_omega": summary.variance_omega,
        "mean_tau": summary.mean_tau,
        "mean_log_tau": summary.sum_log_tau / summary.count,
        "expected_omega": expected,
        "exceed_fraction": summary.exceed_fraction(
            expected, deviation_bound(args.x, args.xi)
        ),
    }
    _emit([",".join(columns), ",".join(map(_fmt, columns.values()))], args.out)
    return 0


def _table_lines(table) -> Iterator[str]:
    """The table as CSV, reals at 12 significant digits as _fmt prints them."""
    yield "abscissa,value"
    yield from _csv_blocks("%.12g,%.12g", (table.grid, table.values))


def _cmd_wfun(args: argparse.Namespace) -> int:
    from .specfun import SolverConfig, tabulate_buchstab

    cfg = SolverConfig(
        step=args.step, max_abscissa=args.umax, quadrature=args.quadrature
    )
    _emit(_table_lines(tabulate_buchstab(cfg)), args.out)
    return 0


def _cmd_dfun(args: argparse.Namespace) -> int:
    if _native.march_uses_kernel(args.step, args.vmax):
        _native.start(_native.MARCH_SOURCE)  # builds while numpy loads
    from .specfun import SolverConfig, tabulate_buchstab, tabulate_density_kernel

    cfg = SolverConfig(step=args.step, max_abscissa=args.vmax)
    w = tabulate_buchstab(cfg)
    _emit(_table_lines(tabulate_density_kernel(cfg, w)), args.out)
    return 0


def _cmd_constants(args: argparse.Namespace) -> int:
    from .constants import constants_bundle

    fields = dataclasses.asdict(constants_bundle()).items()
    if args.json:
        body = ", ".join(f'"{name}": {value:.12g}' for name, value in fields)
        _emit(["{" + body + "}"], args.out)
    else:
        width = max(len(name) for name, _ in fields)
        _emit(
            [f"{name:<{width}}  {value:.12g}" for name, value in fields],
            args.out,
        )
    return 0


def _cmd_identity(args: argparse.Namespace) -> int:
    from .identities import (
        CheckResult,
        check_partition_identity,
        check_shifted_partition_identity,
        check_weight_shift,
        log_moment_gap,
        weight_series_partial_sum,
        weighted_log_moment_sum,
    )

    family = _family_from_args(args)
    check = args.check
    if not args.s >= 1.0:
        raise ConfigurationError(f"--s must be >= 1, got {args.s}")
    if check in ("phi0", "phik", "muapprox") and args.x is None:
        raise ConfigurationError(f"--x is required for {check}")
    if check in ("lambda0", "lambdak", "mu0") and args.N is None:
        raise ConfigurationError(f"--N is required for {check}")
    if check in ("phik", "lambdak") and not args.qs:
        raise ConfigurationError(f"--qs is required for {check}")
    if check == "phi0":
        result = check_partition_identity(family, args.x)
    elif check == "phik":
        result = check_shifted_partition_identity(family, args.x, args.qs)
    elif check == "lambda0":
        total = weight_series_partial_sum(family, args.s, args.N)
        result = CheckResult(
            "weight_series", total, 1.0, 1.0 - total,
            0.0 <= total <= 1.0 + 1e-9,
        )
    elif check == "lambdak":
        result = check_weight_shift(family, args.s, args.N, args.qs)
    elif check == "mu0":
        total = weighted_log_moment_sum(family, args.s, args.N)
        result = CheckResult("log_moment_series", total, 0.0, abs(total), True)
    else:  # muapprox
        if family.kind != "dense":
            raise ConfigurationError("muapprox applies to the dense family")
        gap = log_moment_gap(args.x, family.t)
        result = CheckResult("log_moment_limit", gap, 0.0, gap, True)
    lines = [
        "lhs,rhs,gap,pass",
        f"{_fmt(result.lhs)},{_fmt(result.rhs)},{_fmt(result.gap)},"
        f"{_fmt(result.passed)}",
    ]
    _emit(lines, args.out)
    return 0 if result.passed else 1


def _report_lines(report: ExperimentReport) -> list[str]:
    from .experiments import ReportRow

    lines = [",".join(field.name for field in dataclasses.fields(ReportRow))]
    lines.extend(
        ",".join(map(_fmt, dataclasses.astuple(row))) for row in report.rows
    )
    return lines


def _report_json(report: ExperimentReport) -> list[str]:
    rows = ", ".join(
        "{"
        + f'"x": {row.x}, "t": {row.t:.12g}, "q": {row.q}, '
        + f'"measured": {row.measured:.12g}, "predicted": {row.predicted:.12g}, '
        + f'"rel_err": {row.rel_err:.12g}, "metric": "{row.metric}"'
        + "}"
        for row in report.rows
    )
    return [
        f'{{"name": "{report.name}", "verdict": "{report.verdict}", '
        f'"rows": [{rows}]}}'
    ]


def _cmd_experiment(args: argparse.Namespace) -> int:
    from .experiments import (
        ExperimentReport,
        concentration_experiment,
        count_ratio_experiment,
        cq_structure_experiment,
        margenstern_tables,
        mean_omega_experiment,
        phi_approx_scan,
        tau_normal_order_experiment,
    )

    name = args.name
    if name == "mean-omega":
        _require(args, "t", "xs")
        report = mean_omega_experiment(parse_t(args.t), args.xs)
    elif name == "concentration":
        _require(args, "t", "xs")
        if args.xi < 1.0:
            raise ConfigurationError(f"--xi must be >= 1 for concentration, got {args.xi}")
        parts = [concentration_experiment(parse_t(args.t), x, args.xi) for x in args.xs]
        verdict = "fail" if any(p.failed for p in parts) else "pass"
        rows = tuple(row for part in parts for row in part.rows)
        report = ExperimentReport("concentration", rows, verdict)
    elif name == "cq-structure":
        _require(args, "t", "x", "qs")
        report = cq_structure_experiment(parse_t(args.t), args.x, args.qs)
    elif name == "phi-scan":
        _require(args, "xs", "ys")
        report = phi_approx_scan(args.xs, args.ys)
    elif name == "margenstern":
        _require(args, "xs")
        report = margenstern_tables(args.xs)
    elif name == "tau-order":
        _require(args, "x")
        report = tau_normal_order_experiment(args.x)
    else:  # count-ratio
        _require(args, "t", "xs")
        report = count_ratio_experiment(parse_t(args.t), args.xs)
    lines = _report_json(report) if args.json else _report_lines(report)
    _emit(lines, args.out)
    print(f"experiment {report.name}: {report.verdict}", file=sys.stderr)
    return 1 if report.failed else 0


def _require(args: argparse.Namespace, *names: str) -> None:
    for name in names:
        if getattr(args, name, None) is None:
            raise ConfigurationError(
                f"--{name} is required for this experiment"
            )


# ---- parser assembly ----


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="densediv",
        description="Chain-condition integer families: enumeration, counts, "
        "special functions, identities, experiments.",
    )
    parser.add_argument(
        "--verbose", action="store_true", help="print version info to stderr"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--out", help="write output to this file: a regular, missing or "
        "symlinked file is replaced atomically (a symlink keeps pointing at its "
        "target), any other target (a device, a pipe) is written in place",
    )
    common.add_argument(
        "--threads", type=int, default=1,
        help="accepted for compatibility; has no effect (counting is serial)",
    )

    fam = argparse.ArgumentParser(add_help=False)
    fam.add_argument(
        "--family", required=True, choices=FAMILY_KINDS,
        help="member family",
    )
    fam.add_argument(
        "--t", help="ratio bound for the dense family: int, num/den, or decimal"
    )

    p_enum = sub.add_parser(
        "enumerate", parents=[common, fam], help="list members ascending"
    )
    p_enum.add_argument("--x", type=_parse_exact_int, required=True)
    p_enum.set_defaults(handler=_cmd_enumerate)

    p_count = sub.add_parser(
        "count", parents=[common, fam], help="count members (single integer)"
    )
    p_count.add_argument("--x", type=_parse_exact_int, required=True)
    p_count.add_argument("--q", type=_parse_exact_int, default=1)
    p_count.add_argument(
        "--engine", choices=["auto", "python", "numpy"], default="auto",
        help="accepted; it has no effect",
    )
    p_count.set_defaults(handler=_cmd_count)

    p_stats = sub.add_parser(
        "stats", parents=[common, fam], help="moment summary of a member set"
    )
    p_stats.add_argument("--x", type=_parse_exact_int, required=True)
    p_stats.add_argument("--xi", type=float, default=4.0)
    p_stats.add_argument(
        "--engine", choices=["auto", "python", "numpy"], default="auto",
        help="accepted; it has no effect",
    )
    p_stats.set_defaults(handler=_cmd_stats)

    p_wfun = sub.add_parser(
        "wfun", parents=[common], help="tabulate the delay-equation function w"
    )
    p_wfun.add_argument("--umax", type=float, default=64.0)
    p_wfun.add_argument("--step", type=float, default=1e-3)
    p_wfun.add_argument(
        "--quadrature", choices=["trapezoid", "simpson"], default="trapezoid"
    )
    p_wfun.set_defaults(handler=_cmd_wfun)

    p_dfun = sub.add_parser(
        "dfun", parents=[common], help="tabulate the density kernel d"
    )
    p_dfun.add_argument("--vmax", type=float, default=32.0)
    p_dfun.add_argument("--step", type=float, default=1e-3)
    p_dfun.set_defaults(handler=_cmd_dfun)

    p_const = sub.add_parser(
        "constants", parents=[common], help="print the constants bundle"
    )
    p_const.add_argument("--json", action="store_true")
    p_const.set_defaults(handler=_cmd_constants)

    p_ident = sub.add_parser(
        "identity", parents=[common, fam], help="run an identity check"
    )
    p_ident.add_argument("--check", required=True, choices=_IDENTITY_CHECKS)
    p_ident.add_argument("--x", type=_parse_exact_int)
    p_ident.add_argument("--qs", type=_parse_int_list)
    p_ident.add_argument("--s", type=float, default=1.0)
    p_ident.add_argument("--N", type=_parse_exact_int)
    p_ident.set_defaults(handler=_cmd_identity)

    p_exp = sub.add_parser(
        "experiment", parents=[common], help="run a reproduction experiment"
    )
    p_exp.add_argument("name", choices=_EXPERIMENTS)
    p_exp.add_argument("--t")
    p_exp.add_argument("--x", type=_parse_exact_int)
    p_exp.add_argument("--xs", type=_parse_int_list)
    p_exp.add_argument("--ys", type=_parse_float_list)
    p_exp.add_argument("--qs", type=_parse_int_list)
    p_exp.add_argument("--xi", type=float, default=4.0)
    p_exp.add_argument("--json", action="store_true")
    p_exp.set_defaults(handler=_cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Parse the argument vector and dispatch; returns the exit status."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.verbose:
        print(f"densediv {__version__}", file=sys.stderr)
    try:
        _check_common(args)
        return args.handler(args)
    except DensedivError as exc:
        # One short line: integers past 20 digits in 6-digit e-notation.
        text = re.sub(r"(?<![\d.])\d{21,}(?![\d.])",
                      lambda m: f"{Decimal(m[0]):.5e}", str(exc))
        print(f"error: {text}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigurationError) else 1


def run() -> int:
    """Process entry point (``python -m densediv.cli`` and the ``densediv``
    console script): main() with the import-time heap frozen and a stdout
    closed by its reader handled; returns the exit status."""
    # Objects made by the imports live until exit, so neither the run's
    # collections nor the ones at shutdown need to scan them.  The handlers
    # import numpy and the layers after this freeze, so that a C build can
    # start first; the freeze after the command keeps the collection at
    # shutdown off those too.
    gc.freeze()
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader left (say `| head`): point stdout at devnull so the
        # flush at exit finds no closed pipe, and report failure.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
else:
    # Imported as a module, the CLI keeps every layer loaded, so callers
    # that patch layer functions through sys.modules (the test sweeps,
    # perfbench/traced_cli.py) find them all before the first handler runs.
    from . import experiments, identities, specfun  # noqa: E402,F401
