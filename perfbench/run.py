"""densediv benchmark: seeded CLI workloads, checked outputs, traced layer split.

Run from the repository root:

    python3 perfbench/run.py --workload count --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all        # every workload, table of metrics
    python3 perfbench/run.py --baseline            # the ROADMAP baseline commands
    python3 perfbench/run.py --record              # rewrite perfbench/expected.json

One client runs a closed loop: every op is a fresh ``python3 -m densediv.cli``
child started after the previous one exits, with PYTHONPATH=src.  A run
repeats passes over the workload's ops until --seconds have elapsed; before
each op it times a no-op op (``constants``), so set-up time is sampled
across the whole run rather than in one burst.  Every op's output is
checked (see ops.py).  With --trace 1 the run makes one untraced reference
pass, then traced passes through traced_cli.py, and reports the per-layer
split instead of the end-to-end metrics.  Reported times are rescaled to a
reference machine speed (see REF_PROBE_S).  The last stdout line is one
JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import selectors
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import ops
from traced_cli import MARKER, SPAWN_ENV

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACED_CLI = Path(__file__).resolve().parent / "traced_cli.py"

# Guard on each op child only: address space (three times the largest peak
# RSS of any op at this commit) and wall clock.  A memory or time regression
# then fails the op instead of waking the OOM killer or hanging the run.
AS_LIMIT_BYTES = 2 << 30
OP_TIMEOUT_S = 60.0
RUN_DEADLINE_S = 170.0

# The speed of this shared 2-core box drifts by up to a factor of two over
# seconds to minutes (a fixed Python loop measured 23-44 ms), and op times
# follow it.  So every time the benchmark reports is rescaled to a reference
# speed: an op's wall time is multiplied by REF_PROBE_S over the geometric
# mean of the speed probes taken just before and just after it.  The probe
# is benchmark code, so no change to densediv can move it.  REF_PROBE_S is
# the probe's median on this box at the commit that added the benchmark, so
# a rescaled second reads like a wall-clock second at typical speed.
REF_PROBE_S = 0.021
_PROBE_LOOP = 100_000
_PROBE_ELEMENTS = 1 << 21

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "members_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "generate.count_members_multi.s": "s",
    "generate.count_members_multi.self_s": "s",
    "generate.count_members_multi.rss_growth_mb": "MB",
    "generate.collect_moments.s": "s",
    "generate.collect_moments.rss_growth_mb": "MB",
    "generate.collect_divisor_counts.s": "s",
    "generate.collect_divisor_counts.rss_growth_mb": "MB",
    "generate.iter_members.s": "s",
    "generate.iter_members.records": "count",
    "generate.members": "count",
    "arith.build_spf_table.s": "s",
    "arith.build_spf_table.limit": "count",
    "arith.build_spf_table.rss_growth_mb": "MB",
    "arith.rough_count.s": "s",
    "arith.rough_count.calls": "count",
    "families.threshold_floor.s": "s",
    "families.threshold_floor.calls": "count",
    "arith.primes_up_to.s": "s",
    "arith.primes_up_to.calls": "count",
    "arith.primes_up_to.limit": "count",
    "identities.check_partition_identity.self_s": "s",
    "specfun.tabulate_density_kernel.s": "s",
    "specfun.tabulate_buchstab.s": "s",
    "specfun.grid_points": "count",
    "experiments.tau_normal_order_experiment.self_s": "s",
    "cli.self_s": "s",
    "cli.stdout_bytes": "bytes",
    "proc.import_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.uncovered_frac": "ratio",
}


@dataclass
class Op:
    """One finished (or refused) op child."""

    argv: list[str]
    traced: bool
    raw_s: float = 0.0
    scale: float = 1.0
    rss_mb: float = 0.0
    stdout: bytes = b""
    members: int = 0
    error: str | None = None
    trace: dict | None = None

    @property
    def wall_s(self) -> float:
        """Wall time rescaled to the reference speed."""
        return self.raw_s * self.scale

    def line(self) -> str:
        status = "ok" if self.error is None else f"FAIL({self.error})"
        mode = "traced" if self.traced else "plain"
        return (
            f"op {mode} wall_s={self.wall_s:.4f} raw_s={self.raw_s:.4f} "
            f"scale={self.scale:.3f} rss_mb={self.rss_mb:.1f} "
            f"{status} :: PYTHONPATH=src python3 -m densediv.cli {' '.join(self.argv)}"
        )


@dataclass
class Pass:
    ops: list[Op] = field(default_factory=list)
    setup: list[Op] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(op.wall_s for op in self.ops)

    @property
    def raw_s(self) -> float:
        return sum(op.raw_s for op in self.ops)

    @property
    def members(self) -> int:
        return sum(op.members for op in self.ops)


def speed_probe() -> float:
    """Current machine speed as seconds for a fixed amount of work: the
    geometric mean of the medians of three pure-Python loops and three numpy
    passes over a 16 MiB array (densediv ops mix both kinds of work)."""
    data = np.arange(_PROBE_ELEMENTS, dtype=np.int64)
    loop, vec = [], []
    for _ in range(3):
        t0 = time.perf_counter()
        acc, table = 0, {}
        for i in range(_PROBE_LOOP):
            acc += i * i % 7
            table[i & 1023] = acc
        t1 = time.perf_counter()
        np.count_nonzero((data * 3 + 1) % 5 == 0)
        t2 = time.perf_counter()
        loop.append(t1 - t0)
        vec.append(t2 - t1)
    return math.sqrt(statistics.median(loop) * statistics.median(vec))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _limit_child() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (AS_LIMIT_BYTES, AS_LIMIT_BYTES))


def _threads(argv: list[str]) -> int:
    return int(argv[argv.index("--threads") + 1]) if "--threads" in argv else 1


def _drain(proc: subprocess.Popen, timeout: float) -> tuple[bytes, bytes, bool]:
    """Read stdout and stderr to EOF; kill the op's process group on timeout."""
    out_fd, err_fd = proc.stdout.fileno(), proc.stderr.fileno()
    chunks: dict[int, list[bytes]] = {out_fd: [], err_fd: []}
    end = time.monotonic() + timeout
    timed_out = False
    with selectors.DefaultSelector() as sel:
        for pipe in (proc.stdout, proc.stderr):
            sel.register(pipe, selectors.EVENT_READ)
        while sel.get_map():
            left = end - time.monotonic()
            if left <= 0:
                if timed_out:
                    break  # a killed group that still holds the pipes
                timed_out = True
                os.killpg(proc.pid, signal.SIGKILL)
                end = time.monotonic() + 5.0
                continue
            for key, _ in sel.select(left):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fd].append(data)
                else:
                    sel.unregister(key.fileobj)
    proc.stdout.close()
    proc.stderr.close()
    return b"".join(chunks[out_fd]), b"".join(chunks[err_fd]), timed_out


def run_op(argv: list[str], traced: bool, deadline: float, expected: dict | None) -> Op:
    """Run one op child to completion, measure it and check its output."""
    op = Op(argv, traced)
    threads = _threads(argv)
    if threads > (os.cpu_count() or 1):
        op.error = f"--threads {threads} exceeds {os.cpu_count()} CPUs; not started"
        return op
    timeout = min(OP_TIMEOUT_S, deadline - time.monotonic())
    if timeout <= 0:
        op.error = "run deadline reached; not started"
        return op
    head = [sys.executable, str(TRACED_CLI)] if traced else [sys.executable, "-m", "densediv.cli"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # Let children cache bytecode, so set-up time is the steady-state import
    # whatever the caller's environment says.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env[SPAWN_ENV] = repr(time.time())
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [*head, *argv], cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        preexec_fn=_limit_child, start_new_session=True,
    )
    stdout, stderr, timed_out = _drain(proc, timeout)
    _, status, usage = os.wait4(proc.pid, 0)
    op.raw_s = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    op.rss_mb = usage.ru_maxrss / 1024.0
    op.stdout = stdout
    err = stderr.decode(errors="replace")
    if traced:
        kept = []
        for text in err.splitlines():
            if text.startswith(MARKER):
                op.trace = json.loads(text[len(MARKER):])
            else:
                kept.append(text)
        err = "\n".join(kept)
    text = stdout.decode(errors="replace")
    if timed_out:
        op.error = f"killed after {timeout:.0f} s wall-clock limit"
    elif proc.returncode < 0:
        op.error = f"killed by signal {-proc.returncode}"
    elif "Traceback" in err or "MemoryError" in err:
        op.error = "traceback: " + err.strip().splitlines()[-1][:200]
    elif proc.returncode != 0:
        op.error = f"exit {proc.returncode}: {err.strip()[:200]}"
    elif traced and op.trace is None:
        op.error = "no trace record"
    elif expected is not None:
        op.error = ops.check_output(argv, text, expected)
    if op.error is None:
        op.members = ops.members_reported(argv, text)
    return op


def run_pass(argvs, traced, deadline, expected, with_setup=False) -> Pass:
    done = Pass()
    probe = speed_probe()

    def probed(argv: list[str], traced: bool) -> Op:
        nonlocal probe
        op = run_op(argv, traced, deadline, expected)
        after = speed_probe()
        op.scale = REF_PROBE_S / math.sqrt(probe * after)
        probe = after
        print(op.line(), flush=True)
        return op

    for argv in argvs:
        if with_setup:
            done.setup.append(probed(ops.SETUP_OP, False))
        done.ops.append(probed(argv, traced))
    return done


def _repeat_passes(argvs, traced, seconds, deadline, expected, with_setup=False) -> list[Pass]:
    """Passes until --seconds have elapsed, never starting one that would
    overrun the run deadline."""
    start = time.monotonic()
    passes: list[Pass] = []
    while True:
        passes.append(run_pass(argvs, traced, deadline, expected, with_setup))
        now = time.monotonic()
        if now - start >= seconds or now + passes[-1].raw_s > deadline:
            return passes


def end_to_end(argvs, seconds, deadline, expected) -> tuple[dict, list[Op]]:
    passes = _repeat_passes(argvs, False, seconds, deadline, expected, with_setup=True)
    setup = [op for p in passes for op in p.setup]
    values = {
        "setup_s": statistics.median(op.wall_s for op in setup),
        "wall_s": statistics.median(p.wall_s for p in passes),
        "members_per_s": statistics.median(_ratio(p.members, p.wall_s) for p in passes),
        "peak_rss_mb": statistics.median(max(op.rss_mb for op in p.ops) for p in passes),
    }
    return values, setup + [op for p in passes for op in p.ops]


def _funcs(op: Op) -> dict:
    return (op.trace or {}).get("funcs", {})


def _uncovered_s(op: Op) -> float:
    """Rescaled wall time of a traced op that no layer span covers."""
    return op.wall_s - _funcs(op).get("cli.main", {}).get("s", 0.0) * op.scale


def _layer_values(done: Pass, reference: Pass) -> dict:
    """Per-layer metrics of one traced pass, times rescaled like wall_s."""
    funcs: dict[str, dict] = {}
    for op in done.ops:
        for name, stats in _funcs(op).items():
            acc = funcs.setdefault(name, dict.fromkeys(stats, 0))
            for key, value in stats.items():
                if key in ("rss_growth_mb", "limit"):
                    acc[key] = max(acc[key], value)
                elif key in ("s", "self_s"):
                    acc[key] += value * op.scale
                else:
                    acc[key] += value
    values = {}
    for metric in PER_LAYER:
        func, _, what = metric.rpartition(".")
        values[metric] = funcs.get(func, {}).get(what, 0)
    values["generate.members"] = done.members
    values["specfun.grid_points"] = sum(
        funcs.get(f"specfun.{name}", {}).get("grid_points", 0)
        for name in ("tabulate_buchstab", "tabulate_density_kernel"))
    values["cli.self_s"] = funcs.get("cli.main", {}).get("self_s", 0.0)
    values["cli.stdout_bytes"] = sum(len(op.stdout) for op in done.ops)
    values["proc.import_s"] = statistics.median(
        (op.trace or {}).get("import_s", 0.0) * op.scale for op in done.ops)
    values["trace.overhead_frac"] = _ratio(done.wall_s, reference.wall_s) - 1.0
    values["trace.uncovered_frac"] = _ratio(sum(map(_uncovered_s, done.ops)), done.wall_s)
    return values


def per_layer(argvs, seconds, deadline, expected) -> tuple[dict, list[Op]]:
    reference = run_pass(argvs, False, deadline, expected)
    passes = _repeat_passes(argvs, True, seconds, deadline, expected)
    for done in passes:
        for op, ref in zip(done.ops, reference.ops):
            if op.error is None and op.stdout != ref.stdout:
                op.error = "traced stdout differs from untraced stdout"
        for op in done.ops:
            print(f"uncovered_s={_uncovered_s(op):.4f} of wall_s={op.wall_s:.4f} "
                  f":: {' '.join(op.argv)}", flush=True)
    samples = [_layer_values(done, reference) for done in passes]
    values = {m: statistics.median(s[m] for s in samples) for m in PER_LAYER}
    return values, reference.ops + [op for p in passes for op in p.ops]


def run_workload(
    workload: str, seed: int, seconds: int, trace: bool, expected: dict
) -> tuple[dict, list[Op]]:
    deadline = time.monotonic() + RUN_DEADLINE_S
    argvs = ops.ops_for(workload, seed)
    measure = per_layer if trace else end_to_end
    values, done = measure(argvs, seconds, deadline, expected)
    units = PER_LAYER if trace else END_TO_END
    failed = sum(op.error is not None for op in done)
    result = {
        "correct": failed == 0,
        "attempted": len(done),
        "failed": failed,
        "metrics": {m: {"value": values[m], "unit": u} for m, u in units.items()},
    }
    return result, done


def _details(workload: str, seed: int, trace: bool, result: dict, done: list[Op]) -> dict:
    """Everything a run measured, with the argv that replays each op."""
    return {
        "workload": workload, "seed": seed, "trace": trace, "result": result,
        "ops": [
            {"argv": op.argv, "traced": op.traced, "wall_s": op.wall_s,
             "raw_s": op.raw_s, "scale": op.scale, "rss_mb": op.rss_mb,
             "members": op.members, "error": op.error, "trace": op.trace}
            for op in done
        ],
    }


def record() -> None:
    """Run every op of every seed variant once and write expected.json."""
    deadline = float("inf")
    argvs = {ops.op_key(argv): argv for argv in (ops.SETUP_OP, *ops.BASELINE)}
    for seed in range(ops.VARIANTS):
        for workload in ops.WORKLOADS:
            for argv in ops.ops_for(workload, seed):
                argvs.setdefault(ops.op_key(argv), argv)
    recorded = {}
    for key, argv in sorted(argvs.items()):
        op = run_op(argv, False, deadline, None)
        print(op.line(), flush=True)
        text = op.stdout.decode()
        reason = op.error or ops.check_output(argv, text, {key: ops.summarize(text)})
        if reason:
            raise SystemExit(f"refusing to record {key}: {reason}")
        recorded[key] = ops.summarize(text)
    with open(ops.EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(recorded, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*ops.WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="record expected outputs for every seed variant")
    parser.add_argument("--baseline", action="store_true",
                        help="run the ROADMAP baseline commands once each")
    parser.add_argument("--out", help="also write the full results as JSON here")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (SRC / "densediv" / "cli.py").is_file():
        print(f"error: no densediv sources under {SRC}", file=sys.stderr)
        return 2
    if args.record:
        record()
        return 0
    try:
        expected = ops.load_expected()
    except FileNotFoundError:
        print(f"error: {ops.EXPECTED_PATH} missing; run with --record", file=sys.stderr)
        return 2
    if args.baseline:
        done = run_pass(ops.BASELINE, False, float("inf"), expected)
        return 0 if all(op.error is None for op in done.ops) else 1
    if args.workload == "all":
        runs = [(w, trace) for w in ops.WORKLOADS for trace in (False, True)]
    else:
        runs = [(args.workload, bool(args.trace))]
    results, details = {}, []
    for workload, trace in runs:
        result, done = run_workload(workload, args.seed, args.seconds, trace, expected)
        results[(workload, trace)] = result
        details.append(_details(workload, args.seed, trace, result, done))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(details, handle, indent=1)
    if args.workload != "all":
        print(json.dumps(result))
        return 0
    print(f"\n{'workload':<9} {'metric':<48} {'value':>16}  unit")
    for (workload, trace), result in results.items():
        for metric, entry in result["metrics"].items():
            print(f"{workload:<9} {metric:<48} {entry['value']:>16.6g}  {entry['unit']}")
        print(f"{workload:<9} {'failed/attempted' + (' (traced)' if trace else ''):<48} "
              f"{result['failed']:>9}/{result['attempted']:<6}")
    ok = all(r["correct"] for r in results.values())
    print(json.dumps({"correct": ok, "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values())}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
