"""Run one densediv CLI op with every public layer function timed.

Usage: ``PYTHONPATH=src python3 perfbench/traced_cli.py <cli args...>``

Each public function of the layer modules is replaced, in every densediv
namespace that imported it, by a wrapper that records inclusive time, self
time (inclusive minus the wrapped calls it covers), calls and the rise of
``ru_maxrss`` across the call.  Functions called once per member only feed
counters; the others also keep their first SPAN_LIMIT calls as spans.
Everything stays in memory until the op ends, then goes to stderr as one
line starting with MARKER, so stdout is byte-identical to an untraced run.
Work done inside worker processes (``--threads`` > 1) is not recorded: the
parent's span around the pool covers it.
"""

from __future__ import annotations

import inspect
import json
import os
import resource
import sys
import time

SPAWN_ENV = "PERFBENCH_SPAWN_TIME"
MARKER = "@@perfbench-trace "

LAYERS = ("arith", "families", "generate", "identities", "specfun", "experiments", "cli")
PER_MEMBER = {"arith.rough_count", "families.threshold_floor", "generate.iter_members"}
LIMIT_ARG = {"arith.build_spf_table", "arith.primes_up_to"}
GRID_RESULT = {"specfun.tabulate_buchstab", "specfun.tabulate_density_kernel"}
SPAN_LIMIT = 256


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Per-function counters, spans and the stack that yields self time."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.funcs: dict[str, dict] = {}
        self.spans: list[dict] = []
        self.stack: list[list] = []  # [name, time covered by wrapped children]

    def _stats(self, name: str) -> dict:
        stats = self.funcs.get(name)
        if stats is None:
            stats = self.funcs[name] = {
                "calls": 0, "s": 0.0, "self_s": 0.0, "rss_growth_mb": 0.0,
                "limit": 0, "records": 0, "grid_points": 0,
            }
        return stats

    def _timed(self, name: str, call, args):
        """Run call() as one timed call of name; returns its result."""
        stats = self._stats(name)
        span = name not in PER_MEMBER and stats["calls"] < SPAN_LIMIT
        parent = self.stack[-1][0] if self.stack else None
        frame = [name, 0.0]
        self.stack.append(frame)
        rss0 = _maxrss_mb() if span else 0.0
        t0 = time.perf_counter()
        try:
            return call()
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
            elapsed = t1 - t0
            if self.stack:
                self.stack[-1][1] += elapsed
            stats["calls"] += 1
            stats["s"] += elapsed
            stats["self_s"] += elapsed - frame[1]
            if name in LIMIT_ARG and args and isinstance(args[0], int):
                stats["limit"] = max(stats["limit"], args[0])
            if span:
                growth = _maxrss_mb() - rss0
                stats["rss_growth_mb"] = max(stats["rss_growth_mb"], growth)
                self.spans.append({
                    "name": name, "parent": parent,
                    "start": t0 - self.origin, "end": t1 - self.origin,
                    "self_s": elapsed - frame[1], "rss_growth_mb": growth,
                })

    def wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            def wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                done = object()
                try:
                    while True:
                        item = self._timed(name, lambda: next(inner, done), args)
                        if item is done:
                            return
                        self.funcs[name]["records"] += 1
                        yield item
                finally:
                    inner.close()
        else:
            def wrapper(*args, **kwargs):
                result = self._timed(name, lambda: fn(*args, **kwargs), args)
                if name in GRID_RESULT:
                    self.funcs[name]["grid_points"] += len(result.values)
                return result
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__module__ = fn.__module__
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap each public function and method of the layer modules."""
        wrapped = {}
        for layer in LAYERS:
            module = sys.modules[f"densediv.{layer}"]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrapped[obj] = self.wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            setattr(obj, meth, self.wrap(f"{layer}.{meth}", fn))
        for name, module in list(sys.modules.items()):
            if name != "densediv" and not name.startswith("densediv."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(module, attr, wrapped[obj])


def main(argv: list[str]) -> int:
    sys.argv = ["densediv", *argv]
    import densediv  # noqa: F401  (imports every layer module)
    import densediv.cli

    import_s = time.time() - float(os.environ.get(SPAWN_ENV, time.time()))
    tracer = Tracer()
    tracer.install()
    try:
        code = densediv.cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        record = {"import_s": import_s, "funcs": tracer.funcs, "spans": tracer.spans}
        sys.stderr.write(MARKER + json.dumps(record) + "\n")
        sys.stderr.flush()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
