"""sumset-lab benchmark: one command for every workload.

Run from the repository root:

    python3 perfbench/run.py --workload lemma-sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --compare OLD.json NEW.json

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, measured with tracing
off; with ``--trace 1`` they are the per-layer ones, and spans and
counts go to ``perfbench/out/trace-<workload>-seed<n>.json``.  Each run
also writes ``perfbench/out/result-<workload>-seed<n>-trace<t>.json``,
which records the Python version, ``nproc`` and the git commit beside
the result; ``--compare`` reads two such files.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from array import array

import yardstick

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
# set-up probes are spread over the timed loop, at most one per
# SETUP_EVERY_S, so that their median sees the same spells of CPU speed
# as the operations do; a run takes at least SETUP_MIN of them
SETUP_EVERY_S = 1.0
SETUP_MIN = 5

UNITS = {
    "wall_s": "s", "cpu_s": "s", "sets_per_s": "1/s", "query_p50_ms": "ms",
    "query_p90_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB",
}


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least p of the
    samples at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


class Repeats:
    """Wall and CPU time of every repeat of each operation in a run, with
    the yardstick time taken around each repeat.

    An operation's time is the median over its repeats of its time in
    yardstick units, scaled to seconds at the reference speed (see
    ``yardstick.py``).  On a shared VM the machine's speed moves by up to
    1.5 times, in spells that can outlast a run; a repeat and the
    yardstick next to it move together, so their ratio does not.
    """

    def __init__(self) -> None:
        self.wall: dict = {}
        self.cpu: dict = {}
        self.yard: dict = {}
        self.sets: dict = {}

    def add(self, op) -> None:
        if op.failed:
            return
        for times, value in ((self.wall, op.wall_s), (self.cpu, op.cpu_s),
                             (self.yard, op.yard_s)):
            times.setdefault(op.key, array("d")).append(value)
        self.sets[op.key] = op.sets

    def typical(self, times: dict) -> list[float]:
        """Each operation's median repeat, in seconds at the reference speed."""
        return [statistics.median(yardstick.REFERENCE_S * t / y
                                  for t, y in zip(v, self.yard[key]))
                for key, v in times.items()]


def time_setup(cmd: list[str], env: dict, problems: list[str]) -> float | None:
    """One set-up in seconds at the reference speed, or None if it failed.

    A set-up is mostly interpreter start and import, which a slow spell
    slows more than computation, so its yardstick is a fresh interpreter
    that runs the probe, timed before and after it.
    """
    from workloads import run_child

    yard_cmd = [sys.executable, os.path.join(HERE, "yardstick.py")]
    walls = []
    for run_cmd in (yard_cmd, cmd, yard_cmd):
        code, _text, wall, _cpu, _rss = run_child(run_cmd, env, OUT_DIR)
        if code != 0:
            problems.append(f"{os.path.basename(run_cmd[1])} exited with code {code}")
            return None
        walls.append(wall)
    before, setup, after = walls
    return yardstick.REFERENCE_START_S * setup / ((before + after) / 2)


@contextlib.contextmanager
def one_cpu(pin: bool):
    """Keep the client, and every process it starts, on one CPU.

    The vCPUs of a shared VM change speed each on its own, and the
    yardstick measures the CPU it runs on, so an operation has to run
    where its yardstick does.  A pool needs every CPU and is not pinned.
    """
    allowed = os.sched_getaffinity(0)
    if pin:
        os.sched_setaffinity(0, {max(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def git_sha(root: str) -> str:
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run(args, root: str) -> tuple[dict, dict]:
    """The result, and the per-operation times of a sweep for the result file."""
    import workloads
    from spans import Tracer

    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    problems: list[str] = []
    setup_cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"),
                 args.workload, str(args.seed)]
    setup_times: list[float | None] = []
    wl = workloads.make(args.workload, args.seed, env, OUT_DIR)
    tracer = Tracer() if args.trace else None
    plain, traced = Repeats(), Repeats()
    attempted = failed = rounds = 0
    # a traced run alternates untraced and traced rounds, so that the
    # difference between them is the tracing overhead
    min_rounds = 2 if args.trace else 1
    with one_cpu(wl.single_process), yardstick.Helper() as yard:
        if not args.trace:
            # the first set-up may write the bytecode cache; it is not timed
            time_setup(setup_cmd, env, problems)
        deadline = time.perf_counter() + args.seconds
        next_setup = 0.0
        while rounds < min_rounds or time.perf_counter() < deadline:
            use_tracer = tracer if args.trace and rounds % 2 == 1 else None
            for op in wl.round(yard.probe, use_tracer):
                (traced if use_tracer else plain).add(op)
                attempted += 1
                failed += op.failed
                problems += op.problems[:max(0, 100 - len(problems))]
            rounds += 1
            if not args.trace and time.perf_counter() >= next_setup:
                setup_times.append(time_setup(setup_cmd, env, problems))
                next_setup = time.perf_counter() + SETUP_EVERY_S
        while not args.trace and len(setup_times) < SETUP_MIN:
            setup_times.append(time_setup(setup_cmd, env, problems))
    problems += wl.finish()
    if not plain.wall:
        problems.append("no operation succeeded")
    if args.trace:
        import layers
        import sumset_lab

        metrics, more = layers.run_all(sumset_lab, tracer, args.seed, env, OUT_DIR)
        problems += more
        if plain.wall and traced.wall:
            metrics["trace.overhead_pct"] = (sum(traced.typical(traced.wall))
                                             / sum(plain.typical(plain.wall)) - 1) * 100
        units = layers.UNITS
        tracer.write(os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json"),
                     {"workload": args.workload, "seed": args.seed, "metrics": metrics})
    else:
        metrics = {"peak_rss_mb": wl.peak_rss_mb()}
        setup_times = [t for t in setup_times if t is not None]
        if setup_times:
            metrics["setup_s"] = statistics.median(setup_times)
        if plain.wall:
            walls = plain.typical(plain.wall)
            latencies = [w * 1e3 for w in walls]
            metrics.update({
                "wall_s": sum(walls),
                "cpu_s": sum(plain.typical(plain.cpu)),
                "sets_per_s": sum(plain.sets.values()) / sum(walls),
                "query_p50_ms": percentile(latencies, 0.5),
                "query_p90_ms": percentile(latencies, 0.9),
            })
        metrics = {name: metrics[name] for name in UNITS if name in metrics}
        units = UNITS
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    operations = {
        key: {"repeats": len(w), "median_s": statistics.median(w),
              "yardstick_median_s": statistics.median(plain.yard[key]), "typical_s": typical}
        for (key, w), typical in zip(plain.wall.items(), plain.typical(plain.wall))
        if isinstance(key, str)
    }
    if not args.trace:
        operations["setup"] = {"repeats": len(setup_times),
                               "median_s": metrics.get("setup_s")}
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }, operations


def compare(old_path: str, new_path: str) -> int:
    docs = []
    for path in (old_path, new_path):
        with open(path, encoding="utf-8") as fh:
            docs.append(json.load(fh))
    old, new = docs
    for label, doc in (("old", old), ("new", new)):
        print(f"{label}: {doc['environment']}")
    print(f"{'metric':<44} {'old':>14} {'new':>14} {'new/old':>9} {'old/new':>9}")
    old_m, new_m = old["result"]["metrics"], new["result"]["metrics"]
    for name in sorted(set(old_m) | set(new_m)):
        a = old_m.get(name, {}).get("value")
        b = new_m.get(name, {}).get("value")
        unit = (old_m.get(name) or new_m.get(name))["unit"]
        ratio = f"{b / a:9.3f}" if a and b is not None else f"{'-':>9}"
        inverse = f"{a / b:9.3f}" if b and a is not None else f"{'-':>9}"
        shown = [f"{v:14.6g}" if v is not None else f"{'-':>14}" for v in (a, b)]
        print(f"{name + ' [' + unit + ']':<44} {shown[0]} {shown[1]} {ratio} {inverse}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("floor-sweep", "lemma-sweep",
                                               "parallel-sweep", "set-queries"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "sumset_lab", "__init__.py")):
        print("perfbench: run from the root of a sumset-lab checkout "
              "(src/sumset_lab not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    os.makedirs(OUT_DIR, exist_ok=True)
    result, operations = run(args, root)
    environment = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(root),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    path = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"environment": environment, "result": result, "operations": operations},
                  fh, indent=2)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
