"""The four workloads, each a closed loop driven by one client.

A workload is run in whole rounds; every round runs the same operations,
so the share of failed operations does not depend on the run length.

* ``floor-sweep``, ``lemma-sweep`` and ``parallel-sweep``: an operation
  is one ``sumset-lab certify`` subprocess on a fixed box.  The seed
  only orders the commands within each round.
* ``set-queries``: an operation is one in-process query on a seeded set
  (see ``queries.py``).
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import resource
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import queries
import reference as ref

CHILD_TIMEOUT_S = 150

# (theorem, k_max, cap or None, jobs)
SWEEPS = {
    "floor-sweep": [("conjecture", 9, 22, 1), ("2", 11, None, 1), ("3", 11, None, 1)],
    "lemma-sweep": [("lemmas", 10, None, 1), ("1", 9, None, 1)],
    "parallel-sweep": [("conjecture", 9, 22, 2), ("lemmas", 10, None, 2)],
}
WORKLOADS = (*SWEEPS, "set-queries")


@dataclass
class Op:
    """One operation.  ``problems`` are wrong outputs; a failed operation
    (an error instead of an output) has none, and counts in ``failed``.
    ``yard_s`` is the yardstick's time around the operation."""

    key: object  # the same operation has the same key in every round
    wall_s: float
    cpu_s: float
    sets: int
    failed: bool = False
    yard_s: float = 0.0
    problems: list = field(default_factory=list)


def failed_op(key, wall: float, cpu: float, why: str) -> Op:
    print(f"operation failed: {key}: {why}", file=sys.stderr)
    return Op(key, wall, cpu, 0, failed=True)


def expectations(theorem: str, k_max: int, cap) -> dict:
    if theorem == "conjecture":
        return ref.conjecture_expectations(k_max, cap)
    if theorem == "1":
        return ref.theorem1_expectations(k_max)
    if theorem == "2":
        return ref.theorem2_expectations(k_max)
    if theorem == "3":
        return ref.theorem3_expectations(k_max)
    return ref.lemmas_expectations(k_max)


def certify_command(theorem: str, k_max: int, cap, jobs: int) -> list[str]:
    cmd = [sys.executable, "-m", "sumset_lab.cli", "certify",
           "--theorem", theorem, "--k-max", str(k_max), "--jobs", str(jobs)]
    if cap is not None:
        cmd += ["--cap", str(cap)]
    return cmd


def run_child(cmd: list[str], env: dict, out_dir: str):
    """Run one program process to its end.

    Returns (exit code, stdout, wall s, cpu s, peak RSS in KiB).  CPU
    time and peak RSS come from ``wait4`` on the child, so they include
    the pool workers the child itself waited for.
    """
    out_path = os.path.join(out_dir, "child.stdout")
    err_path = os.path.join(out_dir, "child.stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return proc.returncode, text, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss


class SweepWorkload:
    """Certify commands as subprocesses, checked against reference counts."""

    def __init__(self, name: str, seed: int, env: dict, out_dir: str):
        self.boxes = SWEEPS[name]
        self.single_process = all(box[3] == 1 for box in self.boxes)
        self.rng = random.Random(seed)
        self.env, self.out_dir = env, out_dir
        self.expected = {box: expectations(*box[:3]) for box in self.boxes}
        self.payloads: dict[tuple, dict] = {}
        self.peak_kib = 0
        self.last_probe = 0.0

    def round(self, probe, tracer=None) -> list[Op]:
        """One command per box; ``probe`` times the yardstick."""
        order = list(self.boxes)
        self.rng.shuffle(order)
        ops = []
        before = self.last_probe or probe()
        for box in order:
            cmd = certify_command(*box)
            if tracer is None:
                op = self._op(box, *run_child(cmd, self.env, self.out_dir))
            else:
                tracer.new_trace()
                with tracer.span(f"cli.certify.{box[0]}.jobs{box[3]}"):
                    op = self._op(box, *run_child(cmd, self.env, self.out_dir))
                tracer.count(f"sets.{box[0]}", op.sets)
            after = probe()
            op.yard_s = (before + after) / 2
            before = after
            ops.append(op)
        self.last_probe = before
        return ops

    def _op(self, box, code, text, wall, cpu, maxrss) -> Op:
        self.peak_kib = max(self.peak_kib, maxrss)
        key = " ".join(certify_command(*box)[3:])
        if code != 0:
            return failed_op(key, wall, cpu, f"exit code {code}")
        try:
            cert = json.loads(text)
        except json.JSONDecodeError:
            return failed_op(key, wall, cpu, "output is not JSON")
        problems = [f"{box}: {p}" for p in ref.check_certificate(box[0], cert, self.expected[box])]
        payload = ref.payload_sans_time(cert)
        first = self.payloads.setdefault(box, payload)
        if payload != first:
            problems.append(f"{box}: payload differs between rounds")
        return Op(key, wall, cpu, cert["counts"]["enumerated"], problems=problems)

    def finish(self) -> list[str]:
        """For pooled boxes, the payload must equal the ``--jobs 1`` payload."""
        problems = []
        for box in self.boxes:
            if box[3] == 1 or box not in self.payloads:
                continue
            serial = (*box[:3], 1)
            code, text, *_ = run_child(certify_command(*serial), self.env, self.out_dir)
            try:
                same = code == 0 and ref.payload_sans_time(json.loads(text)) == self.payloads[box]
            except json.JSONDecodeError:
                same = False
            if not same:
                problems.append(f"{box}: payload differs from --jobs 1")
        return problems

    def peak_rss_mb(self) -> float:
        return self.peak_kib / 1024


class QueryWorkload:
    """In-process library queries, each checked by ``queries.check``."""

    TRACED = {
        "core": ("normalize", "profile"),
        "bounds": ("evaluate_bounds", "is_arithmetic_progression", "is_union_two_aps_same_diff"),
        "structure": ("has_dense_prefix", "exceptional_profile", "check_exceptional_points",
                      "gap_patterns", "top_gap_structure", "witness_profile", "decompose",
                      "find_admissible_split", "split_at"),
        "verify": ("classify_extremal",),
    }

    def __init__(self, name: str, seed: int, env: dict, out_dir: str):
        import sumset_lab

        self.lab = sumset_lab
        self.single_process = True
        self.last_probe = 0.0
        self.queries = queries.generate(seed)
        self.classified: dict = {}

    def round(self, probe, tracer=None) -> list[Op]:
        """Every query once; ``probe`` times the yardstick."""
        # a query is too short to probe around; the round's yardstick,
        # taken before and after it, stands for each of its queries
        before = self.last_probe or probe()
        with contextlib.ExitStack() as stack:
            if tracer is not None:
                for module, names in self.TRACED.items():
                    stack.enter_context(tracer.patch(getattr(self.lab, module), names, module))
            ops = [self._op(i, q, tracer) for i, q in enumerate(self.queries)]
        self.last_probe = probe()
        yard = (before + self.last_probe) / 2
        for op in ops:
            op.yard_s = yard
        return ops

    def _op(self, i: int, q, tracer=None) -> Op:
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            if tracer is None:
                out = queries.run_query(self.lab, q)
            else:
                tracer.new_trace()
                with tracer.span("query"):
                    out = queries.run_query(self.lab, q)
        except Exception as exc:  # a query that raises is a failed operation
            return failed_op(i, time.perf_counter() - t0, time.process_time() - c0,
                             f"{q}: {exc!r}")
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        return Op(i, wall, cpu, 1, problems=queries.check(q, out, self.classified))

    def finish(self) -> list[str]:
        return []

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def make(name: str, seed: int, env: dict, out_dir: str):
    cls = QueryWorkload if name == "set-queries" else SweepWorkload
    return cls(name, seed, env, out_dir)
