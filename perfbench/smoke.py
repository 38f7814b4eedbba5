"""Fast smoke test of the benchmark (about ten seconds).

Run from the repository root:  python3 perfbench/smoke.py

It is not collected by the test suite, because it runs the benchmark.
It checks the reference oracles on cases small enough to count by hand,
that a short ``set-queries`` run prints a correct result with every
end-to-end metric of BENCHMARK.json, that ``--compare`` reads that
result, that the per-layer names match BENCHMARK.json, that the
benchmark refuses to run where the program is missing, and that it still
prints a result, not correct, when every operation fails.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from itertools import combinations
from math import gcd

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import reference as ref  # noqa: E402


def check_reference() -> None:
    for k in range(3, 7):
        for l in range(k - 1, 16):
            brute = sum(1 for c in combinations(range(1, l), k - 2) if gcd(*c, l) == 1)
            assert ref.gcd_one_count(k, l) == brute, (k, l)
    assert ref.naive_restricted((0, 1, 4, 9)) == {1, 4, 5, 9, 10, 13}
    assert len(ref.naive_double((0, 1, 4, 9))) == 10
    assert ref.proven_floor_violations((0, 1, 4, 9)) == []
    assert ref.proven_floor_violations((0, 2, 4)) != []  # gcd 2: not normalized
    assert ref.extremal_at_span(4) == {(0, 1, 4, 5), (0, 2, 3, 5)}


def check_run(root: str, declared: dict) -> None:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "set-queries",
         "--seed", "0", "--seconds", "0.5", "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, result
    want = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, (got, want)
    assert all(m["value"] > 0 for m in result["metrics"].values()), result
    saved = os.path.join(HERE, "out", "result-set-queries-seed0-trace0.json")
    subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--compare", saved, saved],
                   cwd=root, capture_output=True, timeout=60, check=True)


def run_bare(root: str, program: dict[str, str]) -> subprocess.CompletedProcess:
    """Run a one-second lemma-sweep in a directory that holds only
    BENCHMARK.json, perfbench/ and the files in ``program``."""
    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        for rel, text in program.items():
            os.makedirs(os.path.dirname(os.path.join(bare, rel)), exist_ok=True)
            with open(os.path.join(bare, rel), "w", encoding="utf-8") as fh:
                fh.write(text)
        return subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "lemma-sweep", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def check_refuses_without_program(root: str) -> None:
    out = run_bare(root, {})
    assert out.returncode != 0 and not out.stdout.strip(), out


def check_reports_failed_operations(root: str) -> None:
    """A program whose every certify exits non-zero still gets a result:
    not correct, every operation failed, and no time metric."""
    out = run_bare(root, {"src/sumset_lab/__init__.py": "",
                          "src/sumset_lab/cli.py": "raise SystemExit(1)\n"})
    assert out.returncode == 0, out
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert not result["correct"], result
    assert result["attempted"] == result["failed"] > 0, result
    assert "wall_s" not in result["metrics"] and "setup_s" in result["metrics"], result


def main() -> int:
    root = os.path.dirname(HERE)
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == layers.UNITS
    check_reference()
    check_run(root, declared)
    check_refuses_without_program(root)
    check_reports_failed_operations(root)
    print("perfbench smoke test: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
