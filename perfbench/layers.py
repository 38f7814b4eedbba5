"""Per-layer probes for the traced run.

Each probe times calls into one module's public functions from here,
inside a span, on fixed boxes or on seeded samples.  A probe never
reaches into private names, so a rewrite of a module's insides keeps the
probe valid.  The README maps each metric to the end-to-end metric and
workload it should move.
"""

from __future__ import annotations

import random
import resource
import statistics
import sys
import time

import queries
import reference as ref
from workloads import certify_command, run_child

REPS = 5
RUN_REPS = 2  # repeats of a whole driver or enumeration run; the fastest is kept

UNITS = {
    **{f"core.restricted_size_us.k{k}": "us" for k in (6, 9, 12)},
    "core.normalize_us": "us",
    "verify.enum_nodes_per_s": "1/s",
    "verify.enum_nodes": "count",
    "verify.enum_sets": "count",
    **{f"verify.check_us_per_set.{box}": "us"
       for box in ("conjecture", "theorem1", "theorem2", "theorem3", "lemmas")},
    **{f"structure.{name}_us": "us"
       for name in ("exceptional_profile", "check_exceptional_points", "gap_patterns",
                    "top_gap_structure", "witness_profile", "decompose",
                    "find_admissible_split", "split_at")},
    "structure.restricted_mask_calls_per_set": "count",
    "bounds.evaluate_bounds_us": "us",
    "families.extremal_catalog_ms": "ms",
    "families.dense_extremal_shape_us": "us",
    "verify.pool.speedup": "ratio",
    "verify.row_ms.max": "ms",
    "verify.row_ms.total": "ms",
    "verify.pool.overhead_cpu_s": "s",
    "verify.to_json_ms": "ms",
    "verify.cert_bytes": "bytes",
    "cli.startup_ms": "ms",
    "cli.certify_overhead_ms": "ms",
    "trace.overhead_pct": "%",
}
DENSE = ("gcd_one", "growth_a_i_lt_2i", "last_ge_2k_minus_2")
LOW_SECOND = ("gcd_one", "interior_lt_2k_minus_4", "last_ge_2k_minus_2")
# the witness part of the lemmas box: every gcd-1 set with span in [k-1, 2k-3]
WITNESS = [(k, l, ("gcd_one",)) for k in range(8, 11) for l in range(k - 1, 2 * k - 2)]


def _cells(box: str) -> list[tuple]:
    """(k, l, constraints) cells of the certify boxes the sweeps run."""
    if box == "conjecture":
        return [(k, l, ("gcd_one",)) for k in range(3, 10) for l in range(k - 1, 23)]
    if box == "theorem1":
        return [(k, l, LOW_SECOND) for k in range(3, 10) for l in range(2 * k - 2, 2 * k + 7)]
    if box == "theorem2":
        return [(k, l, DENSE) for k in range(3, 12) for l in range(2 * k - 2, 2 * k + 7)]
    if box == "theorem3":
        return [(k, 2 * k - 3, ("gcd_one",)) for k in range(4, 12)]
    return [(k, l, DENSE) for k in range(3, 11) for l in range(2 * k - 2, 2 * k + 7)] + WITNESS


DRIVERS = {
    "conjecture": lambda lab, jobs=1: lab.verify_conjecture(9, 22, jobs=jobs),
    "theorem1": lambda lab, jobs=1: lab.verify_low_second_max(9, jobs=jobs),
    "theorem2": lambda lab, jobs=1: lab.verify_dense_prefix(11, jobs=jobs),
    "theorem3": lambda lab, jobs=1: lab.verify_span_classification(11, jobs=jobs),
    "lemmas": lambda lab, jobs=1: lab.sweep_structure(10, jobs=jobs),
}
EXPECTED_SETS = {
    "conjecture": lambda: ref.conjecture_expectations(9, 22)["enumerated"],
    "theorem1": lambda: ref.theorem1_expectations(9)["enumerated"],
    "theorem2": lambda: ref.theorem2_expectations(11)["enumerated"],
    "theorem3": lambda: ref.theorem3_expectations(11)["enumerated"],
    "lemmas": lambda: ref.lemmas_expectations(10)["enumerated"],
}


def _cpu_s() -> float:
    """CPU time of this process and of every child it has waited for."""
    self_ = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return self_.ru_utime + self_.ru_stime + kids.ru_utime + kids.ru_stime


def _us_per_call(fn, items, reps: int = REPS) -> float:
    """Median over reps of the mean time of fn(item) in microseconds."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for item in items:
            fn(item)
        times.append((time.perf_counter() - t0) / len(items))
    return statistics.median(times) * 1e6


def _fastest(call, reps: int = RUN_REPS):
    """(wall s, CPU s, result) of the fastest of reps calls.  A run of
    seconds can fall in a slow spell of the machine; the fastest repeat
    is the one that did not."""
    best = None
    for _ in range(reps):
        c0, t0 = _cpu_s(), time.perf_counter()
        out = call()
        wall, cpu = time.perf_counter() - t0, _cpu_s() - c0
        if best is None or wall < best[0]:
            best = (wall, cpu, out)
    return best


def _enumerate_only(lab, cells) -> tuple[int, int]:
    """(nodes, sets) of enumeration alone, no per-set work."""
    counter = [0]
    n = 0
    for k, l, constraints in cells:
        for _ in lab.enumerate_tuples(lab.EnumerationQuery.exact(k, l, constraints),
                                      counter=counter):
            n += 1
    return counter[0], n


def _random_sets(rng: random.Random, k: int, n: int) -> list[tuple[int, ...]]:
    out = []
    for _ in range(n):
        l = rng.randint(k - 1, 2 * k + 6)
        out.append(tuple([0, *sorted(rng.sample(range(1, l), k - 2)), l]))
    return out


def probe_core(lab, tracer, rng, m) -> None:
    with tracer.span("probe.core.restricted_size"):
        for k in (6, 9, 12):
            sets = _random_sets(rng, k, 2000)
            m[f"core.restricted_size_us.k{k}"] = _us_per_call(lab.restricted_size, sets)
    raw = [lab.IntegerSet(queries.analyze_set(rng)) for _ in range(2000)]
    with tracer.span("probe.core.normalize"):
        m["core.normalize_us"] = _us_per_call(lab.normalize, raw)


def probe_verify(lab, tracer, m, problems) -> dict:
    """Enumeration alone, then each driver; returns the certificates."""
    certs = {}
    for box, driver in DRIVERS.items():
        with tracer.span(f"probe.verify.enumerate.{box}"):
            enum_s, _cpu, (nodes, sets) = _fastest(lambda: _enumerate_only(lab, _cells(box)))
        if box == "conjecture":
            m["verify.enum_nodes"] = nodes
            m["verify.enum_sets"] = sets
            m["verify.enum_nodes_per_s"] = nodes / enum_s
        with tracer.span(f"probe.verify.driver.{box}"):
            driver_s, driver_cpu, cert = _fastest(lambda: driver(lab))
        certs[box] = (cert, driver_s, driver_cpu)
        want = EXPECTED_SETS[box]()
        if not sets == cert.counts["enumerated"] == want or cert.outcome != "verified":
            problems.append(f"{box}: enumerated {sets}/{cert.counts['enumerated']} "
                            f"!= {want}, outcome {cert.outcome}")
        tracer.count(f"sets.{box}", sets)
        tracer.count(f"nodes.{box}", nodes)
        m[f"verify.check_us_per_set.{box}"] = (driver_s - enum_s) / sets * 1e6
    return certs


def probe_pool(lab, tracer, certs, m, problems) -> None:
    serial_cert, serial_s, serial_cpu = certs["conjecture"]
    runs = {1: [(serial_s, serial_cpu)], 2: []}
    with tracer.span("probe.verify.pool.conjecture"):
        # jobs=2 and jobs=1 alternate, so that both meet the same spells
        for _ in range(RUN_REPS):
            for jobs in (2, 1):
                wall, cpu, cert = _fastest(lambda: DRIVERS["conjecture"](lab, jobs=jobs), 1)
                runs[jobs].append((wall, cpu))
                if ref.payload_sans_time(cert.to_payload()) != ref.payload_sans_time(
                        serial_cert.to_payload()):
                    problems.append(f"conjecture: jobs={jobs} payload differs between runs")
    (serial_s, serial_cpu), (pool_s, pool_cpu) = min(runs[1]), min(runs[2])
    m["verify.pool.speedup"] = serial_s / pool_s
    m["verify.pool.overhead_cpu_s"] = pool_cpu - serial_cpu
    # the program's own driver on growing boxes k_max = 3..9, cap 22 (the
    # last is the conjecture box timed above): the difference between
    # consecutive boxes is one k-row of cells, about the unit of work that
    # the pool's k-major chunks hand out at jobs=2
    with tracer.span("probe.verify.rows.conjecture"):
        box_ms = [0.0] + [_fastest(lambda: lab.verify_conjecture(k, 22))[0] * 1e3
                          for k in range(3, 9)] + [serial_s * 1e3]
    m["verify.row_ms.max"] = max(b - a for a, b in zip(box_ms, box_ms[1:]))
    m["verify.row_ms.total"] = box_ms[-1]
    texts = []
    with tracer.span("probe.verify.to_json"):
        times = []
        for _ in range(REPS):
            t0 = time.perf_counter()
            texts = [c.to_json() for c, _s, _cpu in certs.values()]
            times.append(time.perf_counter() - t0)
    m["verify.to_json_ms"] = statistics.median(times) * 1e3
    # the digits of wall_time_ms vary from run to run; leave them out
    m["verify.cert_bytes"] = sum(len(t.encode()) - len(str(c.wall_time_ms))
                                 for t, (c, _s, _cpu) in zip(texts, certs.values()))


def probe_structure(lab, tracer, rng, m) -> None:
    dense = [lab.NormalizedSet(e) for k in range(6, 11)
             for e in ref.detached_sets(k, 2 * k + 6, ref.slow_growth(k))]
    dense = rng.sample(dense, 500)
    wide = [p for p in dense if lab.exceptional_profile(p).m >= 2]
    low = [lab.NormalizedSet(e) for k in range(5, 10)
           for e in ref.detached_sets(k, 2 * k + 6, ref.low_second(k))]
    low = rng.sample(low, 500)
    split = [(p, lab.find_admissible_split(p)) for p in low]
    split = [(p, s) for p, s in split if s is not None]
    witness_box = [lab.NormalizedSet(e) for k, l, _c in WITNESS
                   for e in ref.gcd_one_sets(k, l)]
    pairs = [(p, lab.witness_profile(p)) for p in witness_box]
    pairs = [(p, w.w1, w.w2) for p, w in pairs if w.w1 is not None]
    sample = rng.sample(witness_box, 2000)
    with tracer.span("probe.structure"):
        for name, fn, items in (
            ("exceptional_profile", lab.exceptional_profile, dense),
            ("check_exceptional_points", lab.check_exceptional_points, dense),
            ("gap_patterns", lab.gap_patterns, wide),
            ("top_gap_structure", lab.top_gap_structure, wide),
            ("witness_profile", lab.witness_profile, sample),
            ("decompose", lambda t: lab.decompose(*t), pairs),
            ("find_admissible_split", lab.find_admissible_split, low),
            ("split_at", lambda t: lab.split_at(*t), split),
        ):
            with tracer.span(f"probe.structure.{name}"):
                m[f"structure.{name}_us"] = _us_per_call(fn, items)
            tracer.count(f"samples.structure.{name}", len(items))
    structure = lab.structure
    original = structure.restricted_mask
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return original(*args)

    structure.restricted_mask = counted
    try:
        with tracer.span("probe.structure.restricted_mask_calls.lemmas"):
            cert = DRIVERS["lemmas"](lab)
    finally:
        structure.restricted_mask = original
    tracer.count("structure.restricted_mask_calls.lemmas", calls[0])
    m["structure.restricted_mask_calls_per_set"] = calls[0] / cert.counts["enumerated"]


def probe_bounds_families(lab, tracer, rng, m) -> None:
    sets = [lab.normalize(lab.IntegerSet(queries.analyze_set(rng)))[0] for _ in range(1000)]
    with tracer.span("probe.bounds.evaluate_bounds"):
        m["bounds.evaluate_bounds_us"] = _us_per_call(lab.evaluate_bounds, sets)
    with tracer.span("probe.families.extremal_catalog"):
        # all eight catalogs of the theorem-3 box, k = 4..11
        m["families.extremal_catalog_ms"] = _us_per_call(lab.extremal_catalog, range(4, 12)) * 8 / 1e3
    shapes = [lab.gen_mod3_wide(k) for k in (6, 7, 9, 10)] * 100
    with tracer.span("probe.families.dense_extremal_shape"):
        m["families.dense_extremal_shape_us"] = _us_per_call(lab.dense_extremal_shape, shapes)


def probe_cli(lab, tracer, env, out_dir, m, problems) -> None:
    startup = []
    with tracer.span("probe.cli.startup"):
        for _ in range(REPS):
            cmd = [sys.executable, "-m", "sumset_lab.cli", "compute", "0,1,3", "--json"]
            code, _text, wall, _cpu, _rss = run_child(cmd, env, out_dir)
            if code != 0:
                problems.append(f"cli compute exit code {code}")
            startup.append(wall)
    m["cli.startup_ms"] = min(startup) * 1e3
    sub, inproc = [], []
    with tracer.span("probe.cli.certify_overhead"):
        for _ in range(3):
            code, _text, wall, _cpu, _rss = run_child(
                certify_command("2", 11, None, 1), env, out_dir)
            if code != 0:
                problems.append(f"cli certify exit code {code}")
            sub.append(wall)
            t0 = time.perf_counter()
            DRIVERS["theorem2"](lab)
            inproc.append(time.perf_counter() - t0)
    # the two alternate; the fastest of each is the one no slow spell hit
    m["cli.certify_overhead_ms"] = (min(sub) - min(inproc)) * 1e3


def run_all(lab, tracer, seed: int, env: dict, out_dir: str) -> tuple[dict, list[str]]:
    """Every per-layer metric except the tracing overhead."""
    rng = random.Random(seed)
    m: dict = {}
    problems: list[str] = []

    def guarded(probe, *args):
        # a probe that the program makes raise leaves its metrics out
        try:
            return probe(lab, tracer, *args)
        except Exception as exc:
            problems.append(f"{probe.__name__}: {exc!r}")
            return None

    with tracer.span("probes"):
        guarded(probe_core, rng, m)
        certs = guarded(probe_verify, m, problems)
        if certs:
            guarded(probe_pool, certs, m, problems)
        guarded(probe_structure, rng, m)
        guarded(probe_bounds_families, rng, m)
        guarded(probe_cli, env, out_dir, m, problems)
    return m, problems
