"""Run every certification sweep at desk scale and write the certificates.

Run:  python3 demos/certify_desk.py [OUT_DIR]

Takes about 3 s sequentially; certificates land in OUT_DIR (default:
demos/certificates/, where the committed certificates pin the drivers'
output apart from wall_time_ms).
"""

import os
import sys
import time

from sumset_lab.verify import (
    sweep_structure,
    verify_conjecture,
    verify_dense_prefix,
    verify_low_second_max,
    verify_span_classification,
)

RUNS = (
    ("conjectured_floor", lambda: verify_conjecture(9, 22)),
    ("low_second_max", lambda: verify_low_second_max(9)),
    ("dense_prefix_equality", lambda: verify_dense_prefix(12)),
    ("span_classification", lambda: verify_span_classification(10)),
    ("structure_sweep", lambda: sweep_structure(10)),
)


def main() -> int:
    out_dir = sys.argv[1] if len(sys.argv) > 1 else os.path.join("demos", "certificates")
    os.makedirs(out_dir, exist_ok=True)
    worst = 0
    for name, run in RUNS:
        t0 = time.monotonic()
        cert = run()
        dt = time.monotonic() - t0
        path = os.path.join(out_dir, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(cert.to_json())
        print(f"{name:<24} {cert.outcome:<10} "
              f"{cert.counts.get('enumerated', 0):>7} sets  "
              f"{dt:6.2f}s  -> {path}")
        worst = max(worst, {"verified": 0, "refuted": 1, "budget_exhausted": 2}[cert.outcome])
    return worst


if __name__ == "__main__":
    sys.exit(main())
