"""Child process that times a cold start: import winterres, finish one search.

Usage: python3 setup_probe.py ROOT SEARCH_JSON OUT_DIR
Prints {"raw_s": seconds, "setup_s": seconds} on its last line: the time from
right before ``import winterres`` to the end of the search (the interpreter's
own start-up is not included), raw and at the reference speed.
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402  (needs the path above; imports no winterres)


def main() -> int:
    root, search, out_dir = sys.argv[1], workloads.from_json(sys.argv[2]), sys.argv[3]
    sys.path.insert(0, os.path.join(root, "src"))
    workloads.calibrate()   # let the interpreter specialise the kernel first
    with workloads.SpeedTrace() as speed:
        t0 = time.perf_counter()
        import winterres
        import winterres.cli
        workloads.run(winterres, winterres.cli, search, out_dir, 0)
        t1 = time.perf_counter()
    print(json.dumps({"raw_s": t1 - t0, "setup_s": speed.scaled(t0, t1)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
