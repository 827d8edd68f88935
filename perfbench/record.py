"""Record the reference outputs ``run.py`` checks every repetition against.

Run from the root of a checkout, once per workload and world size::

    python3 perfbench/record.py --workload paper_2k
    python3 perfbench/record.py --workload paper_2k --gpts 120

The workload's world (``run.WORLD_SEED``) is run once, untimed, in the same
kind of process ``run.py`` measures, and its outputs replace the entry for
that workload and size in ``references.json``.  The default size is the one
the benchmark measures; the harness's tests use 120 GPTs.  Record only from
a commit whose outputs are known to be right.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

from run import BENCH_DIR, WORKLOADS, Harness


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--gpts", type=int, default=None)
    args = parser.parse_args()
    n_gpts = args.gpts or WORKLOADS[args.workload]
    path = BENCH_DIR / "references.json"
    recorded = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    harness = Harness(args.workload, n_gpts)
    outputs = {}
    try:
        if args.workload == "epoch_recrawl":
            # Never trust a kept epoch-0 store here: build it afresh.
            shutil.rmtree(harness.parent_dir, ignore_errors=True)
            parent = harness.spawn("parent")
            outputs["parent_fingerprint"] = parent["outputs"]["store_fingerprint"]
        outputs.update(harness.spawn("run")["outputs"])
    finally:
        harness.close()
    print(f"{args.workload} @ {n_gpts} GPTs: {outputs}")
    recorded.setdefault(args.workload, {})[str(n_gpts)] = outputs
    path.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
