"""Record the DES statistics each seed must reproduce (``expected.json``).

Usage, from the root of a checkout::

    python3 perfbench/record.py

For every DES workload and each seed in ``SEEDS`` this builds the
inputs, runs the configuration under test (default engine, streaming
policy) and a reference configuration (object event loop, heap policy),
refuses to record when the two disagree beyond 1e-9 relative, and
writes the reference statistics together with the content hash of the
inputs.  ``run.py`` then checks each run against the record for its
seed, and reports a changed workload instead of comparing it with stale
numbers.

Re-record only when a workload's definition changes on purpose.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(32)


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import oracles
    from suite import EXPECTED_PATH, DesWorkload, workloads

    table = {}
    for workload in workloads().values():
        if not isinstance(workload, DesWorkload):
            continue
        rows = table[workload.name] = {}
        for seed in SEEDS:
            inputs = workload.setup(seed)
            tested = oracles.des_stats(workload.run(inputs))
            reference = workload.reference_stats(inputs)
            problems = oracles.compare_stats(tested, reference, "reference")
            if problems:
                print(f"{workload.name} seed {seed}: {problems}", file=sys.stderr)
                return 1
            rows[str(seed)] = {
                "input_sha256": workload.identity(inputs),
                "stats": reference,
            }
            print(f"{workload.name} seed {seed}: {reference}", flush=True)
    with open(EXPECTED_PATH, "w") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
