"""Record the default-seed reference outputs into reference.json.

    python3 perfbench/record.py

Runs every op of every workload at the default seed once and stores what
`checks.compare_reference` needs.  Record only from a commit whose
outputs are trusted; later runs are judged against it.
"""

from __future__ import annotations

import json
import sys

import checks
import run
from workloads import DEFAULT_SEED, WORKLOADS, ops_for


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import jarnik.cli as cli

    entries = {}
    for workload in WORKLOADS:
        for op in ops_for(workload, DEFAULT_SEED):
            o = run.run_op(cli, op.argv)
            entries[op.label] = checks.reference_entry(op, o.code, o.out, o.err)
            print(f"exit {o.code}  {o.seconds:7.3f}s  {op.label}")
    data = {"seed": DEFAULT_SEED, "recorded_from": run.source_identity(), "ops": entries}
    run.REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
