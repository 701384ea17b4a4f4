"""Regenerate ``references.json``: the report digests of every seed class.

    python3 perfbench/make_references.py

Runs one untraced set-up and job per workload and seed class, and stores the
digest of each ``monte_carlo`` report in call order.  Only run it on a commit
whose reports are known to be right: the benchmark counts any later
difference from these digests as a failed check.
"""

from __future__ import annotations

import json
import sys

from run import REFERENCES, SRC, Library, run_pass
from workloads import SEED_CLASSES, WORKLOADS


def main() -> int:
    if not (SRC / "ocrslab" / "__init__.py").is_file():
        print(f"no ocrslab sources under {SRC}", file=sys.stderr)
        return 2
    lib = Library()
    refs = {}
    for name, wl in WORKLOADS.items():
        refs[name] = {}
        for seed_class in range(SEED_CLASSES):
            p = run_pass(lib, wl, seed_class, trace=False, pass_id="reference")
            refs[name][str(seed_class)] = p.digests
            print(f"{name} class {seed_class}: {len(p.digests)} reports, job {p.wall_s:.1f} s", flush=True)
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
