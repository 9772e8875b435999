"""Compare two benchmark records written by ``run.py --out``.

Usage (from the repository root)::

    python3 perfbench/compare.py BASE.json NEW.json

Prints every metric of both records with the ratio new/base.  Refuses,
with exit code 2, to compare records taken at different core counts or
on different workloads, sizes, seeds or tracing modes: their numbers
measure different things.  The ``sim_*`` metrics and the per-run digests
are deterministic per seed, so any difference in them is reported as a
change in results (exit code 1), not as noise.
"""

from __future__ import annotations

import json
import sys

MUST_MATCH = ("nproc", "workload", "size", "seed", "trace")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.load(open(path)) for path in argv)
    pb, pn = base["provenance"], new["provenance"]
    for key in MUST_MATCH:
        if pb.get(key) != pn.get(key):
            print(f"refusing to compare: {key} differs ({pb.get(key)!r} vs {pn.get(key)!r})")
            return 2
    section = "per_layer" if pb["trace"] else "end_to_end"
    changed = []
    mb, mn = base[section], new[section]
    for name in sorted(set(mb) | set(mn)):
        b, n = mb.get(name), mn.get(name)
        ratio = f"{n / b:.4f}" if isinstance(b, (int, float)) and b and n is not None else "-"
        print(f"{name:32s} {b!r:>24} {n!r:>24}  x{ratio}")
        if name.startswith("sim_") and b != n:
            changed.append(name)
    diff = sorted(k for k in set(base["digests"]) | set(new["digests"])
                  if base["digests"].get(k) != new["digests"].get(k))
    changed += [f"digest {k}" for k in diff]
    for item in changed:
        print(f"results changed: {item}")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
