"""Smoke test of the benchmark itself: every workload at the tiny size.

Usage (from the repository root)::

    python3 perfbench/smoke.py

For each workload it runs ``run.py --size tiny`` untraced at the default
seed and at another seed, and traced at the default seed, then checks
that every metric is printed with its unit, that the output checks pass,
that the JSON metrics are exactly those ``BENCHMARK.json`` declares, and
that another seed changes the inputs (where the workload takes any from
the seed) but not the set of metric names.
Exits non-zero on the first failure.  Takes about a minute.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import END_TO_END, END_TO_END_EXTRA  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

METRIC_LINE = re.compile(r"^metric (\S+) (\S+) (\S+)")


def run(workload: str, seed: int, trace: int, out: Path) -> tuple[dict, dict, dict]:
    """(JSON result, printed metric units, full record) of one tiny run."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", "0.5", "--trace", str(trace), "--size", "tiny", "--out", str(out),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    printed = {m.group(1): m.group(3) for m in map(METRIC_LINE.match, lines) if m}
    return json.loads(lines[-1]), printed, json.loads(out.read_text())


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e_names = {m["name"] for m in declared["end_to_end"]}
    layer_names = {m["name"] for m in declared["per_layer"]}
    assert e2e_names == set(END_TO_END), "BENCHMARK.json end_to_end != run.py END_TO_END"
    scratch = HERE / "out"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        for name, workload in WORKLOADS.items():
            a, printed_a, rec_a = run(name, 0, 0, Path(tmp) / "a.json")
            b, printed_b, rec_b = run(name, 1, 0, Path(tmp) / "b.json")
            t, printed_t, rec_t = run(name, 0, 1, Path(tmp) / "t.json")
            for result, rec in ((a, rec_a), (b, rec_b), (t, rec_t)):
                assert result["correct"] and result["failed"] == 0, (name, rec["problems"])
                assert result["attempted"] >= 1
            assert set(a["metrics"]) == e2e_names, (name, sorted(a["metrics"]))
            assert set(t["metrics"]) == layer_names, (name, set(t["metrics"]) ^ layer_names)
            for printed in (printed_a, printed_b):
                want = {**END_TO_END, **END_TO_END_EXTRA}
                assert printed == want, (name, printed)
            for m in (*a["metrics"].values(), *t["metrics"].values()):
                assert isinstance(m["value"], (int, float)) and m["unit"], (name, m)
            assert set(b["metrics"]) == set(a["metrics"]), name
            # Another seed draws other inputs, except where the inputs are fixed.
            if workload.fixed_inputs:
                assert rec_a["digests"] == rec_b["digests"], name
            else:
                assert set(rec_a["digests"]) != set(rec_b["digests"]), name
            assert rec_t["digests"].keys() == rec_a["digests"].keys(), name
            print(f"ok {name}: {result['attempted']} runs, {len(t['metrics'])} per-layer metrics")
    print("smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
