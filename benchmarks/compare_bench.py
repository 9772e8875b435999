#!/usr/bin/env python3
"""Compare a fresh ``BENCH_micro.json`` against a committed baseline.

Two gates run over every benchmark present in both reports:

* **Wall-time (soft).**  A GitHub Actions ``::warning`` line is emitted
  when a median wall-time regresses by more than ``--threshold``
  (default 2x).  Warnings never fail the job — shared runners are noisy
  and a hard wall-clock gate on them would flap.

* **Events/sec (hard).**  Scenario rows carry ``events_per_sec``, and
  the event count per scenario is deterministic — wall noise cancels
  out of the *ratio* far less than it pollutes a single median, and the
  event kernel is exactly what this figure measures.  A drop of more
  than ``--events-threshold`` (default 20 %) against the baseline emits
  a ``::error`` line and the script exits 1, failing CI.  The gate is
  generic over every row carrying the field, so schema-4 additions
  (``blkio_stress64``, ``blkio_soak256``) and the schema-5 cluster rows
  (``cluster_soak_shards{1,4,8}`` — aggregate events/sec over all
  in-process shards) are covered the moment the committed baseline
  records them.  ``derived.cluster_scaling_8x`` is recorded but not
  gated: the 8-shard/1-shard ratio is a property of the workload shape,
  not a performance target.

Both gates see only rows the two reports share, so a baseline row the
fresh run no longer produces would lose its gates silently.  Each such
row is named on a ``::notice`` line instead (notices never fail the job:
retiring a row is a legitimate change, it just has to be visible).

The script also renders an events/sec **trend table** (scenario rows,
baseline vs fresh, signed delta) — appended to ``$GITHUB_STEP_SUMMARY``
when set so the bench artifact carries the trend line, plain stdout
otherwise.

    python benchmarks/compare_bench.py baseline.json fresh.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

DEFAULT_THRESHOLD = 2.0

#: Hard gate: fractional events/sec drop that fails the job (0.20 = 20 %).
DEFAULT_EVENTS_THRESHOLD = 0.20


def compare(baseline: dict, fresh: dict, *, threshold: float) -> list[str]:
    """Warning lines for benchmarks whose median regressed past ``threshold``."""
    warnings: list[str] = []
    base_rows = baseline.get("benchmarks", {})
    fresh_rows = fresh.get("benchmarks", {})
    for name in sorted(base_rows.keys() & fresh_rows.keys()):
        old = base_rows[name].get("median_s")
        new = fresh_rows[name].get("median_s")
        if not old or not new or old <= 0:
            continue
        ratio = new / old
        if ratio > threshold:
            warnings.append(
                f"::warning title=bench regression::{name} median "
                f"{new * 1e3:.2f} ms vs baseline {old * 1e3:.2f} ms "
                f"({ratio:.1f}x, threshold {threshold:.1f}x)"
            )
    return warnings


def compare_events(baseline: dict, fresh: dict, *, threshold: float) -> list[str]:
    """Error lines for scenario rows whose events/sec dropped past ``threshold``."""
    errors: list[str] = []
    base_rows = baseline.get("benchmarks", {})
    fresh_rows = fresh.get("benchmarks", {})
    for name in sorted(base_rows.keys() & fresh_rows.keys()):
        old = base_rows[name].get("events_per_sec")
        new = fresh_rows[name].get("events_per_sec")
        if not old or not new or old <= 0:
            continue
        drop = 1.0 - new / old
        if drop > threshold:
            errors.append(
                f"::error title=event-rate regression::{name} "
                f"{new / 1e3:.1f}k events/s vs baseline {old / 1e3:.1f}k "
                f"({drop * 100:.0f}% drop, threshold {threshold * 100:.0f}%)"
            )
    return errors


def missing_rows(baseline: dict, fresh: dict) -> list[str]:
    """Notice lines naming every baseline row absent from the fresh run."""
    fresh_rows = fresh.get("benchmarks", {})
    return [
        f"::notice title=bench row dropped::{name} is in the baseline but not "
        f"in the fresh run; its gates no longer apply"
        for name in sorted(baseline.get("benchmarks", {}).keys() - fresh_rows.keys())
    ]


def trend_table(baseline: dict, fresh: dict) -> str:
    """Markdown events/sec trend table over the scenario rows.

    Rows present only on one side still render (with a ``—`` placeholder)
    so newly added scenarios show up in the summary the commit they land.
    """
    base_rows = baseline.get("benchmarks", {})
    fresh_rows = fresh.get("benchmarks", {})
    names = sorted(
        name
        for name in base_rows.keys() | fresh_rows.keys()
        if (base_rows.get(name, {}).get("events_per_sec") is not None)
        or (fresh_rows.get(name, {}).get("events_per_sec") is not None)
    )
    if not names:
        return ""
    lines = [
        "### Events/sec trend",
        "",
        "| scenario | baseline | fresh | delta |",
        "|---|---:|---:|---:|",
    ]
    for name in names:
        old = base_rows.get(name, {}).get("events_per_sec")
        new = fresh_rows.get(name, {}).get("events_per_sec")
        old_s = f"{old:,.0f}" if old else "—"
        new_s = f"{new:,.0f}" if new else "—"
        delta = f"{(new / old - 1.0) * 100:+.1f}%" if old and new else "—"
        lines.append(f"| {name} | {old_s} | {new_s} | {delta} |")
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="committed BENCH_micro.json")
    parser.add_argument("fresh", help="freshly generated BENCH_micro.json")
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help=f"wall-time ratio that triggers a warning (default {DEFAULT_THRESHOLD})",
    )
    parser.add_argument(
        "--events-threshold",
        type=float,
        default=DEFAULT_EVENTS_THRESHOLD,
        help=(
            "fractional events/sec drop that fails the job "
            f"(default {DEFAULT_EVENTS_THRESHOLD})"
        ),
    )
    args = parser.parse_args(argv)

    try:
        baseline = json.loads(Path(args.baseline).read_text())
        fresh = json.loads(Path(args.fresh).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        # Missing/unreadable reports are not a reason to fail the job.
        print(f"compare_bench: skipping comparison ({exc})", file=sys.stderr)
        return 0

    for line in missing_rows(baseline, fresh):
        print(line)

    warnings = compare(baseline, fresh, threshold=args.threshold)
    for line in warnings:
        print(line)
    if not warnings:
        print(
            f"compare_bench: no benchmark regressed beyond "
            f"{args.threshold:.1f}x the committed baseline"
        )

    table = trend_table(baseline, fresh)
    if table:
        summary = os.environ.get("GITHUB_STEP_SUMMARY")
        if summary:
            with open(summary, "a") as fh:
                fh.write(table + "\n")
        else:
            print(table)

    errors = compare_events(baseline, fresh, threshold=args.events_threshold)
    for line in errors:
        print(line)
    if errors:
        return 1
    print(
        f"compare_bench: no scenario lost more than "
        f"{args.events_threshold * 100:.0f}% events/sec against the baseline"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
