"""Benchmark for the Tango reproduction: one workload, one seed, one run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload interference-sweep --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with only the always-on
kernel probe installed.  ``--trace 1`` first runs one untraced pass (the
overhead baseline), then wraps every layer's entry point and reports the
per-layer metrics.  Either way the program's outputs are checked: every
run's digest against ``digests.json`` (default seed, or any seed when the
inputs do not depend on it), invariants for any seed, traced against
untraced digests, and every pass against the first.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines before it
print every metric by name and unit, the provenance of the result, and
the metrics that have no value on this workload with the reason.
``--out PATH`` also writes the full record (provenance, every metric,
per-run digests) for ``compare.py``.  ``--record`` rewrites the recorded
digests for this workload and size (default seed only).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"

#: Fresh interpreters started per run to time set-up; the median is reported.
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 30

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "runs_per_s": "1/s",
    "run_p50_s": "s",
    "sim_events_per_s": "events/s",
    "peak_rss_mb": "MB",
}
#: Printed with the end-to-end metrics but not part of the JSON result:
#: either undefined on some workload, or zero when nothing is wrong.
END_TO_END_EXTRA = {
    "run_p90_s": "s",
    "sim_step_io_p50_s": "sim_s",
    "sim_step_io_p99_s": "sim_s",
    "sim_outcome_error": "ratio",
    "sim_device_mb_per_s": "MB/sim_s",
    "failed_ratio": "ratio",
}

#: Per-layer metrics of the traced run, named ``<package>.<quantity>``
#: after the ``src/repro`` packages (see NOTES.md for what each predicts).
PER_LAYER = [
    "import.self_s",
    "engine.memo_hits", "engine.memo_misses", "engine.memo_hit_ratio",
    "engine.session_run_s", "engine.sweep_map_s", "engine.pool_creations",
    "apps.generate_s", "apps.outcome_error_s",
    "core.decompose_s", "core.build_ladder_s", "core.build_ladder_calls",
    "core.reconstruct_s", "core.plan_s",
    "simkernel.self_s", "simkernel.events", "simkernel.epochs", "simkernel.events_per_epoch",
    "simkernel.group_calls", "simkernel.lazy_cancelled", "simkernel.compactions",
    "storage.submit_s", "storage.submit_calls", "storage.solve_s", "storage.solve_calls",
    "storage.solves_per_event", "storage.max_streams", "storage.bytes_read", "storage.bytes_written",
    "dataplane.submit_s", "dataplane.submit_calls",
    "control.decide_s", "control.observe_s", "control.decisions",
    "cluster.run_s", "cluster.messages", "cluster.events",
    "run.self_s", "trace.overhead_s", "trace.spans",
    *(f"experiments.{name}_s" for name in (
        "fig01", "fig02", "fig05", "fig07", "fig08", "fig09", "fig10", "fig11", "fig12",
        "fig13", "fig14", "fig15", "fig16", "headline", "threetier", "campaign",
        "resilience", "stability", "qosplane", "cluster",
    )),
]


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--out", help="write the full result record (JSON) here")
    ap.add_argument("--spans-out", help="traced run: write the spans (JSON lines) here")
    ap.add_argument("--record", action="store_true", help="record this run's digests")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# -- set-up ----------------------------------------------------------------


def setup_probe(args) -> int:
    """Child side: import the program and warm the workload, then report."""
    t0 = time.perf_counter()
    import repro.api  # noqa: F401

    import_s = time.perf_counter() - t0
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    workload.warm(workload.jobs(args.seed, args.size))
    print(json.dumps({"import_s": import_s, "ready_at": time.time()}))
    return 0


def time_setup(args) -> list[tuple[float, float]]:
    """Parent side: (set-up seconds, import seconds) per fresh interpreter.

    Set-up runs from just before the interpreter is started to the
    moment the child has warmed up (wall clock, shared by both).
    """
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--size", args.size, "--setup-probe",
    ]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = []
    for _ in range(SETUP_REPEATS):
        started = time.time()
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode}): {proc.stderr[-1000:]}")
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        out.append((report["ready_at"] - started, report["import_s"]))
    return out


# -- measurement -------------------------------------------------------------


class Pass:
    def __init__(self) -> None:
        #: Peak resident memory (MB) of the process when the pass ended.
        self.peak_rss_mb = 0.0
        #: Host seconds per run, and the kernel events and host seconds
        #: spent inside ``Simulation.run`` during it (job order).
        self.run_s: list[float] = []
        self.sim_events: list[int] = []
        self.sim_s: list[float] = []
        self.digests: dict[str, str] = {}
        self.repeat_digests: dict[str, str] = {}
        self.problems: dict[str, list] = {}
        self.sim: list[dict] = []
        self.memo = {"hits": 0, "misses": 0}


def run_pass(workload, jobs, inst, collect: bool) -> Pass:
    """Run every job once, in order; each run inside its own span."""
    from repro.engine import memo

    p = Pass()
    workload.before_pass()
    inst.collect = collect
    info0 = memo.cache_info()
    for job in jobs:
        inst.run_id = job.label
        events0, sim0 = inst.sim_events, inst.sim_host_s
        t0 = time.perf_counter()
        try:
            with inst.span(workload.span_name(job)):
                raw = workload.run(job)
        except Exception as exc:  # a failed run is counted, not fatal
            raw = None
            p.problems[job.label] = [f"raised {exc!r}"]
        p.run_s.append(time.perf_counter() - t0)
        p.sim_events.append(inst.sim_events - events0)
        p.sim_s.append(inst.sim_host_s - sim0)
        if raw is None:
            continue
        outcome = workload.finish(job, raw, collect)
        p.digests[job.label] = outcome.digest
        p.repeat_digests[job.label] = outcome.repeat_digest
        if outcome.problems:
            p.problems[job.label] = outcome.problems
        if outcome.sim:
            p.sim.append(outcome.sim)
    info1 = memo.cache_info()
    p.memo = {k: info1[k] - info0[k] for k in ("hits", "misses")}
    p.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    inst.run_id = None
    return p


def measure(workload, jobs, inst, seconds: float) -> list[Pass]:
    """Repeat passes until ``seconds`` have elapsed (at least one pass).

    Simulated results are collected from the first pass only, or from
    every pass when tracing (the per-layer byte counts are per pass).
    """
    passes = []
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 < seconds:
        passes.append(run_pass(workload, jobs, inst, not passes or inst.tracing))
    return passes


# -- checks ------------------------------------------------------------------


def load_recorded(key: str) -> dict | None:
    if not DIGESTS.is_file():
        return None
    return json.loads(DIGESTS.read_text()).get(key)


def check(workload, args, passes: list[Pass]):
    """Return (problems, notes, attempted, failed) over every run of every pass.

    The first pass must reproduce the recorded digests (default seed, or
    any seed when the inputs are fixed); every later pass must reproduce
    the first.  In a traced run the first pass is the untraced one, so
    this also checks that tracing leaves every result unchanged.  Fields
    listed in ``KNOWN_DRIFT`` are left out of the repeat comparison and
    reported as a note whenever they differ.
    """
    from workloads import DEFAULT_SEED

    problems, notes = [], []
    recorded = None
    if args.seed == DEFAULT_SEED or workload.fixed_inputs:
        recorded = load_recorded(f"{workload.name}/{args.size}")
        if recorded is None and not args.record:
            problems.append(f"no recorded digests for {workload.name}/{args.size}")
    base = passes[0]
    attempted = failed = 0
    for i, p in enumerate(passes):
        bad = set(p.problems)
        for label in p.problems:
            problems.append(f"pass {i} {label}: {'; '.join(p.problems[label])}")
        for label, d in p.digests.items():
            if p is base:
                if recorded is not None and recorded.get(label) != d:
                    bad.add(label)
                    problems.append(f"{label}: digest {d} != recorded {recorded.get(label)}")
            elif p.repeat_digests[label] != base.repeat_digests.get(label):
                bad.add(label)
                problems.append(f"pass {i} {label}: digest differs from pass 0")
            elif d != base.digests.get(label):
                notes.append(f"{label}: a history-dependent field changed on repeat")
        attempted += len(p.run_s)
        failed += len(bad)
    return problems, notes, attempted, failed


def record_digests(workload, args, passes: list[Pass]) -> None:
    from workloads import DEFAULT_SEED

    if args.seed != DEFAULT_SEED:
        raise SystemExit("--record needs the default seed")
    data = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    data[f"{workload.name}/{args.size}"] = dict(sorted(passes[0].digests.items()))
    DIGESTS.write_text(json.dumps(dict(sorted(data.items())), indent=1) + "\n")


# -- metrics -------------------------------------------------------------------


def percentile(values, q):
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q))


def job_medians(passes: list[Pass], field: str) -> list[float]:
    """Median over passes of each run's value of ``field`` (job order)."""
    return [statistics.median(vals) for vals in zip(*(getattr(p, field) for p in passes))]


def end_to_end(setup, passes: list[Pass], inst) -> tuple[dict, dict]:
    """Metric values, plus a note per metric that has none on this workload."""
    runs = [t for p in passes for t in p.run_s]
    per_pass = len(passes[0].run_s)
    # Per-run medians across passes, summed: a burst of host contention
    # slows a few runs of one pass, not the median of every run.
    wall = sum(job_medians(passes, "run_s"))
    sim_s = sum(job_medians(passes, "sim_s"))
    m = {
        "setup_s": statistics.median(s for s, _ in setup),
        "wall_s": wall,
        "runs_per_s": per_pass / wall,
        "run_p50_s": statistics.median(runs),
        "sim_events_per_s": sum(passes[0].sim_events) / sim_s if sim_s else 0.0,
        # Through the first pass only: freed numpy buffers stay mapped by
        # the allocator, so later passes would make this depend on how
        # many passes fit in the run.
        "peak_rss_mb": passes[0].peak_rss_mb,
    }
    notes = {}
    if per_pass >= 100:
        m["run_p90_s"] = percentile(runs, 90)
    else:
        notes["run_p90_s"] = f"needs >= 100 runs in one pass; a pass holds {per_pass}"
    sim = passes[0].sim
    io_times = [t for s in inst.sessions for t in s["io_times"]]
    io_times += [t for s in sim for t in s.get("io_times", ())]
    if len(io_times) >= 1000:
        m["sim_step_io_p50_s"] = percentile(io_times, 50)
        m["sim_step_io_p99_s"] = percentile(io_times, 99)
    elif io_times:
        m["sim_step_io_p50_s"] = percentile(io_times, 50)
        notes["sim_step_io_p99_s"] = f"needs >= 1000 steps; the workload has {len(io_times)}"
    else:
        notes["sim_step_io_p50_s"] = notes["sim_step_io_p99_s"] = "no analytics steps"
    errors = [s["outcome_error"] for s in sim if "outcome_error" in s]
    if errors:
        m["sim_outcome_error"] = statistics.fmean(errors)
    else:
        notes["sim_outcome_error"] = "no analytics outcome computed by this workload"
    moved = [(s["bytes"], s["horizon"]) for s in [*inst.sessions, *sim] if "bytes" in s]
    if moved:
        m["sim_device_mb_per_s"] = sum(b for b, _ in moved) / sum(h for _, h in moved) / 1e6
    else:
        notes["sim_device_mb_per_s"] = "no single-node session or soak device"
    return m, notes


def per_layer(setup, untraced: Pass, passes: list[Pass], inst, names: list[str]) -> dict:
    """Per-layer metrics, per pass of the workload.

    Every pass does the same work, so counts per pass repeat exactly and
    times per pass compare across commits however many passes a run fits.
    ``<layer>.<x>_s`` is self time; ``experiments.<artifact>_s`` is the
    artifact's whole time.
    """
    n = len(passes)
    k, calls, self_s = inst.kernel, inst.calls, inst.self_s
    hits = sum(p.memo["hits"] for p in passes)
    misses = sum(p.memo["misses"] for p in passes)
    sessions = [*inst.sessions, *(s for p in passes for s in p.sim)]
    times = {
        "engine.session_run_s": self_s["engine.session_run"],
        "engine.sweep_map_s": self_s["engine.sweep_map"],
        "apps.generate_s": self_s["apps.generate"],
        "apps.outcome_error_s": self_s["apps.outcome_error"],
        "core.decompose_s": self_s["core.decompose"],
        "core.build_ladder_s": self_s["core.build_ladder"],
        "core.reconstruct_s": self_s["core.reconstruct"],
        "core.plan_s": self_s["core.plan"],
        "simkernel.self_s": self_s["simkernel.run"],
        "storage.submit_s": self_s["storage.submit"],
        "storage.solve_s": self_s["storage.solve"],
        "dataplane.submit_s": self_s["dataplane.submit"],
        "control.decide_s": self_s["control.decide"],
        "control.observe_s": self_s["control.observe"],
        "cluster.run_s": self_s["cluster.run"],
        "run.self_s": self_s["run"],
        **{f"experiments.{a}_s": inst.total_s[f"experiments.{a}"] for a in names},
    }
    counts = {
        "engine.memo_hits": hits,
        "engine.memo_misses": misses,
        "engine.pool_creations": inst.pool_creations,
        "core.build_ladder_calls": calls["core.build_ladder"],
        "simkernel.events": k["events"],
        "simkernel.epochs": k["epochs"],
        "simkernel.group_calls": k["group_calls"],
        "simkernel.compactions": k["compactions"],
        "storage.submit_calls": calls["storage.submit"],
        "storage.solve_calls": calls["storage.solve"],
        "storage.bytes_read": sum(s.get("bytes_read", 0) for s in sessions),
        "storage.bytes_written": sum(s.get("bytes_written", 0) for s in sessions),
        "dataplane.submit_calls": calls["dataplane.submit"],
        "control.decisions": calls["control.decide"],
        "cluster.messages": inst.cluster_messages,
        "cluster.events": inst.cluster_events,
        "trace.spans": len(inst.spans) + inst.spans_dropped,
    }
    m = {name: v / n for name, v in times.items()}
    m.update({name: v / n if isinstance(v, float) else v // n for name, v in counts.items()})
    m.update(
        {
            "import.self_s": statistics.median(i for _, i in setup),
            "engine.memo_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "simkernel.events_per_epoch": k["events"] / k["epochs"] if k["epochs"] else 0.0,
            "simkernel.lazy_cancelled": inst.max_lazy_cancelled,
            "storage.solves_per_event": calls["storage.solve"] / k["events"] if k["events"] else 0.0,
            "storage.max_streams": inst.max_streams,
            "trace.overhead_s": sum(job_medians(passes, "run_s")) - sum(untraced.run_s),
        }
    )
    return m


# -- provenance ----------------------------------------------------------------


def provenance(workload, args) -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return {
        "commit": commit,
        "source_sha256": h.hexdigest()[:32],
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "workload": workload.name,
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "params": workload.sizes[args.size],
        "repro_workers": os.environ.get("REPRO_WORKERS"),
    }


def show(name: str, value, unit: str, detail: str = "") -> None:
    print(f"metric {name} {value!r} {unit}" + (f"  ({detail})" if detail else ""))


def report_traced(workload, setup, reference, passes, inst, problems, args) -> dict:
    from workloads import SOA_CROSSOVER

    artifacts = [n[len("experiments."):-2] for n in PER_LAYER if n.startswith("experiments.")]
    layer = per_layer(setup, reference, passes, inst, artifacts)
    # Mechanism engagement: where the runs sit relative to the SoA crossover.
    streams = layer["storage.max_streams"]
    if workload.name == "device-soak" and not streams > SOA_CROSSOVER:
        problems.append(f"peaked at {streams} streams, not above the crossover {SOA_CROSSOVER}")
    if workload.name == "interference-sweep" and not 0 < streams <= SOA_CROSSOVER:
        problems.append(f"peaked at {streams} streams, not in 1..{SOA_CROSSOVER}")
    for name in PER_LAYER:
        show(name, layer[name], unit_of(name))
    print(f"note: per-layer values are per pass, over {len(passes)} traced passes")
    if workload.name == "paper-artifacts":
        print("note: fig16's spawned pool workers run unwrapped; their time is in engine.sweep_map_s")
    if inst.spans_dropped:
        print(f"note: {len(inst.spans)} spans stored, {inst.spans_dropped} more only aggregated")
    if args.spans_out:
        inst.write_spans(args.spans_out)
    return layer


def report_untraced(setup, passes, inst, jobs, attempted, failed) -> dict:
    e2e, missing = end_to_end(setup, passes, inst)
    e2e["failed_ratio"] = failed / attempted
    runs = sum(len(p.run_s) for p in passes)
    details = {
        "setup_s": f"median of {len(setup)} fresh interpreters",
        "wall_s": f"sum over {len(jobs)} runs of each run's median over {len(passes)} passes",
        "run_p50_s": f"n={runs}",
        "run_p90_s": f"n={runs}",
        "failed_ratio": f"{failed} of {attempted} runs",
    }
    for name, unit in {**END_TO_END, **END_TO_END_EXTRA}.items():
        if name in e2e:
            show(name, e2e[name], unit, details.get(name, ""))
        else:
            print(f"metric {name} n/a {unit}  ({missing[name]})")
    return e2e


def stop_children() -> None:
    """Wait for every process the program started before exiting.

    Sweep pools are terminated and joined when their executor is
    collected; the multiprocessing resource tracker would otherwise
    outlive this process by a moment.
    """
    import gc
    import multiprocessing
    from multiprocessing import resource_tracker

    gc.collect()
    for child in multiprocessing.active_children():
        child.join(timeout=30)
    resource_tracker._resource_tracker._stop()  # no public API to stop it


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args)
    workload = WORKLOADS[args.workload]
    # The documented cap: no process pool grows past the core count.
    os.environ["REPRO_WORKERS"] = str(nproc())
    setup = time_setup(args)

    from tracing import Instruments

    import repro.api  # noqa: F401

    inst = Instruments()
    inst.install_probe()
    jobs = workload.jobs(args.seed, args.size)
    workload.warm(jobs)
    reference = None
    if args.trace:
        reference = run_pass(workload, jobs, inst, False)
        inst.install_tracing()
    passes = measure(workload, jobs, inst, args.seconds)
    checked = passes if reference is None else [reference, *passes]
    if args.record:
        record_digests(workload, args, checked)
    problems, notes, attempted, failed = check(workload, args, checked)

    prov = provenance(workload, args)
    print(f"workload {workload.name}: {workload.why}")
    print(
        f"closed loop, 1 caller; {len(passes)} pass(es) x {len(jobs)} runs; "
        f"nproc={prov['nproc']} seed={args.seed} size={args.size} trace={args.trace}"
    )
    print("provenance " + json.dumps(prov, sort_keys=True))
    record = {"provenance": prov, "problems": problems, "known_defects": notes}
    record["digests"] = checked[0].digests
    if args.trace:
        values = report_traced(workload, setup, reference, passes, inst, problems, args)
        record["per_layer"] = values
        metrics = {name: {"value": values[name], "unit": unit_of(name)} for name in PER_LAYER}
    else:
        values = report_untraced(setup, passes, inst, jobs, attempted, failed)
        record["end_to_end"] = values
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    for note in sorted(set(notes)):
        print(f"known defect: {note} ({notes.count(note)} of {len(checked) - 1} repeat passes)")
    for problem in problems[:20]:
        print(f"problem: {problem}")
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    stop_children()
    correct = not problems and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_per_event", "_per_epoch")):
        return "ratio"
    if name.startswith("storage.bytes"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
