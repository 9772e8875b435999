"""Proportional-weight bandwidth allocation (the blkio CFQ model).

The kernel's blkio controller shares a device's bandwidth among active
cgroups proportionally to their weights (range 100–1000), optionally
capped by ``blkio.throttle.*_bps_device`` limits.  We reproduce that
allocation with a **progressive-filling** fluid model:

* each active stream demands capacity proportional to its weight;
* a stream may be capped (throttle, or its direction's peak rate);
* capped streams release their surplus, which is re-shared among the
  remaining streams by weight, until all capacity is assigned or every
  stream is capped.

Mixed read/write contention is handled in *normalised utilisation* space:
a stream running at rate ``r`` on a device whose peak for its direction is
``bw_d`` consumes ``r / bw_d`` of the device; the scheduler assigns
utilisations summing to ≤ 1.  This reproduces the paper's arithmetic —
e.g. two weight-100 streams on a 200 MB/s device get 100 MB/s each, and
raising one weight to 200 shifts the split to 133/67 MB/s.

Two implementations share the same semantics:

* :func:`solve_rates` — the hot path.  Structure-of-arrays inputs, scalar
  fast paths for the dominant one- and two-stream cases, and a vectorised
  waterfill for larger stream sets (each round classifies every still-
  active stream in one elementwise comparison).  Sums and surplus
  subtractions stay in demand order so every float operation matches the
  reference round-for-round — the result is **bit-identical**, which the
  pinned scenario fingerprints in ``tests/test_engine.py`` and the parity
  property tests in ``tests/test_blkio.py`` enforce.
* :func:`compute_rates_reference` — the original dict-based O(n²)
  progressive filling, kept as the plain-Python oracle for parity tests
  and as the pre-fast-path cost model for the scenario benchmarks.

:func:`compute_rates` keeps the historical ``list[StreamDemand] → dict``
signature as a thin validated wrapper over :func:`solve_rates`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.obs import OBS
from repro.storage.limits import (
    CAP_SLACK,
    EPS_REMAINING,
    MAX_FLOOR_UTILISATION,
    validate_demand,
)

__all__ = [
    "StreamDemand",
    "compute_rates",
    "compute_rates_reference",
    "solve_rates",
    "solve_rates_arrays",
    "MAX_FLOOR_UTILISATION",
]

# The solver constants live in repro.storage.limits; the historical
# names stay bound here.
_EPS_REMAINING = EPS_REMAINING
_CAP_SLACK = CAP_SLACK


@dataclass(frozen=True)
class StreamDemand:
    """One active stream's allocation inputs.

    ``peak_rate`` is the device's peak bandwidth for the stream's direction
    (bytes/s); ``cap`` an optional throttle limit (bytes/s, ``inf`` when
    unthrottled); ``floor`` a guaranteed minimum rate (bytes/s) reserved
    before weight-proportional sharing — the dirty-page writeback pressure
    that no reader weight can squeeze out (floors are scaled down
    proportionally if they oversubscribe the device).
    """

    key: int
    weight: float
    peak_rate: float
    cap: float = math.inf
    floor: float = 0.0

    def __post_init__(self) -> None:
        validate_demand(self.weight, self.peak_rate, self.cap, self.floor)


# -- cached observability handles -----------------------------------------

#: (registry, registry.epoch, calls, rounds, capped_streams, streams_hist).
#: ``reg.counter(name)`` is a registry dict lookup; the solver runs once
#: per reschedule, so the bound instruments are hoisted here and refreshed
#: only when the registry is swapped or cleared.
_OBS_HANDLES: tuple | None = None


def _obs_handles() -> tuple:
    global _OBS_HANDLES
    reg = OBS.registry
    handles = _OBS_HANDLES
    if handles is None or handles[0] is not reg or handles[1] != reg.epoch:
        handles = (
            reg,
            reg.epoch,
            reg.counter("blkio.compute_rates.calls"),
            reg.counter("blkio.compute_rates.rounds"),
            reg.counter("blkio.compute_rates.capped_streams"),
            reg.histogram(
                "blkio.compute_rates.streams", buckets=(1, 2, 4, 8, 16, 32, 64)
            ),
        )
        _OBS_HANDLES = handles
    return handles


# -- scalar fast paths ------------------------------------------------------


def _solve_1(w0: float, p0: float, c0: float, f0: float):
    m0 = min(c0, p0)
    fu0 = min(f0, m0) / p0
    total_floor = fu0
    if total_floor > MAX_FLOOR_UTILISATION:
        fu0 = fu0 * (MAX_FLOOR_UTILISATION / total_floor)
        total_floor = MAX_FLOOR_UTILISATION
    remaining = 1.0 - total_floor
    extra = 0.0
    rounds = 0
    capped = 0
    if remaining > _EPS_REMAINING:
        rounds = 1
        share = remaining * w0 / w0
        headroom = max(m0 / p0 - fu0, 0.0)
        if headroom <= share * _CAP_SLACK:
            capped = 1
            extra = headroom
        else:
            extra = share
    return [(fu0 + extra) * p0], rounds, capped


def _solve_2(
    w0: float, p0: float, c0: float, f0: float,
    w1: float, p1: float, c1: float, f1: float,
):
    m0 = min(c0, p0)
    m1 = min(c1, p1)
    fu0 = min(f0, m0) / p0
    fu1 = min(f1, m1) / p1
    total_floor = fu0 + fu1
    if total_floor > MAX_FLOOR_UTILISATION:
        scale = MAX_FLOOR_UTILISATION / total_floor
        fu0 = fu0 * scale
        fu1 = fu1 * scale
        total_floor = MAX_FLOOR_UTILISATION
    remaining = 1.0 - total_floor
    e0 = e1 = 0.0
    rounds = 0
    capped_total = 0
    if remaining > _EPS_REMAINING:
        rounds = 1
        total_w = w0 + w1
        s0 = remaining * w0 / total_w
        s1 = remaining * w1 / total_w
        h0 = max(m0 / p0 - fu0, 0.0)
        h1 = max(m1 / p1 - fu1, 0.0)
        cap0 = h0 <= s0 * _CAP_SLACK
        cap1 = h1 <= s1 * _CAP_SLACK
        if not cap0 and not cap1:
            e0, e1 = s0, s1
        elif cap0 and cap1:
            capped_total = 2
            e0, e1 = h0, h1
        elif cap0:
            capped_total = 1
            e0 = h0
            remaining = max(remaining - h0, 0.0)
            if remaining > _EPS_REMAINING:
                rounds = 2
                share = remaining * w1 / w1
                if h1 <= share * _CAP_SLACK:
                    capped_total = 2
                    e1 = h1
                else:
                    e1 = share
        else:
            capped_total = 1
            e1 = h1
            remaining = max(remaining - h1, 0.0)
            if remaining > _EPS_REMAINING:
                rounds = 2
                share = remaining * w0 / w0
                if h0 <= share * _CAP_SLACK:
                    capped_total = 2
                    e0 = h0
                else:
                    e0 = share
    return [(fu0 + e0) * p0, (fu1 + e1) * p1], rounds, capped_total


# -- vectorised general path ------------------------------------------------


def _solve_n(
    weights: Sequence[float],
    peaks: Sequence[float],
    caps: Sequence[float],
    floors: Sequence[float],
):
    rates, rounds, capped = _solve_n_arrays(
        np.asarray(weights, dtype=np.float64),
        np.asarray(peaks, dtype=np.float64),
        np.asarray(caps, dtype=np.float64),
        np.asarray(floors, dtype=np.float64),
    )
    return rates.tolist(), rounds, capped


def _solve_n_arrays(
    w: np.ndarray,
    p: np.ndarray,
    c: np.ndarray,
    f: np.ndarray,
):
    """Vectorised waterfill over float64 arrays; returns a float64 array.

    The first round runs without any index bookkeeping: in the common
    case nothing saturates and the round-1 proportional shares are the
    answer, so the ``arange``/fancy-indexing scaffolding of the general
    loop is built only when a stream actually caps.  Bit-identical to the
    general loop (``extra[arange(n)] = share`` is elementwise identity,
    and ``x + 0.0`` preserves every non-negative float), which is itself
    bit-identical to :func:`_solve_scalar`.
    """
    m = np.minimum(c, p)
    fu = np.minimum(f, m) / p
    # Floors sum sequentially (left-to-right, demand order): float addition
    # is not associative, and bit-parity with the reference requires the
    # same reduction order, so no np.sum here.
    total_floor = sum(fu.tolist())
    if total_floor > MAX_FLOOR_UTILISATION:
        fu = fu * (MAX_FLOOR_UTILISATION / total_floor)
        total_floor = MAX_FLOOR_UTILISATION
    remaining = 1.0 - total_floor
    if remaining <= _EPS_REMAINING:
        return fu * p, 0, 0
    headroom = np.maximum(m / p - fu, 0.0)

    total_w = sum(w.tolist())
    share = remaining * w / total_w
    capped_mask = headroom <= share * _CAP_SLACK
    if not capped_mask.any():
        return (fu + share) * p, 1, 0

    capped_total = int(capped_mask.sum())
    rounds = 1
    n = w.shape[0]
    extra = np.zeros(n)
    idx = np.arange(n)
    capped_idx = idx[capped_mask]
    extra[capped_idx] = headroom[capped_idx]
    for h in headroom[capped_idx].tolist():
        remaining -= h
    remaining = max(remaining, 0.0)
    idx = idx[~capped_mask]
    while idx.size and remaining > _EPS_REMAINING:
        rounds += 1
        w_act = w[idx]
        total_w = sum(w_act.tolist())
        share = remaining * w_act / total_w
        capped_mask = headroom[idx] <= share * _CAP_SLACK
        if not capped_mask.any():
            extra[idx] = share
            break
        capped_total += int(capped_mask.sum())
        capped_idx = idx[capped_mask]
        extra[capped_idx] = headroom[capped_idx]
        for h in headroom[capped_idx].tolist():
            remaining -= h
        remaining = max(remaining, 0.0)
        idx = idx[~capped_mask]

    return (fu + extra) * p, rounds, capped_total


#: Stream count up to which the scalar waterfill beats the vectorised one.
#: numpy's per-call overhead (array construction, fancy indexing) costs
#: more than a Python loop until the active set reaches a few dozen.
_SCALAR_MAX_STREAMS = 24


def _solve_scalar(
    weights: Sequence[float],
    peaks: Sequence[float],
    caps: Sequence[float],
    floors: Sequence[float],
):
    """Plain-Python waterfill for small stream sets.

    Operation-for-operation the same arithmetic as :func:`_solve_n` — every
    elementwise numpy op maps to the identical scalar expression and every
    reduction stays in demand order — so the result is bit-identical
    (enforced by the parity tests in ``tests/test_blkio.py``).
    """
    n = len(weights)
    m = [c if c < p else p for c, p in zip(caps, peaks)]
    fu = [(f if f < mi else mi) / p for f, mi, p in zip(floors, m, peaks)]
    total_floor = sum(fu)
    if total_floor > MAX_FLOOR_UTILISATION:
        ratio = MAX_FLOOR_UTILISATION / total_floor
        fu = [u * ratio for u in fu]
        total_floor = MAX_FLOOR_UTILISATION
    remaining = 1.0 - total_floor
    headroom = [max(mi / p - u, 0.0) for mi, p, u in zip(m, peaks, fu)]

    extra = [0.0] * n
    active = list(range(n))
    rounds = 0
    capped_total = 0
    while active and remaining > _EPS_REMAINING:
        rounds += 1
        total_w = 0.0
        for i in active:
            total_w += weights[i]
        capped = [i for i in active if headroom[i] <= remaining * weights[i] / total_w * _CAP_SLACK]
        if not capped:
            for i in active:
                extra[i] = remaining * weights[i] / total_w
            break
        capped_total += len(capped)
        for i in capped:
            extra[i] = headroom[i]
        for i in capped:
            remaining -= headroom[i]
        remaining = max(remaining, 0.0)
        capped_set = set(capped)
        active = [i for i in active if i not in capped_set]

    return [(u + e) * p for u, e, p in zip(fu, extra, peaks)], rounds, capped_total


def solve_rates(
    weights: Sequence[float],
    peak_rates: Sequence[float],
    caps: Sequence[float],
    floors: Sequence[float],
) -> list[float]:
    """Assign a service rate (bytes/s) to every stream, SoA form.

    Parallel sequences, one entry per stream, pre-validated by the caller
    (the device layer's invariants already guarantee positive weights and
    peaks, positive caps, non-negative finite floors).  Returns the rates
    in input order.  Bit-identical to :func:`compute_rates_reference`.
    """
    n = len(weights)
    if n == 0:
        return []
    if n == 1:
        rates, rounds, capped = _solve_1(weights[0], peak_rates[0], caps[0], floors[0])
    elif n == 2:
        rates, rounds, capped = _solve_2(
            weights[0], peak_rates[0], caps[0], floors[0],
            weights[1], peak_rates[1], caps[1], floors[1],
        )
    elif n <= _SCALAR_MAX_STREAMS:
        rates, rounds, capped = _solve_scalar(weights, peak_rates, caps, floors)
    else:
        rates, rounds, capped = _solve_n(weights, peak_rates, caps, floors)
    if OBS.enabled:
        _, _, calls, rounds_c, capped_c, streams_h = _obs_handles()
        calls.inc()
        rounds_c.inc(rounds)
        capped_c.inc(capped)
        streams_h.observe(n)
    return rates


#: Up to this stream count the device's array path converts back to the
#: scalar waterfill: tiny active sets pay more for numpy dispatch than
#: for a short Python loop.
_ARRAY_SCALAR_MAX = 8


def solve_rates_arrays(
    weights: np.ndarray,
    caps: np.ndarray,
    is_write: np.ndarray,
    peak_read: float,
    peak_write: float,
    write_floor: float = 0.0,
    *,
    peaks: np.ndarray | None = None,
    floors: np.ndarray | None = None,
) -> Sequence[float]:
    """Directional array-native form of :func:`solve_rates`.

    The device fast path keeps per-stream weights/caps/directions in
    persistent flat arrays; this entry point consumes them without any
    per-call list assembly.  ``peak_read``/``peak_write`` are the
    efficiency-scaled directional peaks and ``write_floor`` the
    guaranteed per-write-stream minimum — the peak/floor vectors are
    materialised here only when the general waterfill actually needs
    them.  A caller that already maintains per-stream peak/floor arrays
    (the device scales direction-keyed base rows by the current
    efficiency) passes them as ``peaks``/``floors`` to skip even that.
    Same allocation semantics, same observability counters, and
    bit-identical rates to :func:`solve_rates` on the equivalent
    unpacked inputs.

    Returns the rates in input order as a list or 1-D float64 array.
    """
    n = weights.shape[0]
    if n == 0:
        return []
    if n == 1:
        iw = bool(is_write[0])
        rates, rounds, capped = _solve_1(
            weights[0].item(),
            peak_write if iw else peak_read,
            caps[0].item(),
            write_floor if iw else 0.0,
        )
    elif n == 2:
        i0 = bool(is_write[0])
        i1 = bool(is_write[1])
        rates, rounds, capped = _solve_2(
            weights[0].item(),
            peak_write if i0 else peak_read,
            caps[0].item(),
            write_floor if i0 else 0.0,
            weights[1].item(),
            peak_write if i1 else peak_read,
            caps[1].item(),
            write_floor if i1 else 0.0,
        )
    elif n <= _ARRAY_SCALAR_MAX:
        if peaks is None:
            isw = is_write.tolist()
            peak_list = [peak_write if iw else peak_read for iw in isw]
            floor_list = [write_floor if iw else 0.0 for iw in isw]
        else:
            peak_list = peaks.tolist()
            floor_list = floors.tolist()
        rates, rounds, capped = _solve_scalar(
            weights.tolist(), peak_list, caps.tolist(), floor_list
        )
    else:
        if peaks is None:
            peaks = np.where(is_write, peak_write, peak_read)
            if write_floor:
                floors = np.where(is_write, write_floor, 0.0)
            else:
                floors = np.zeros(n)
        rates, rounds, capped = _solve_n_arrays(weights, peaks, caps, floors)
    if OBS.enabled:
        _, _, calls, rounds_c, capped_c, streams_h = _obs_handles()
        calls.inc()
        rounds_c.inc(rounds)
        capped_c.inc(capped)
        streams_h.observe(n)
    return rates


def compute_rates(demands: list[StreamDemand]) -> dict[int, float]:
    """Assign a service rate (bytes/s) to every stream.

    The historical entry point: validates key uniqueness, unpacks the
    demand dataclasses into arrays, and delegates to :func:`solve_rates`.
    """
    if not demands:
        return {}
    keys = [d.key for d in demands]
    if len(set(keys)) != len(keys):
        raise ValueError("stream keys must be unique")
    rates = solve_rates(
        [d.weight for d in demands],
        [d.peak_rate for d in demands],
        [d.cap for d in demands],
        [d.floor for d in demands],
    )
    return dict(zip(keys, rates))


def compute_rates_reference(demands: list[StreamDemand]) -> dict[int, float]:
    """The original O(n²) progressive-filling allocation (plain dicts).

    Kept verbatim as the oracle for the solver-parity property tests and
    as the pre-fast-path cost model benchmarked by the ``blkio_stress16``
    scenario benchmarks.  Progressive filling over normalised utilisation:
    weights share the single unit of device utilisation; a stream's
    utilisation cap is ``min(cap, peak_rate) / peak_rate``.
    """
    if not demands:
        return {}
    keys = [d.key for d in demands]
    if len(set(keys)) != len(keys):
        raise ValueError("stream keys must be unique")

    # Phase 0: reserve floors (in utilisation space), scaling down
    # proportionally when they oversubscribe the reservable fraction.
    floor_utils = {
        d.key: min(d.floor, min(d.cap, d.peak_rate)) / d.peak_rate for d in demands
    }
    total_floor = sum(floor_utils.values())
    if total_floor > MAX_FLOOR_UTILISATION:
        scale = MAX_FLOOR_UTILISATION / total_floor
        floor_utils = {k: u * scale for k, u in floor_utils.items()}
        total_floor = MAX_FLOOR_UTILISATION

    # Phase 1: progressive filling of the remaining utilisation by weight.
    # Each stream's additional utilisation (on top of its floor) is capped
    # by its throttle/peak headroom.
    extra: dict[int, float] = {d.key: 0.0 for d in demands}
    active = list(demands)
    remaining_util = 1.0 - total_floor
    while active and remaining_util > _EPS_REMAINING:
        total_w = sum(d.weight for d in active)
        capped = []
        uncapped = []
        for d in active:
            share = remaining_util * d.weight / total_w
            headroom = min(d.cap, d.peak_rate) / d.peak_rate - floor_utils[d.key]
            headroom = max(headroom, 0.0)
            if headroom <= share * _CAP_SLACK:
                capped.append((d, headroom))
            else:
                uncapped.append(d)
        if not capped:
            for d in active:
                extra[d.key] = remaining_util * d.weight / total_w
            break
        for d, headroom in capped:
            extra[d.key] = headroom
            remaining_util -= headroom
        remaining_util = max(remaining_util, 0.0)
        active = uncapped
    return {
        d.key: (floor_utils[d.key] + extra[d.key]) * d.peak_rate for d in demands
    }
