"""Outcome errors are scored on the memoized ladder, once per rung.

A memo entry (``repro.engine.memo.LadderEntry``) keeps the reference-side
scorer of each app analysis and a ``{(analysis, rung): error}`` table.
These tests pin that reading through the table is bit-identical to a
fresh ``app.outcome_error``, that results sharing an entry share the
work, that the tables die with the entry, and that fig16 runs its
nodes in-process.
"""

import gc
import weakref

import pytest

from repro.apps import ALL_APPS, AnalyticsApp, make_app
from repro.engine import memo
from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import run_scenario

GRID = (64, 64)


@pytest.fixture(autouse=True)
def _fresh_memo():
    memo.clear_cache()
    yield
    memo.clear_cache()


def _config(app: str, **kw) -> ScenarioConfig:
    return ScenarioConfig(app=app, grid_shape=GRID, max_steps=2, seed=5, **kw)


@pytest.mark.parametrize("name", ALL_APPS)
def test_memo_error_equals_fresh_outcome_error_at_every_rung(name):
    result = run_scenario(_config(name))
    fresh = make_app(name)
    for rung in range(result.ladder.num_buckets + 1):
        expected = fresh.outcome_error(result.original.copy(), result.ladder.reconstruct(rung))
        assert result.outcome_error_at_rung(rung) == expected


@pytest.mark.parametrize("name", ALL_APPS)
def test_results_sharing_an_entry_score_the_reference_once(name, monkeypatch):
    cls = type(make_app(name))
    calls = {"reference": 0, "outcome": 0}
    build = cls.reference_scorer
    score = AnalyticsApp.outcome_error

    def counting_build(self, reference):
        calls["reference"] += 1
        return build(self, reference)

    def counting_score(self, *args, **kwargs):
        calls["outcome"] += 1
        return score(self, *args, **kwargs)

    monkeypatch.setattr(cls, "reference_scorer", counting_build)
    monkeypatch.setattr(AnalyticsApp, "outcome_error", counting_score)

    a = run_scenario(_config(name, policy="cross-layer"))
    b = run_scenario(_config(name, policy="storage-only"))
    assert a.memo_entry is b.memo_entry
    rungs = range(a.ladder.num_buckets + 1)
    first = [a.outcome_error_at_rung(r) for r in rungs]
    second = [b.outcome_error_at_rung(r) for r in rungs]
    assert first == second
    assert calls == {"reference": 1, "outcome": len(rungs)}
    _ = (a.mean_outcome_error, b.mean_outcome_error)
    assert calls == {"reference": 1, "outcome": len(rungs)}


def test_clear_cache_drops_tables_and_scorers():
    result = run_scenario(_config("xgc"))
    result.outcome_error_at_rung(1)
    entry = result.memo_entry
    (scorer,) = entry._scorers.values()
    scorer_ref = weakref.ref(scorer)
    assert entry._errors

    memo.clear_cache()
    assert memo.cache_info()["size"] == 0
    again = run_scenario(_config("xgc"))
    assert again.memo_entry is not entry
    assert not again.memo_entry._errors and not again.memo_entry._scorers

    # Nothing outside the entry keeps the scorer alive.
    del result, entry, scorer
    gc.collect()
    assert scorer_ref() is None


def test_analysis_key_separates_tuning():
    assert make_app("xgc").analysis_key() == make_app("xgc").analysis_key()
    assert (
        make_app("xgc", threshold_sigma=3.0).analysis_key() != make_app("xgc").analysis_key()
    )
    assert make_app("cfd").analysis_key() != make_app("xgc").analysis_key()


def test_fig16_cli_runs_in_process(monkeypatch):
    import multiprocessing.pool

    from repro.cli import FIGURES

    def no_pool(*args, **kwargs):
        raise AssertionError("fig16 started a process pool")

    monkeypatch.setattr(multiprocessing.pool.Pool, "__init__", no_pool)
    res = FIGURES["fig16"](False, workers=4)
    assert [r.nodes for r in res.rows] == [1, 2, 4]
    assert res.scaling_flatness() == 1.0
