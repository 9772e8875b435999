"""Structured export of experiment results.

``format_rows()`` gives humans the paper-style text; this module gives
plotting scripts the underlying numbers as JSON-ready structures.  Any
experiment result (the frozen dataclasses each ``figNN`` module returns)
converts generically: dataclasses recurse, NumPy scalars/arrays become
plain Python, dict keys stringify.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any

import numpy as np

__all__ = ["to_jsonable", "export_result", "export_figure"]


def to_jsonable(obj: Any) -> Any:
    """Convert an experiment result into JSON-serialisable structures."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: to_jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set)):
        return [to_jsonable(x) for x in obj]
    if isinstance(obj, float) and not np.isfinite(obj):
        return str(obj)
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    # Enums, paths, and other leaf objects: fall back to their repr-name.
    value = getattr(obj, "value", None)
    if isinstance(value, (str, int, float)):
        return value
    return str(obj)


def export_result(result: Any, path: str) -> dict:
    """Write a result's JSON form to ``path``; returns the structure."""
    data = to_jsonable(result)
    with open(path, "w") as f:
        json.dump(data, f, indent=2)
    return data


def export_figure(name: str, path: str, *, fast: bool = True) -> dict:
    """Run a registered artifact (see :data:`repro.cli.FIGURES`) and export it."""
    from repro.cli import FIGURES

    try:
        runner = FIGURES[name]
    except KeyError:
        raise ValueError(f"unknown figure {name!r}; expected one of {sorted(FIGURES)}")
    return export_result(runner(fast), path)
