"""Shared benchmark fixtures.

One session-scoped :class:`~repro.eval.experiments.ExperimentRunner`
serves all benches: scenario generation and ASH mining are cached, so
each bench times its own experiment-specific computation and prints the
paper-shaped table.  Output is also written to ``results/<bench>.txt``.

Set ``REPRO_BENCH_SCALE`` (default 1.0) to shrink the scenarios.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.eval.experiments import ExperimentRunner

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


@pytest.fixture(scope="session")
def runner() -> ExperimentRunner:
    scale = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
    return ExperimentRunner(scale=scale)


@pytest.fixture(scope="session")
def emit():
    """Write a named result artifact and echo it to stdout."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _emit(name: str, text: str) -> None:
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        print(f"\n{text}")

    return _emit
