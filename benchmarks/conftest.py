"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one of the paper's tables, figures or in-text
numerical claims (see DESIGN.md section 4 for the experiment index and
EXPERIMENTS.md for the recorded paper-vs-measured values).  Benchmarks use a
fixed random seed so that the reported numbers are reproducible run to run.
"""

from __future__ import annotations

import json
import platform
from pathlib import Path

import numpy as np
import pytest

#: The shared artefact contract: every ``BENCH_*.json`` at the repository
#: root carries this schema version plus a ``metadata`` header from
#: :func:`run_metadata`.  Bump it when the header shape changes.
ARTIFACT_SCHEMA_VERSION = 2

#: Keys every artefact's ``metadata`` header must carry.
METADATA_KEYS = ("generator", "python", "numpy", "platform")


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic random generator for Monte-Carlo benchmarks."""
    return np.random.default_rng(20240614)


def run_metadata(generator: str) -> dict:
    """Environment stamp shared by the benchmark artefacts (JSON-stable)."""
    return {
        "generator": generator,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def _without_noise(value: object) -> object:
    """``value`` minus what differs between two runs of the same code: the
    ``metadata`` header and every ``*_seconds`` / ``*_per_second`` timing."""
    if isinstance(value, dict):
        return {
            key: _without_noise(item)
            for key, item in value.items()
            if key != "metadata" and not key.endswith(("_seconds", "_per_second"))
        }
    if isinstance(value, list):
        return [_without_noise(item) for item in value]
    return value


def write_artifact(path: Path, payload: dict) -> None:
    """Record ``payload`` at ``path`` — unless only timing noise changed.

    A test run must not leave the tree dirty: when the file on disk differs
    from ``payload`` in nothing but its environment stamp and timings, it is
    left untouched (readers get the recorded run of the same results).
    """
    try:
        recorded = json.loads(path.read_text())
    except (OSError, ValueError):
        recorded = None
    if recorded is None or _without_noise(recorded) != _without_noise(payload):
        path.write_text(json.dumps(payload, indent=2) + "\n")


def format_table(headers: list[str], rows: list[list[object]]) -> str:
    """Render a small ASCII table (used by benchmarks to print paper-style rows)."""
    widths = [
        max(len(str(header)), max((len(str(row[i])) for row in rows), default=0))
        for i, header in enumerate(headers)
    ]
    def render_row(values):
        return "  ".join(str(value).ljust(width) for value, width in zip(values, widths))

    lines = [render_row(headers), render_row(["-" * width for width in widths])]
    lines.extend(render_row(row) for row in rows)
    return "\n".join(lines)
