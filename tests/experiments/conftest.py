"""Golden campaign cells: the ``tests/integration/test_golden_streams.py``
scheme for the cells the campaign test modules already run."""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.core.client import WALL_CLOCK_SERIES
from repro.obs.slo import parse_series


def _sim_clock_only(series: dict, without: frozenset) -> list[str]:
    dropped = without | {WALL_CLOCK_SERIES}
    return [
        f"{name}={entry!r}"
        for name, entry in sorted(series.items())
        if parse_series(name)[0] not in dropped
    ]


@pytest.fixture(scope="session")
def cell_digest():
    """sha256 of one campaign cell: every result field, the fault events,
    and the registry snapshot and timeline minus the wall-clock series (and
    minus the series named in ``without``)."""

    def digest(result, without: frozenset = frozenset()) -> str:
        lines = [
            f"{f.name}={getattr(result, f.name)!r}"
            for f in dataclasses.fields(result)
            if f.name not in ("events", "metrics", "timeline")
        ]
        lines.extend(result.events)
        lines.extend(_sim_clock_only(result.metrics, without))
        timeline = result.timeline
        lines.append(
            f"timeline {timeline['interval']!r} {timeline['start']!r} "
            f"{timeline['length']!r}"
        )
        lines.extend(_sim_clock_only(timeline["series"], without))
        sha = hashlib.sha256()
        for line in lines:
            sha.update(line.encode())
            sha.update(b"\n")
        return sha.hexdigest()

    return digest
