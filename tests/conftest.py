import os

import numpy as np
import pytest

from levyrefract.levy_model import (
    EXACT, EventColumns, JumpDiffusionSpec, Uniform, Weibull, sample_path,
)

from oracles import EventPath, event_paths

# one line per acceptance criterion, printed after the run
ACCEPTANCE_LINES = []


def record_acceptance(number: int, ok: bool, detail: str) -> bool:
    line = "ACCEPTANCE %d: %s - %s" % (number, "PASS" if ok else "FAIL", detail)
    ACCEPTANCE_LINES.append((number, line))
    return ok


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_line("")
        for _, line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)

# Truncated-drift coefficient that puts the slope between jumps at 0.6 for
# the reference jump mix (unit-rate Uniform(0,1) up, Weibull(2,1) down).
REFERENCE_GAMMA = 0.7210553083590153

FULL_SCALE = os.environ.get("LEVYREFRACT_FULL_SCALE", "") not in ("", "0")


@pytest.fixture(scope="session")
def ref_spec_bv():
    return JumpDiffusionSpec(
        gamma=REFERENCE_GAMMA, sigma=0.0,
        jump_components=((1.0, 1, Uniform(0.0, 1.0)),
                         (1.0, -1, Weibull(2.0, 1.0))))


@pytest.fixture(scope="session")
def ref_spec_gauss(ref_spec_bv):
    from dataclasses import replace
    return replace(ref_spec_bv, sigma=1.0)


def drift_only(delta: float, x0: float = 0.0) -> JumpDiffusionSpec:
    return JumpDiffusionSpec(gamma=delta, sigma=0.0, jump_components=(), x0=x0)


def drift_path(delta, x0, horizon, jumps=()):
    times = np.array([t for t, _ in jumps])
    sizes = np.array([s for _, s in jumps])
    return EventPath(x0=x0, horizon=horizon, drift=delta, times=times, sizes=sizes)


def draw_path(spec, horizon, stream) -> EventPath:
    """The one exact path that sample_path draws on stream, as an EventPath:
    column 0 of its one-path EventColumns."""
    return event_paths(sample_path(spec, horizon, EXACT, stream))[0]


def event_columns(paths):
    """Hand-built event paths, which share drift and horizon, packed as the
    EventColumns that sample_path draws: each path's events, then rows of
    (horizon, 0)."""
    counts = np.array([p.times.size for p in paths])
    times = np.full((int(counts.max()) + 1, len(paths)), float(paths[0].horizon))
    sizes = np.zeros(times.shape)
    for i, p in enumerate(paths):
        times[:counts[i], i] = p.times
        sizes[:counts[i], i] = p.sizes
    return EventColumns(np.array([float(p.x0) for p in paths]), paths[0].horizon,
                        paths[0].drift, counts, times, sizes)


def one_path(transform):
    """A path transform of path_engine or strategy_engine, which sweeps the
    paths of EventColumns into a SegmentTable, as a transform of one
    EventPath: the src reader on event_columns([path]).  The one-path table
    has the fields of the path's trajectory, and its discounted_flow gives
    arrays of one entry."""
    return lambda path, *args, **kwargs: transform(event_columns([path]), *args, **kwargs)
