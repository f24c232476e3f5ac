import os

import numpy as np
import pytest

from levyrefract.cli_reporting import load_config
from levyrefract.levy_model import EventColumns, JumpDiffusionSpec, sample_path
from levyrefract.path_engine import SegmentTable, floored_lane_sweep, trajectory_table

from oracles import TABLE_ROWS, EventPath, event_paths, reference_config_text, table_rows

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

# The shipped reference models: unit-rate Uniform(0,1) up-jumps against
# unit-rate Weibull(2,1) down-jumps, with sigma = 0 (case 1) or 1 (case 2).
# Their truncated-drift coefficient puts the slope between jumps at 0.6.
REFERENCE_SPECS = {case: load_config(reference_config_text(case)).spec for case in (1, 2)}
REFERENCE_GAMMA = REFERENCE_SPECS[1].gamma

FULL_SCALE = os.environ.get("LEVYREFRACT_FULL_SCALE", "") not in ("", "0")


@pytest.fixture(scope="session")
def ref_spec_bv():
    return REFERENCE_SPECS[1]


@pytest.fixture(scope="session")
def ref_spec_gauss():
    return REFERENCE_SPECS[2]


def drift_only(delta: float, x0: float = 0.0) -> JumpDiffusionSpec:
    return JumpDiffusionSpec(gamma=delta, sigma=0.0, jump_components=(), x0=x0)


def drift_path(delta, x0, horizon, jumps=()):
    times = np.array([t for t, _ in jumps])
    sizes = np.array([s for _, s in jumps])
    return EventPath(x0=x0, horizon=horizon, drift=delta, times=times, sizes=sizes)


def draw_path(spec, horizon, stream) -> EventPath:
    """The one exact path that sample_path draws on stream, as an EventPath
    from spec.x0: column 0 of its one-path EventColumns."""
    return event_paths(sample_path(spec, horizon, 1, stream), spec.x0)[0]


def event_columns(paths):
    """The events of hand-built event paths, which share drift and horizon,
    packed as the EventColumns that sample_path draws: each path's events,
    then rows of (horizon, 0).  The starts stay with the paths; paths of
    two drifts or horizons are refused, as one draw has one of each."""
    if len({(p.drift, p.horizon) for p in paths}) > 1:
        raise ValueError("paths of one draw share drift and horizon")
    counts = np.array([p.times.size for p in paths])
    times = np.full((int(counts.max()) + 1, len(paths)), float(paths[0].horizon))
    sizes = np.zeros(times.shape)
    for i, p in enumerate(paths):
        times[:counts[i], i] = p.times
        sizes[:counts[i], i] = p.sizes
    return EventColumns(paths[0].horizon, paths[0].drift, counts, times, sizes)


def refract_exact(columns, x, b, alpha):
    """The refracted trajectories of the paths of columns from x, without
    floor: the one-role trajectory_table."""
    return trajectory_table(columns, x, b, alpha, False)[0]


def refracted_reflected_exact(columns, x, b, alpha):
    """The floored trajectories of the paths of columns from x, refracted
    above b and reflected at 0: the one-role floored trajectory_table."""
    return trajectory_table(columns, x, b, alpha, True)[0]


def every_path(nx, m):
    """The (nx, m) path array of lanes that run all m paths at each of nx
    points, as the lane readers take it."""
    return np.tile(np.arange(m), (nx, 1))


def floored_flows(path, b, alpha, q):
    """(integral e^{-qt} dL, integral e^{-qt} dR) over [0, horizon] of the
    floored trajectory of path from path.x0 under the cap alpha above b:
    the one unspliced lane of floored_lane_sweep."""
    got = floored_lane_sweep(event_columns([path]), [path.x0], [b], [False], alpha, q,
                             path.drift, every_path(1, 1))
    return float(got.dl[0, 0]), float(got.dr[0, 0])


def assert_floored_is(table, path, b, alpha):
    """table, a one-path trajectory of path, is row for row its floored
    trajectory under the cap alpha above b, the one floored_flows reads."""
    want = table_rows(refracted_reflected_exact(event_columns([path]), path.x0, b, alpha))
    for name, got in table_rows(table).items():
        assert np.array_equal(got, want[name]), name


def one_path(transform):
    """A path transform of path_engine or strategy_engine, which sweeps the
    paths of EventColumns from a start into a SegmentTable, as a transform
    of one EventPath: the src reader on event_columns([path]) from path.x0.
    The one-path table has the fields of the path's trajectory."""
    return lambda path, *args, **kwargs: transform(event_columns([path]), path.x0, *args,
                                                   **kwargs)


def own_starts(paths, b, alpha, floor):
    """The trajectory_table of paths, hand-built paths that share drift and
    horizon, each from its own start, as one SegmentTable: one sweep of the
    distinct starts (signed zeros apart) as roles, path i read off the role
    of its start."""
    starts = np.array([float(p.x0) for p in paths])
    _, first, role = np.unique(starts.view(np.int64), return_index=True, return_inverse=True)
    tables = trajectory_table(event_columns(paths), starts[first], b, alpha, floor)
    own = [tables[r].block(i, i + 1) for i, r in enumerate(role.reshape(-1).tolist())]
    return SegmentTable(paths[0].horizon, rates=tables[0].rates,
                        **{name: np.concatenate([getattr(t, name) for t in own])
                           for name in TABLE_ROWS + ("counts",)})
