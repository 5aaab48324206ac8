import os
import sys

import numpy as np
import pytest

from groundslice import default_config
from groundslice.parallel_exec import SliceExecutor
from groundslice.synthetic import write_sequence


def pytest_terminal_summary(terminalreporter):
    """Echo the acceptance criterion lines after capture ends."""
    mod = sys.modules.get("test_acceptance")
    if mod is not None and getattr(mod, "NOTES", None):
        terminalreporter.section("acceptance criteria")
        for line in mod.NOTES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def small_dataset(tmp_path_factory):
    """Three tiny frames in SemanticKITTI layout, shared across tests."""
    root = tmp_path_factory.mktemp("kitti")
    write_sequence(root, "00", n_frames=3, seed=11, rows=24, cols=180,
                   max_range=30.0)
    return root


@pytest.fixture(scope="session")
def process_pool():
    """One spawned worker pool for every test that needs real processes."""
    with SliceExecutor(5, "process") as ex:
        yield ex


class _ExitsWhenUnpickled:
    """A task whose unpickling in a pool worker ends that worker's process."""

    def __reduce__(self):
        return os._exit, (1,)


@pytest.fixture
def dying_task():
    return _ExitsWhenUnpickled()


@pytest.fixture
def fast_cfg():
    """Defaults shrunk where speed matters but semantics do not."""
    cfg = default_config()
    cfg.smrf.max_window_radius = 5
    cfg.smrf.cell_size = 1.0
    cfg.ransac.iterations = 60
    return cfg


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
