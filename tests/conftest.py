"""Hypothesis runs derandomized with no example database, so every run of
the suite draws the same examples.  Its remaining on-disk cache (constants
read from the source) goes to a temporary directory removed at exit, so a
run writes nothing to the working tree."""

import subprocess
import tempfile

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

_storage = tempfile.TemporaryDirectory(prefix="fracctrl-hypothesis-")
set_hypothesis_home_dir(_storage.name)

settings.register_profile("fracctrl", derandomize=True, database=None, deadline=None,
                          max_examples=200)
settings.load_profile("fracctrl")


@pytest.fixture
def step_solves(monkeypatch):
    """The level of every StepSolver.solve call made while the test runs; the
    benchmark counts step solves by wrapping the same method on the class."""
    from fracctrl.pdesolve import StepSolver

    levels = []
    original = StepSolver.solve

    def counted(self, level, rhs):
        levels.append(level)
        return original(self, level, rhs)

    monkeypatch.setattr(StepSolver, "solve", counted)
    return levels


@pytest.fixture
def started(monkeypatch):
    """Every process started through subprocess.Popen while the test runs:
    run_all's verify workers, each with the environment it was given as
    `given_env` (None: the caller's own)."""
    procs = []

    class Recorded(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.given_env = kwargs.get("env")
            procs.append(self)

    monkeypatch.setattr(subprocess, "Popen", Recorded)
    return procs
