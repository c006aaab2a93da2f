import math
import sys

import numpy as np
import pytest

from strongdrive import _magnus
from strongdrive.model import QubitParams


@pytest.fixture(scope="session")
def params():
    return QubitParams()


@pytest.fixture(scope="session")
def delta(params):
    return params.delta


@pytest.fixture()
def rng():
    return np.random.default_rng(424242)


class StepBudget:
    """Magnus steps taken, len(lo) x batch summed over ``magnus_path`` calls,
    against a limit; calling it with a limit restarts the count."""

    def __init__(self):
        self.limit, self.steps = math.inf, 0

    def __call__(self, limit):
        self.limit, self.steps = limit, 0
        return self

    def charge(self, u, x_of_t, lo):
        if len(lo):
            batch = np.broadcast_shapes(np.shape(u)[:-2], np.shape(x_of_t(lo[:1]))[:-1])
            self.steps += len(lo) * math.prod(batch)
        if self.steps > self.limit:
            raise AssertionError(f"{self.steps} Magnus steps exceed the budget of {self.limit}")


@pytest.fixture()
def step_budget(monkeypatch):
    """A ``StepBudget`` charged before every ``magnus_path`` call steps, so a
    call over the budget fails at once instead of running.  Modules import
    ``magnus_path`` by value, so every strongdrive namespace that holds it
    gets the wrapper."""
    budget, path = StepBudget(), _magnus.magnus_path

    def counted(u, x_of_t, hz, lo, h, keep):
        budget.charge(u, x_of_t, lo)
        return path(u, x_of_t, hz, lo, h, keep)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "strongdrive" and getattr(module, "magnus_path", None) is path:
            monkeypatch.setattr(module, "magnus_path", counted)
    return budget
