"""Shared test settings: the Hypothesis profile and a seeded numpy rng.

The loop oracles live in loop_oracles.py, under a name of their own, so
that this suite and shiftbench/tests can run in one pytest session."""

import numpy as np
import pytest
from hypothesis import settings

settings.register_profile("suite", deadline=None, max_examples=25)
settings.load_profile("suite")


@pytest.fixture
def rng():
    return np.random.default_rng(20240917)
