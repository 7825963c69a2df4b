"""Shared fixtures for the test suite."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.crossbar.spec import CrossbarSpec
from repro.device.threshold import LevelScheme


class PaperExampleMap:
    """Digit map reproducing the paper's Example 1 exactly.

    Digits 0/1/2 map to threshold voltages 0.1/0.3/0.5 V and doping
    levels 2/4/9 x 10^18 cm^-3 (the worked example's integers, in units
    of 1e18 so matrices compare exactly).
    """

    n = 3
    vt_levels = (0.1, 0.3, 0.5)

    _LEVELS = np.array([2.0, 4.0, 9.0])

    def doping_levels(self) -> np.ndarray:
        return self._LEVELS.copy()

    def apply(self, pattern: np.ndarray) -> np.ndarray:
        return self._LEVELS[np.asarray(pattern)]

    def invert(self, doping: np.ndarray, rtol: float = 1e-6) -> np.ndarray:
        doping = np.asarray(doping, dtype=float)
        idx = np.abs(doping[..., None] - self._LEVELS[None, :]).argmin(axis=-1)
        return idx


@pytest.fixture
def paper_map() -> PaperExampleMap:
    """The Example 1 digit -> doping map."""
    return PaperExampleMap()


@pytest.fixture
def example1_pattern() -> np.ndarray:
    """Pattern matrix P of the paper's Example 1 (tree-code rows)."""
    return np.array([[0, 1, 2, 1], [0, 2, 2, 0], [1, 0, 1, 2]])


@pytest.fixture
def example5_pattern() -> np.ndarray:
    """Gray-ordered pattern matrix of the paper's Example 5."""
    return np.array([[0, 1, 2, 1], [0, 2, 2, 0], [1, 2, 1, 0]])


@pytest.fixture
def spec() -> CrossbarSpec:
    """The paper's default 16 kB platform."""
    return CrossbarSpec()


@pytest.fixture
def binary_scheme() -> LevelScheme:
    """Two VT levels in the 0..1 V supply range."""
    return LevelScheme(2)


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG for sampling tests."""
    return np.random.default_rng(1234)


@pytest.fixture
def held_sweeps(monkeypatch):
    """Hold every sweep evaluation until the yielded event is set.

    Patches :func:`repro.api.evaluate_records`, the compute behind
    every sweep (the serve daemon's included), so a test can keep a
    request in flight for as long as it needs.  The event is set on
    teardown so no executor thread outlives the test.
    """
    from repro import api

    release = threading.Event()
    evaluate_records = api.evaluate_records

    def held(*args, **kwargs):
        release.wait(timeout=60)
        return evaluate_records(*args, **kwargs)

    monkeypatch.setattr(api, "evaluate_records", held)
    yield release
    release.set()


@pytest.fixture
def wait_until():
    """A poller: ``wait_until(condition)`` fails the test after ``timeout`` s."""

    def wait(condition, timeout=10.0):
        deadline = time.monotonic() + timeout
        while not condition():
            assert time.monotonic() < deadline, "condition never held"
            time.sleep(0.005)

    return wait
