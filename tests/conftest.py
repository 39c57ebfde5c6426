"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import stat

import numpy as np
import pytest

from repro.datasets.synthetic import generate_synthetic, generate_with_variances
from repro.truthdiscovery.claims import ClaimMatrix


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def small_claims() -> ClaimMatrix:
    """5 users x 4 objects, fully observed, hand-checkable values."""
    values = np.array(
        [
            [1.0, 2.0, 3.0, 4.0],
            [1.1, 2.1, 2.9, 4.2],
            [0.9, 1.8, 3.1, 3.9],
            [1.0, 2.0, 3.0, 4.0],
            [5.0, 6.0, 7.0, 8.0],  # outlier user
        ]
    )
    return ClaimMatrix(values=values)


@pytest.fixture
def sparse_claims() -> ClaimMatrix:
    """4 users x 3 objects with missing observations."""
    values = np.array(
        [
            [1.0, 0.0, 3.0],
            [1.2, 2.0, 0.0],
            [0.0, 2.2, 3.1],
            [1.1, 2.1, 2.9],
        ]
    )
    mask = np.array(
        [
            [True, False, True],
            [True, True, False],
            [False, True, True],
            [True, True, True],
        ]
    )
    return ClaimMatrix(values=values, mask=mask)


@pytest.fixture
def synthetic_dataset():
    """Mid-size synthetic campaign with known ground truth."""
    return generate_synthetic(
        num_users=40, num_objects=12, lambda1=4.0, random_state=7
    )


@pytest.fixture
def graded_quality_dataset():
    """Users with strictly increasing error variances (quality ladder)."""
    variances = np.linspace(0.01, 2.0, 12)
    return generate_with_variances(variances, num_objects=25, random_state=11)


@pytest.fixture
def atomic_write_events(monkeypatch) -> list:
    """What :func:`repro.durable.fsync.atomic_write` does, in order:
    ``"write"``, ``"fsync file"``, ``"replace"``, ``"fsync dir"``."""
    from repro.durable import fsync as fsync_module

    events: list = []
    real_open, real_fsync, real_replace = open, os.fsync, os.replace

    class RecordedFile:
        def __init__(self, fh):
            self._fh = fh

        def write(self, data):
            events.append("write")
            return self._fh.write(data)

        def __getattr__(self, name):
            return getattr(self._fh, name)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return self._fh.__exit__(*exc_info)

    def fsync(fd):
        kind = "dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file"
        events.append(f"fsync {kind}")
        return real_fsync(fd)

    def replace(src, dst):
        events.append("replace")
        return real_replace(src, dst)

    monkeypatch.setattr(
        fsync_module, "open",
        lambda *args, **kwargs: RecordedFile(real_open(*args, **kwargs)),
        raising=False,
    )
    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    return events
