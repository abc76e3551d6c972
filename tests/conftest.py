"""Fixtures shared by the test modules."""

import os
from pathlib import Path

import pytest

import ecac


@pytest.fixture
def child_env() -> dict:
    """The environment for a test's child Python process: this process's,
    with ``PYTHONPATH`` naming the directory ``ecac`` was imported from,
    so the child imports the same ``ecac`` whether or not the tests run
    with ``PYTHONPATH`` set."""
    return dict(os.environ, PYTHONPATH=str(Path(ecac.__file__).resolve().parents[1]))
