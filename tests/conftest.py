"""Shared fixtures."""

import os

import pytest

import hyperharmonic


@pytest.fixture
def child_env():
    """Environment for a child interpreter that imports the package from
    the same source tree as this test run, installed or not."""
    src = os.path.dirname(os.path.dirname(hyperharmonic.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env
