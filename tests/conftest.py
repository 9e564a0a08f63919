"""Suite-wide fixtures and shared machine/program construction helpers.

Every test runs with ``REPRO_CACHE_DIR`` pointed at a per-session
temporary directory so CLI invocations that default to the persistent
result cache can never read from (or write into) the developer's real
``~/.cache/repro``.

The machine/program helpers used to be duplicated across
``test_core_execution.py``, ``test_machine.py`` and ``test_attacks.py``;
they live once in ``repro_testlib.py`` now, wrapped here as fixtures:

* ``user_machine`` — a machine factory with the standard user data
  region (``DATA_BASE``) pre-mapped;
* ``run_program`` — build a program with a callback, run it on a fresh
  machine, return ``(machine, result)``;
* ``load_program`` — the ubiquitous ``li base / load / halt`` probe.

Constants (``DATA_BASE``, ``KERNEL_BASE``, ``POLICIES``) are imported
directly: ``from repro_testlib import DATA_BASE, POLICIES``.
"""

import pytest

from repro.exec.cache import CACHE_DIR_ENV
from repro_testlib import build_and_run, make_load_program, make_user_machine


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: long-running test (deselect with -m 'not slow')")


@pytest.fixture(autouse=True)
def _isolated_result_cache(tmp_path_factory, monkeypatch):
    cache_dir = tmp_path_factory.getbasetemp() / "repro-cache"
    monkeypatch.setenv(CACHE_DIR_ENV, str(cache_dir))


@pytest.fixture
def user_machine():
    """Factory: ``user_machine(policy=..., data_bytes=..., kernel=True)``."""
    return make_user_machine


@pytest.fixture
def run_program():
    """Factory: ``run_program(build, policy=..., setup=..., regs=...)``
    returning ``(machine, result)``."""
    return build_and_run


@pytest.fixture
def load_program():
    """Factory: ``load_program(addr, offset=0)`` -> probe Program."""
    return make_load_program
