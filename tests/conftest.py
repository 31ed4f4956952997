"""Shared fixtures for the test suite."""

import pytest

from repro.automata import clear_caches


@pytest.fixture
def clean_automata():
    """A pristine automata cache before *and* after the test.

    Resets the node caches, the fingerprint interner, and any attached
    on-disk store handle — tests exercising compilation, cache counters,
    or disk persistence should depend on this instead of calling
    ``clear_caches()`` ad hoc (which would leak a configured store into
    later tests if the test fails midway).
    """
    clear_caches()
    yield
    clear_caches()


@pytest.fixture(autouse=True)
def _reset_obs():
    """Leave tracing and metrics strictly disabled after every test.

    Observability is module-global switches; a test that enables a
    tracer or registry and fails midway must not leak spans (or their
    overhead) into the rest of the suite.
    """
    yield
    from repro import obs

    obs.shutdown()


@pytest.fixture(autouse=True)
def _reset_faults():
    """No fault plan may outlive a test.

    The fault plan is process-global so workers can inherit it; a chaos
    test that fails midway must not leave later tests running under its
    faults.
    """
    yield
    from repro import faults

    faults.reset()
