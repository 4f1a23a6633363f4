"""Repo-wide fixtures.

The observability registry (:data:`repro.obs.metrics.REGISTRY`) is
process-global state — it backs ``TEMPLATE_STATS`` and
every ``broker.*``/``service.*`` counter — so without a reset between
tests one test's counters leak into the next test's assertions (the
historical failure mode this fixture exists to close: stats accumulated
across tests depending on execution order).
"""

import pytest

from repro.obs import metrics
from repro.obs.trace import configure_tracing


@pytest.fixture(autouse=True)
def _reset_telemetry():
    """Zero every metric and disable tracing around each test."""
    metrics.reset_all()
    configure_tracing(None)
    yield
    metrics.reset_all()
    configure_tracing(None)
