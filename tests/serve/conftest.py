"""Serve-test fixtures: one built ServeContext shared by the module."""

from __future__ import annotations

import logging

import pytest


@pytest.fixture(scope="session")
def serve_context(tiny_repo, test_refinement_config, tmp_path_factory):
    """Forward + transpose stores and indexes over ``tiny_repo``."""
    from repro.serve.daemon import ServeContext

    context = ServeContext.build(
        tiny_repo,
        tmp_path_factory.mktemp("serve"),
        buffer_bytes=128 * 1024,
        refinement=test_refinement_config,
    )
    yield context
    context.close()


@pytest.fixture(autouse=True)
def no_connection_task_died(caplog):
    """Fail a serve test whose daemon lost a connection task.

    asyncio only *logs* an exception that escapes ``_handle_client``
    ("Unhandled exception in client_connected_cb"): the client sees a
    closed socket, every assertion about other requests still passes,
    and the request is missing from the counters.  Autouse fixtures are
    torn down last, so a daemon stopped in another fixture's teardown is
    covered too.
    """
    yield
    died = [
        record.getMessage()
        for when in ("setup", "call", "teardown")
        for record in caplog.get_records(when)
        if record.name == "asyncio" and record.levelno >= logging.ERROR
    ]
    assert not died, died
