"""The per-layer trace of perfbench/tracing.py binds public dsx names.

Installing and removing it here makes a rename that would break
`perfbench/run.py --trace 1` fail the test suite.
"""

import os
import sys

import pytest

import dsx.delta

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(os.path.abspath(PERFBENCH))
    import tracing
    yield tracing
    sys.modules.pop("tracing", None)


def test_tracer_installs_and_uninstalls(tracing):
    validate = dsx.delta.validate
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert dsx.delta.validate is not validate
        dsx.delta.validate(dsx.standard("simplex", 2))
        assert tracer.self_times()["delta.validate"] > 0
    finally:
        tracer.uninstall()
    assert dsx.delta.validate is validate
