"""The per-layer trace of perfbench/tracing.py binds public dsx names.

Installing and removing it here makes a rename that would break
`perfbench/run.py --trace 1` fail the test suite.  The traced `moore-p5`
check also reads what `symmetric_power_of` returns; its contract is pinned
here too.
"""

import os
import sys

import pytest

import dsx.delta
import dsx.moore

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


@pytest.fixture
def model(monkeypatch):
    monkeypatch.syspath_prepend(os.path.abspath(PERFBENCH))
    import model
    yield model
    sys.modules.pop("model", None)


def test_traced_power_counts_are_the_predicted_ones(tracing, model, moore3):
    # the traced moore-p5 check reads (P, orbit map, W) from
    # symmetric_power_of and compares the counts of W and P with the
    # smash-count and symmetric-square predictions from M's file counts
    from dsx.io import delta_to_dict
    from dsx.moore import symmetric_power_of
    tracer = tracing.Tracer()
    tracer.install()
    try:
        P, orbit_map, W = dsx.moore.symmetric_power_of(moore3.M, 2)
    finally:
        tracer.uninstall()
    assert dsx.moore.symmetric_power_of is symmetric_power_of
    assert orbit_map.source is W and orbit_map.target is P
    m = model.counts_of_file(delta_to_dict(moore3.M))
    assert tracer.captures["moore.power"] == [
        (model.symmetric_square_counts(m), model.smash_counts(m, m))]
