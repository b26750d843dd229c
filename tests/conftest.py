"""Fixtures shared by the test modules."""

import pytest

import mgpp.prune


@pytest.fixture
def prune_events(monkeypatch):
    """Each PruneEvent that a run's prunes and threshold passes return, in
    order, collected as they return: a source for the event fields in a
    run's records that is not the records."""
    events = []
    for name in ("apply_global_prune", "_threshold_pass"):
        def collect(*args, _prune=getattr(mgpp.prune, name)):
            events.append(_prune(*args))
            return events[-1]
        monkeypatch.setattr(mgpp.prune, name, collect)
    return events
