import sys

import pytest

from nearsym.chord import genus
from nearsym.region import bridge_regions
from oracles import cycle_oracle


@pytest.fixture(scope="session")
def bridge_cycle_oracle():
    """The networkx oracle's cycles of every bridge region, full length range,
    keyed by (n, region id); computed once per test session."""
    out = {}
    for n in (3, 4, 6):
        for r in bridge_regions(genus(n)):
            out[n, r.id] = cycle_oracle(
                [(e.a, e.b) for e in r.edges], 4, 2 * n, key=lambda c: c.sort_key
            )
    return out


def clear_caches():
    """Empty every functools cache in the loaded nearsym modules.  A test
    that tampers with a table (a catalog offset, a displaced note) calls it
    after the tamper and after undoing it, so no cached answer outlives
    either; a cache added to the library later is cleared without being
    named here."""
    for name, module in sorted(sys.modules.items()):
        if name.partition(".")[0] != "nearsym":
            continue
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


@pytest.fixture
def fresh_caches(monkeypatch):
    """Empty caches for the test, emptied again once its patches are undone."""
    clear_caches()
    yield
    monkeypatch.undo()
    clear_caches()
