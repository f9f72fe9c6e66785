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
