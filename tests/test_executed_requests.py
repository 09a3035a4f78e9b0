"""The executed-request table both BFT backends dedup with.

``smart/batching.py::ExecutedRequests`` keeps, per client, a low
watermark plus the ids above it, so a replica's memory no longer grows
with every request it ever ordered.  The property test beside
``PendingQueue``'s (``tests/properties/test_props_structures.py``)
checks it against a plain ``set``; these tests pin the two rules
docs/FAULTS.md (bug 1) rests on and the footprint on both backends.
"""

import pytest

from repro.ordering.backends import ScenarioRow, SpacedLoad, stand_up
from repro.smart.batching import ExecutedRequests


def test_a_lower_sequence_ordered_after_a_higher_one_is_still_new():
    table = ExecutedRequests([(7, 0), (7, 5)])
    assert (7, 3) not in table and table.isdisjoint([(7, 3)])
    table.update([(7, 3), (7, 1), (7, 2)])
    assert table.low == {7: 4} and table.above == {(7, 5)}
    table.add((7, 4))
    assert table.low == {7: 6} and not table.above
    assert all((7, sequence) in table for sequence in range(6))
    assert (7, 6) not in table and (8, 0) not in table


def test_an_id_below_the_watermark_never_re_enters_the_set():
    table = ExecutedRequests((3, sequence) for sequence in range(10))
    table.update([(3, 4), (3, 0), (3, 4)])
    assert table.low == {3: 10} and not table.above
    assert not table.isdisjoint([(3, 11), (3, 9)])
    assert table == ExecutedRequests(reversed([(3, s) for s in range(10)]))


@pytest.mark.parametrize("backend", ["bftsmart", "smartbft"])
def test_in_order_requests_leave_one_watermark_per_client(backend):
    """300 envelopes from one frontend: every replica's table ends as
    that client's watermark and nothing else."""
    row = ScenarioRow(backend=backend, load=SpacedLoad(count=300, spacing=0.002))
    up = stand_up(row)
    up.sim.run(until=row.load.end + 2.0)
    assert up.service.frontends[0].blocks_delivered * row.block_size >= 300
    for replica in up.service.replicas:
        if backend == "bftsmart":
            table = replica._executed_ids
        else:
            table = replica._committed_ids
            assert not replica._accepted_ids
        assert len(table.low) == 1 and not table.above
        assert list(table.low.values()) == [300]
