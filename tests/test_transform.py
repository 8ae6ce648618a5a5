"""Tests for trace slicing."""

from repro.trace.transform import slice_events
from tests.conftest import lock_chain_trace


class TestSlice:
    def test_slice_bounds(self):
        trace = lock_chain_trace(n_procs=2, rounds=2)
        sliced = slice_events(trace, 0, 4)
        assert len(sliced) == 4
        assert sliced.meta.params["slice"] == "0:4"

    def test_slice_reassigns_seq(self):
        trace = lock_chain_trace(n_procs=2, rounds=2)
        sliced = slice_events(trace, 4, 8)
        assert [e.seq for e in sliced] == [0, 1, 2, 3]

    def test_slice_does_not_mutate_source(self):
        trace = lock_chain_trace(n_procs=2, rounds=1)
        slice_events(trace, 0, 2)
        assert [e.seq for e in trace] == list(range(len(trace)))
