"""Tests for traffic timelines."""

import pytest

from repro.analysis.timeline import Timeline, message_timeline
from repro.apps.synthetic import producer_consumer
from repro.common.errors import ConfigError
from repro.config import SimConfig
from repro.protocols.registry import all_protocol_names
from repro.simulator.engine import simulate
from repro.trace.events import Event
from tests.conftest import build_trace, lock_chain_trace, small_trace, straddling_trace


class TestTimeline:
    @pytest.mark.parametrize("straddling", [False, True], ids=["lock_chain", "straddling"])
    @pytest.mark.parametrize("protocol", all_protocol_names())
    def test_buckets_cover_all_messages(self, protocol, straddling):
        trace = straddling_trace() if straddling else lock_chain_trace(n_procs=4, rounds=4)
        timeline = message_timeline(trace, protocol, page_size=512, n_buckets=10)
        reference = simulate(trace, protocol, page_size=512)
        assert timeline.total_messages == reference.messages > 0
        assert sum(timeline.data_byte_buckets) == reference.data_bytes

    def test_buckets_are_pinned(self):  # as recorded from the raw-event walk
        timeline = message_timeline(small_trace("mp3d"), "LU", page_size=512, n_buckets=13)
        assert timeline.bucket_events == 32
        assert timeline.message_buckets == [6, 0, 4, 28, 22, 30, 0, 0, 3, 14, 34, 0, 30]
        assert timeline.data_byte_buckets == [1536, 0, 0, 2132, 364, 864, 0, 0, 0, 252, 920, 0, 936]

    @pytest.mark.parametrize(
        ("trace_of", "n_procs", "message"),
        [
            (lock_chain_trace, 2, "trace uses 4 processors but config allows 2"),
            (producer_consumer, 7, "barrier 0 is re-entered"),
        ],
        ids=["narrower", "re-entered_barrier"],
    )
    def test_takes_the_engines_trace_checks(self, trace_of, n_procs, message):
        with pytest.raises(ConfigError, match=message):
            message_timeline(trace_of(n_procs=4), "LI", config=SimConfig(n_procs=n_procs))

    def test_bucket_count(self):
        trace = lock_chain_trace(n_procs=2, rounds=3)
        timeline = message_timeline(trace, "EI", page_size=512, n_buckets=7)
        assert len(timeline.message_buckets) == 7

    def test_invalid_buckets(self):
        with pytest.raises(ValueError):
            message_timeline(lock_chain_trace(), "LI", n_buckets=0)

    def test_sparkline_length_and_charset(self):
        trace = small_trace("mp3d", n_procs=4)
        timeline = message_timeline(trace, "EU", page_size=1024, n_buckets=20)
        spark = timeline.sparkline()
        assert len(spark) == 20
        assert any(c != " " for c in spark)

    def test_empty_timeline(self):
        timeline = Timeline("LI", 1, [0, 0], [0, 0])
        assert timeline.burstiness == 0.0
        assert timeline.sparkline() == "  "

    def test_cold_start_burst(self):
        """Cold misses burst up front; later re-reads hit and stay quiet."""
        pages = [Event.read(1, page * 256) for page in range(32)]
        rereads = [Event.read(1, page * 256) for page in range(32)] * 3
        trace = build_trace(2, pages + rereads)
        timeline = message_timeline(trace, "EI", page_size=256, n_buckets=8)
        front = sum(timeline.message_buckets[:2])
        back = sum(timeline.message_buckets[4:])
        assert front > 0 and back == 0

    def test_barrier_app_pulses(self):
        """Eager protocols burst at barrier phases: high burstiness."""
        trace = small_trace("mp3d", n_procs=4)
        eager = message_timeline(trace, "EU", page_size=1024, n_buckets=30)
        assert eager.burstiness > 1.5

    def test_format(self):
        trace = lock_chain_trace()
        text = message_timeline(trace, "LU", page_size=512).format()
        assert "burstiness" in text and "LU" in text
