"""Unit tests for message kinds, the cost model, the network ledger, and accounting."""

import pytest

from repro.network.costs import CostModel
from repro.network.message import CATEGORIES, MessageKind
from repro.network.network import Network


class TestMessageKinds:
    def test_every_kind_has_valid_category(self):
        for kind in MessageKind:
            assert kind.category in CATEGORIES

    def test_acks_flagged(self):
        assert MessageKind.RELEASE_ACK.is_ack
        assert MessageKind.BARRIER_ACK.is_ack
        assert not MessageKind.PAGE_REPLY.is_ack


class TestCostModel:
    def test_vclock_bytes(self):
        assert CostModel(vclock_entry_bytes=4).vclock_bytes(16) == 64

    def test_notices_bytes(self):
        assert CostModel(write_notice_bytes=12).notices_bytes(5) == 60

    def test_data_bytes_excludes_control_by_default(self):
        model = CostModel()
        assert model.message_data_bytes(100, control_bytes=40) == 100

    def test_data_bytes_can_include_control(self):
        model = CostModel(count_control_in_data=True)
        assert model.message_data_bytes(100, control_bytes=40) == 140

    def test_data_bytes_can_include_header(self):
        model = CostModel(count_header_in_data=True, header_bytes=32)
        assert model.message_data_bytes(100) == 132


class TestNetworkAccounting:
    def test_remote_message_counted(self):
        network = Network(2)
        network.send(MessageKind.PAGE_REPLY, 0, 1, payload_bytes=512)
        assert network.stats.total_messages == 1
        assert network.stats.total_data_bytes == 512

    def test_local_send_free(self):
        network = Network(2)
        network.send(MessageKind.PAGE_REQUEST, 1, 1)
        assert network.stats.total_messages == 0

    def test_ack_exclusion(self):
        network = Network(2, CostModel(count_acks=False))
        network.send(MessageKind.RELEASE_ACK, 0, 1)
        network.send(MessageKind.UPDATE, 0, 1, payload_bytes=8)
        assert network.stats.total_messages == 1

    def test_control_tracked_separately(self):
        network = Network(2)
        network.send(MessageKind.LOCK_GRANT, 0, 1, control_bytes=76)
        assert network.stats.total_data_bytes == 0
        assert network.stats.total_control_bytes == 76

    def test_proc_range_checked(self):
        network = Network(2)
        with pytest.raises(ValueError):
            network.send(MessageKind.PAGE_REQUEST, 0, 5)

    def test_category_aggregation(self):
        network = Network(3)
        network.send(MessageKind.PAGE_REQUEST, 0, 1)
        network.send(MessageKind.PAGE_REPLY, 1, 0, payload_bytes=100)
        network.send(MessageKind.LOCK_REQUEST, 0, 2)
        by_cat = network.stats.by_category()
        assert by_cat["miss"].messages == 2
        assert by_cat["miss"].data_bytes == 100
        assert by_cat["lock"].messages == 1
        assert by_cat["unlock"].messages == 0


class TestStatsMerge:
    def test_merged_with(self):
        a, b = Network(2), Network(2)
        a.send(MessageKind.UPDATE, 0, 1, payload_bytes=10)
        b.send(MessageKind.UPDATE, 0, 1, payload_bytes=5)
        merged = a.stats.merged_with(b.stats)
        assert merged.total_messages == 2
        assert merged.total_data_bytes == 15

    def test_snapshot_only_nonzero(self):
        network = Network(2)
        network.send(MessageKind.PAGE_REPLY, 0, 1, payload_bytes=7)
        snap = network.stats.snapshot()
        assert list(snap) == ["PAGE_REPLY"]
        assert snap["PAGE_REPLY"] == {"messages": 1, "data_bytes": 7}
