"""The network ledger against a plain per-kind count.

:class:`~repro.network.network.Network` keeps its ledger as columns
indexed by ``kind.slot``, with each cost model's counted/ack flags and
the kind order computed once at import. Random ``send`` /
``apply_tape`` sequences over every :class:`MessageKind`, under every
combination of the cost model's ledger flags, must read back through
every view of :class:`~repro.network.stats.NetworkStats` exactly as a
dict of counts keyed by kind name says. CI also runs this file under a
random hash seed: nothing here may depend on how kinds hash.
"""

from __future__ import annotations

from typing import Dict, List

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.network.costs import CostModel
from repro.network.message import CATEGORIES, MessageKind
from repro.network.network import Network
from repro.network.stats import NetworkStats

KINDS = list(MessageKind)
N_PROCS = 3

cost_models = st.builds(
    CostModel,
    header_bytes=st.integers(0, 64),
    count_acks=st.booleans(),
    count_header_in_data=st.booleans(),
    count_control_in_data=st.booleans(),
)

sends = st.tuples(
    st.just("send"),
    st.sampled_from(KINDS),
    st.integers(0, N_PROCS - 1),
    st.integers(0, N_PROCS - 1),
    st.integers(0, 4096),
    st.integers(0, 256),
)

tapes = st.tuples(
    st.just("tape"),
    st.lists(
        st.tuples(
            st.integers(0, len(KINDS) - 1),
            st.integers(0, 5),
            st.integers(0, 10_000),
            st.integers(0, 500),
        ),
        max_size=6,
    ),
)

programs = st.lists(st.one_of(sends, tapes), max_size=40)


def run(cost_model: CostModel, program) -> NetworkStats:
    network = Network(N_PROCS, cost_model)
    for op in program:
        if op[0] == "send":
            _, kind, src, dst, payload, control = op
            network.send(kind, src, dst, payload, control)
        else:
            network.apply_tape(op[1])
    return network.stats


def reference(cost_model: CostModel, program) -> Dict[str, List[int]]:
    """``kind name -> [messages, data_bytes, control_bytes]``, counted
    from the cost model's definitions alone."""
    counts = {kind.name: [0, 0, 0] for kind in KINDS}
    for op in program:
        if op[0] == "send":
            _, kind, src, dst, payload, control = op
            if src == dst:
                continue
            row = counts[kind.name]
            if cost_model.count_acks or not kind.is_ack:
                row[0] += 1
            row[1] += cost_model.message_data_bytes(payload, control)
            row[2] += control
        else:
            for slot, messages, data, control in op[1]:
                row = counts[KINDS[slot].name]
                row[0] += messages
                row[1] += data
                row[2] += control
    return counts


def assert_reads_as(stats: NetworkStats, counts: Dict[str, List[int]]) -> None:
    by_kind = stats.by_kind
    assert list(by_kind) == KINDS
    assert {
        kind.name: [bucket.messages, bucket.data_bytes, bucket.control_bytes]
        for kind, bucket in by_kind.items()
    } == counts
    for kind in KINDS:
        assert stats.messages_of(kind) == counts[kind.name][0]

    categories = {name: [0, 0, 0] for name in CATEGORIES}
    for kind in KINDS:
        for field, value in enumerate(counts[kind.name]):
            categories[kind.category][field] += value
    by_category = stats.by_category()
    assert list(by_category) == list(CATEGORIES)
    assert {
        name: [bucket.messages, bucket.data_bytes, bucket.control_bytes]
        for name, bucket in by_category.items()
    } == categories
    for name in CATEGORIES:
        assert stats.category_messages(name) == categories[name][0]
        assert stats.category_data_bytes(name) == categories[name][1]

    assert stats.total_messages == sum(row[0] for row in counts.values())
    assert stats.total_data_bytes == sum(row[1] for row in counts.values())
    assert stats.total_data_kbytes == stats.total_data_bytes / 1024.0
    assert stats.total_control_bytes == sum(row[2] for row in counts.values())

    assert stats.snapshot() == {
        kind.name: {"messages": counts[kind.name][0], "data_bytes": counts[kind.name][1]}
        for kind in KINDS
        if counts[kind.name][0] or counts[kind.name][1]
    }
    assert list(stats.snapshot()) == [
        kind.name for kind in KINDS if counts[kind.name][0] or counts[kind.name][1]
    ]


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cost_models, programs)
def test_ledger_equals_per_kind_reference_count(cost_model, program):
    assert_reads_as(run(cost_model, program), reference(cost_model, program))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cost_models, programs, programs)
def test_merged_ledger_is_the_sum_of_both(cost_model, first, second):
    left, right = run(cost_model, first), run(cost_model, second)
    before = left.snapshot(), right.snapshot()
    merged = left.merged_with(right)
    counts = reference(cost_model, first)
    for name, row in reference(cost_model, second).items():
        counts[name] = [a + b for a, b in zip(counts[name], row)]
    assert_reads_as(merged, counts)
    # Merging reads both ledgers and writes neither.
    assert (left.snapshot(), right.snapshot()) == before


def test_every_flag_combination_is_reachable():
    """One hand-sized send per flag combination, so a regression in one
    policy fails here by name even if the search never drew it."""
    for acks in (True, False):
        for header in (True, False):
            for control in (True, False):
                model = CostModel(
                    header_bytes=32,
                    count_acks=acks,
                    count_header_in_data=header,
                    count_control_in_data=control,
                )
                program = [
                    ("send", MessageKind.RELEASE_ACK, 0, 1, 0, 4),
                    ("send", MessageKind.PAGE_REPLY, 1, 0, 1024, 8),
                    ("send", MessageKind.LOCK_GRANT, 2, 2, 0, 16),  # local: free
                ]
                stats = run(model, program)
                assert_reads_as(stats, reference(model, program))
                assert stats.messages_of(MessageKind.RELEASE_ACK) == int(acks)
                assert stats.total_data_bytes == 1024 + 2 * 32 * header + 12 * control
