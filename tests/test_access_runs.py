"""Access-run segmentation: one touch per (processor, page) span."""

from __future__ import annotations

from repro.trace.events import Event
from repro.trace.precompile import OP_READ_N, OP_WRITE_N
from repro.trace.runs import R_ACQUIRE, R_BARRIER, R_RELEASE, R_TOUCH, segment_runs
from tests.conftest import build_trace, small_trace

SYNC_KINDS = (R_ACQUIRE, R_RELEASE, R_BARRIER)


def runs_of(trace, page_size=512, n_procs=None):
    return segment_runs(trace.compiled(page_size).ops, n_procs or trace.n_procs)[0]


def touches_of(program):
    return [ins[1:] for ins in program if ins[0] == R_TOUCH]


class TestSegmentation:
    def test_repeated_accesses_collapse_to_one_run(self):
        events = [Event.read(0, 64) for _ in range(5)]
        events += [Event.write(0, 64) for _ in range(5)]
        # Five reads -> one touch; the writes that follow in the same
        # span add nothing.
        assert runs_of(build_trace(1, events)) == [(R_TOUCH, 0, 0)]

    def test_write_first_span_gets_one_touch(self):
        write_first = build_trace(1, [Event.write(0, 64), Event.read(0, 64)])
        read_first = build_trace(1, [Event.read(0, 64), Event.write(0, 64)])
        # Whichever access opens the span, the program is the same.
        assert runs_of(write_first) == runs_of(read_first) == [(R_TOUCH, 0, 0)]

    def test_single_event_runs(self):
        events = [
            Event.acquire(0, 0),
            Event.read(0, 64),
            Event.release(0, 0),
            Event.acquire(0, 0),
            Event.write(0, 64),
            Event.release(0, 0),
        ]
        program = runs_of(build_trace(1, events))
        assert [ins[0] for ins in program] == [
            R_ACQUIRE,
            R_TOUCH,
            R_RELEASE,
            R_ACQUIRE,
            R_TOUCH,
            R_RELEASE,
        ]

    def test_instructions_are_value_free_and_syncs_are_the_compiled_ops(self):
        trace = small_trace("water")
        compiled = trace.compiled(1024)
        program, positions = segment_runs(compiled.ops, trace.n_procs)
        assert all(type(ins) is tuple and len(ins) == 3 for ins in program)
        assert all(type(field) is int for ins in program for field in ins)
        # Sync instructions are the compiled op tuples, not copies.
        syncs = [ins for ins in program if ins[0] != R_TOUCH]
        ops = [op for op in compiled.ops if op[0] in SYNC_KINDS]
        assert len(syncs) == len(ops) and all(a is b for a, b in zip(syncs, ops))
        # Each instruction's position is the op it stands for: a sync op
        # itself, or the access of its processor that opens the span.
        assert len(positions) == len(program)
        assert list(positions) == sorted(positions)
        for ins, pos in zip(program, positions):
            op = compiled.ops[pos]
            if ins[0] != R_TOUCH:
                assert op is ins
                continue
            pages = [page for page, _ in op[2]] if op[0] in (OP_READ_N, OP_WRITE_N) else [op[2]]
            assert op[1] == ins[1] and ins[2] in pages

    def test_sync_ops_split_runs_per_proc_only(self):
        events = [
            Event.read(0, 64),
            Event.read(1, 64),
            Event.acquire(0, 0),  # closes only proc 0's spans
            Event.read(0, 64),
            Event.read(1, 64),  # proc 1's span is still open: no new run
            Event.release(0, 0),
            Event.write(0, 64),  # its own release reopened proc 0's span
        ]
        program = runs_of(build_trace(2, events))
        assert touches_of(program) == [(0, 0), (1, 0), (0, 0), (0, 0)]

    def test_barrier_completion_closes_all_spans(self):
        events = [Event.read(0, 64), Event.read(1, 64)]
        events += [Event.at_barrier(p, 0) for p in range(2)]
        events += [Event.write(0, 64), Event.read(1, 64)]
        program = runs_of(build_trace(2, events))
        # Both processors touch again after the episode completes.
        assert touches_of(program) == [(0, 0), (1, 0), (0, 0), (1, 0)]

    def test_partial_barrier_does_not_close_other_procs(self):
        events = [
            Event.read(0, 64),
            Event.read(1, 64),
            Event.at_barrier(0, 0),  # arrival only: episode incomplete
            Event.read(0, 64),  # proc 0's own arrival closed its span
            Event.read(1, 64),  # proc 1's span survives
        ]
        program = runs_of(build_trace(3, events))
        assert touches_of(program) == [(0, 0), (1, 0), (0, 0)]

    def test_completion_counted_against_n_procs_not_trace_n_procs(self):
        events = [
            Event.at_barrier(1, 0),
            Event.at_barrier(0, 0),  # arrival 2: completes a 2-processor episode
            Event.read(1, 64),
            Event.at_barrier(0, 0),  # arrival 3: completes a 3-processor episode
            Event.read(1, 64),  # a new span only if that arrival completed
        ]
        trace = build_trace(2, events)
        assert trace.n_procs == 2
        assert touches_of(runs_of(trace, n_procs=2)) == [(1, 0)]
        assert touches_of(runs_of(trace, n_procs=3)) == [(1, 0), (1, 0)]

    def test_page_straddling_write_spawns_one_run_per_page(self):
        # Bytes 500..1549 at page_size=512 cover pages 0 through 3; the
        # overlapping read that follows reopens none of them.
        trace = build_trace(1, [Event.write(0, 500, 1050), Event.read(0, 400, 700)])
        assert runs_of(trace, page_size=512) == [(R_TOUCH, 0, page) for page in range(4)]

    def test_empty_interval_trace_has_only_sync_instructions(self):
        events = []
        for proc in range(2):
            events += [Event.acquire(proc, 0), Event.release(proc, 0)]
        program = runs_of(build_trace(2, events))
        assert [ins[0] for ins in program] == [R_ACQUIRE, R_RELEASE, R_ACQUIRE, R_RELEASE]

    def test_zero_sync_trace(self):
        events = [Event.read(0, 0), Event.write(0, 0), Event.read(1, 4096)]
        program = runs_of(build_trace(2, events))
        assert program == [(R_TOUCH, 0, 0), (R_TOUCH, 1, 8)]

    def test_event_coverage_against_app_trace(self):
        # Every compiled op is represented: sync ops one-to-one, ordinary
        # accesses by the touch opening their (proc, page) span.
        trace = small_trace("water")
        program = runs_of(trace, page_size=1024)
        n_sync = sum(1 for e in trace if not e.type.is_ordinary)
        assert sum(1 for ins in program if ins[0] in SYNC_KINDS) == n_sync
        assert len(program) < len(trace.compiled(1024).ops)

