"""The deterministic scheduler.

One generator thread per processor; each scheduling step advances one
runnable thread by one operation against a sequentially consistent word
store. Lock waiters queue FIFO; barrier arrivals block until every live
processor has arrived. The interleaving is chosen by a seeded PRNG (or
strict round-robin), so traces are reproducible bit-for-bit.

:meth:`Scheduler.run` is the one loop. The runnable set is maintained
incrementally (blocking and finishing are rare next to data accesses, so
almost every step skips the O(n_procs) rebuild), the PRNG draw and
operation dispatch are inlined with hot callables bound to locals, and
data accesses append straight into the trace's typed columns — no
:class:`~repro.trace.events.Event` is constructed on the hot path. The
original step-at-a-time loop is the test oracle
``tests/reference_oracle.py::scheduler_reference_run``; the equivalence
suite asserts both emit byte-identical ``.trcb`` files for every app and
seed.
"""

from __future__ import annotations

import random
from bisect import insort
from collections import deque
from typing import Callable, Deque, Dict, Generator, List, Optional, Set

from repro.common.errors import ConfigError, RuntimeDeadlockError, TraceError
from repro.common.types import BarrierId, LockId, ProcId, WORD_SIZE
from repro.runtime.dsm import Dsm
from repro.runtime.ops import Op, OpKind
from repro.trace.stream import TraceMeta, TraceStream

#: A thread body: generator yielding Ops, optionally receiving read values.
ThreadGen = Generator[Op, object, None]
#: A thread factory: (dsm, proc) -> generator.
ThreadFn = Callable[[Dsm, ProcId], ThreadGen]


class _Thread:
    __slots__ = ("proc", "gen", "pending_result", "done")

    def __init__(self, proc: ProcId, gen: ThreadGen):
        self.proc = proc
        self.gen = gen
        self.pending_result: object = None
        self.done = False


class Scheduler:
    """Runs one thread per processor and records the trace."""

    def __init__(
        self,
        n_procs: int,
        seed: int = 0,
        schedule: str = "random",
        app: str = "unknown",
    ):
        if n_procs < 1:
            raise ConfigError(f"n_procs must be >= 1, got {n_procs}")
        if schedule not in ("random", "round_robin"):
            raise ConfigError(f"unknown schedule {schedule!r}")
        self.n_procs = n_procs
        self.schedule = schedule
        self._rng = random.Random(seed)
        self.meta = TraceMeta(n_procs=n_procs, app=app, params={"seed": str(seed)})
        self.trace = TraceStream(self.meta)
        self.memory: Dict[int, int] = {}
        self._threads: List[Optional[_Thread]] = [None] * n_procs
        self._lock_holder: Dict[LockId, Optional[ProcId]] = {}
        self._lock_waiters: Dict[LockId, Deque[ProcId]] = {}
        self._barrier_waiting: Dict[BarrierId, Set[ProcId]] = {}
        self._blocked: Dict[ProcId, Op] = {}
        # Incrementally maintained runnable set: a proc-sorted list (the
        # exact list the per-step rebuild used to produce, so the PRNG
        # consumes identical draws) plus a set for O(1) membership.
        self._runnable: List[ProcId] = []
        self._runnable_set: Set[ProcId] = set()
        self._rr_next = 0
        self.steps = 0

    def spawn(self, proc: ProcId, fn: ThreadFn) -> None:
        """Install the thread body for processor ``proc``."""
        if not 0 <= proc < self.n_procs:
            raise ConfigError(f"processor p{proc} out of range")
        if self._threads[proc] is not None:
            raise ConfigError(f"processor p{proc} already has a thread")
        self._threads[proc] = _Thread(proc, fn(Dsm(proc), proc))

    # -- execution -------------------------------------------------------------

    def _init_run(self) -> List[ProcId]:
        """Check spawn completeness and (re)build the runnable structures."""
        missing = [p for p in range(self.n_procs) if self._threads[p] is None]
        if missing:
            raise ConfigError(f"processors without threads: {missing}")
        self._runnable = self._runnable_list()
        self._runnable_set = set(self._runnable)
        return self._runnable

    def run(self) -> TraceStream:
        """Run every thread to completion and return the recorded trace.

        It emits the same trace as the step-at-a-time oracle bit for bit
        (same seed, same draws) while skipping the per-step runnable
        rebuild and Event construction.
        """
        runnable = self._init_run()
        threads = self._threads
        memory = self.memory
        mem_get = memory.get
        lock_holder = self._lock_holder
        lock_waiters = self._lock_waiters
        trace = self.trace
        codes, procs, values, sizes = trace.columns()
        c_app, p_app, v_app, s_app = (
            codes.append, procs.append, values.append, sizes.append,
        )
        read_k, write_k = OpKind.READ, OpKind.WRITE
        acquire_k, release_k = OpKind.ACQUIRE, OpKind.RELEASE
        word = WORD_SIZE
        random_schedule = self.schedule == "random"
        # Random.choice(seq) is seq[rng._randbelow(len(seq))]; binding
        # _randbelow skips a frame per step while consuming the exact
        # same PRNG draws. Fall back to choice if the private helper
        # ever disappears.
        randbelow = getattr(self._rng, "_randbelow", None)
        rng_choice = self._rng.choice
        steps = 0
        while runnable:
            if random_schedule:
                if randbelow is not None:
                    proc = runnable[randbelow(len(runnable))]
                else:
                    proc = rng_choice(runnable)
            else:
                proc = self._pick(runnable)
            thread = threads[proc]
            steps += 1
            try:
                op = thread.gen.send(thread.pending_result)
            except StopIteration:
                thread.done = True
                runnable.remove(proc)
                self._runnable_set.discard(proc)
                self._check_barrier_stranding()
                continue
            if op.__class__ is not Op and not isinstance(op, Op):
                raise TraceError(f"thread p{proc} yielded {op!r}, expected an Op")
            kind = op.kind
            if kind is read_k:
                addr = op.addr
                size = op.size
                if size == word:
                    thread.pending_result = mem_get(addr, 0)
                else:
                    thread.pending_result = [
                        mem_get(addr + i * word, 0) for i in range(size // word)
                    ]
                c_app(0); p_app(proc); v_app(addr); s_app(size)
            elif kind is write_k:
                thread.pending_result = None
                addr = op.addr
                size = op.size
                value = op.value
                if size == word and not isinstance(value, (list, tuple)):
                    memory[addr] = 0 if value is None else int(value)
                else:
                    for i, v in enumerate(op.write_values()):
                        memory[addr + i * word] = v
                c_app(1); p_app(proc); v_app(addr); s_app(size)
            elif kind is acquire_k:
                thread.pending_result = None
                lock = op.lock
                if lock_holder.get(lock) is None and not lock_waiters.get(lock):
                    # Uncontended acquire: grant inline (the common case).
                    lock_holder[lock] = proc
                    c_app(2); p_app(proc); v_app(lock); s_app(0)
                else:
                    # Contended: queue FIFO behind the holder's release.
                    lock_waiters.setdefault(lock, deque()).append(proc)
                    self._blocked[proc] = op
                    self._unrun(proc)
            elif kind is release_k:
                thread.pending_result = None
                lock = op.lock
                if lock_holder.get(lock) != proc:
                    raise TraceError(
                        f"p{proc} releases lock {lock} held by "
                        f"{lock_holder.get(lock)}"
                    )
                c_app(3); p_app(proc); v_app(lock); s_app(0)
                lock_holder[lock] = None
                waiters = lock_waiters.get(lock)
                if waiters:
                    next_proc = waiters.popleft()
                    del self._blocked[next_proc]
                    self._rerun(next_proc)
                    lock_holder[lock] = next_proc
                    c_app(2); p_app(next_proc); v_app(lock); s_app(0)
            else:
                thread.pending_result = None
                self._barrier(proc, op)
        self.steps += steps
        if not all(t.done for t in threads if t):
            self._raise_deadlock()
        return trace

    def _runnable_list(self) -> List[ProcId]:
        return [
            t.proc
            for t in self._threads
            if t and not t.done and t.proc not in self._blocked
        ]

    def _pick(self, runnable: List[ProcId]) -> ProcId:
        if self.schedule == "round_robin":
            # Membership via the incrementally maintained set: the list
            # scan here used to make round-robin O(n_procs^2) per step.
            runnable_set = self._runnable_set
            for offset in range(self.n_procs):
                candidate = (self._rr_next + offset) % self.n_procs
                if candidate in runnable_set:
                    self._rr_next = (candidate + 1) % self.n_procs
                    return candidate
        return self._rng.choice(runnable)

    # -- runnable bookkeeping --------------------------------------------------

    def _unrun(self, proc: ProcId) -> None:
        """Drop a finished or blocked proc from the runnable structures."""
        if proc in self._runnable_set:
            self._runnable.remove(proc)
            self._runnable_set.discard(proc)

    def _rerun(self, proc: ProcId) -> None:
        """Reinsert an unblocked proc, keeping the list proc-sorted."""
        if proc not in self._runnable_set:
            insort(self._runnable, proc)
            self._runnable_set.add(proc)

    # -- operation semantics ---------------------------------------------------

    def _barrier(self, proc: ProcId, op: Op) -> None:
        barrier = op.barrier
        assert barrier is not None
        self.trace.append_raw(4, proc, barrier, 0)
        waiting = self._barrier_waiting.setdefault(barrier, set())
        waiting.add(proc)
        if len(waiting) == self.n_procs:
            for waiter in waiting:
                if self._blocked.pop(waiter, None) is not None:
                    self._rerun(waiter)
            self._barrier_waiting[barrier] = set()
        else:
            self._blocked[proc] = op
            self._unrun(proc)

    def _check_barrier_stranding(self) -> None:
        """A finished thread can never join a barrier others wait at."""
        if any(self._barrier_waiting.values()):
            done = sum(1 for t in self._threads if t and t.done)
            if done == 0:
                return
            waiting = {
                b: sorted(procs)
                for b, procs in self._barrier_waiting.items()
                if procs
            }
            raise RuntimeDeadlockError(
                f"threads finished while others wait at barriers {waiting}"
            )

    def _raise_deadlock(self) -> None:
        details = []
        for proc, op in sorted(self._blocked.items()):
            if op.kind == OpKind.ACQUIRE:
                details.append(f"p{proc} waits for lock {op.lock}")
            else:
                details.append(f"p{proc} waits at barrier {op.barrier}")
        raise RuntimeDeadlockError("no runnable thread: " + "; ".join(details))
