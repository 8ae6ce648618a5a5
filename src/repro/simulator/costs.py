"""Analytical per-operation message costs — Table 1 of the paper.

Table 1 gives, per protocol, the messages exchanged for an access miss, a
lock, an unlock and a barrier, in terms of:

- ``m``: concurrent last modifiers for the missing page,
- ``h``: other concurrent last modifiers for any local page,
- ``c``: other cachers of the page(s) flushed at a release,
- ``n``: processors,
- ``u``: sum over processors of other cachers of pages they modified,
- ``v``: excess invalidators of the pages flushed at a barrier.

This module states the same table under this implementation's explicit
conventions (request/reply pairs for pulls; acknowledged pushes), so the
simulator can be validated operation-by-operation against it. With
``count_acks=False`` the eager push terms halve, recovering the paper's
literal ``c``/``u`` coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ConfigError
from repro.network.costs import CostModel

_LAZY = ("LI", "LU")
_EAGER = ("EI", "EU")
_ALL = _LAZY + _EAGER


def _check(protocol: str) -> str:
    if protocol not in _ALL:
        raise ConfigError(f"unknown protocol {protocol!r}")
    return protocol


@dataclass(frozen=True)
class CostConventions:
    """Counting conventions shared with the simulator."""

    count_acks: bool = True

    @classmethod
    def from_cost_model(cls, cost_model: CostModel) -> "CostConventions":
        return cls(count_acks=cost_model.count_acks)

    def _push(self, destinations: int) -> int:
        """Messages for an acknowledged push to ``destinations`` cachers."""
        per_dest = 2 if self.count_acks else 1
        return per_dest * destinations

    # -- Table 1 rows -----------------------------------------------------

    def miss_messages(
        self, protocol: str, m: int = 0, cold: bool = False, manager_has_copy: bool = True
    ) -> int:
        """Access-miss cost.

        Lazy: one request/reply pair per concurrent last modifier (2m),
        plus a page fetch pair when no stale copy is cached. Eager: two or
        three messages depending on whether the directory manager holds a
        valid copy.
        """
        if _check(protocol) in _LAZY:
            return 2 * m + (2 if cold else 0)
        return 2 if manager_has_copy else 3

    def lock_messages(self, protocol: str, h: int = 0, remote: bool = True) -> int:
        """Lock cost: three find-and-transfer hops, plus LU's diff pulls (2h)."""
        _check(protocol)
        if not remote:
            return 0
        base = 3
        if protocol == "LU":
            return base + 2 * h
        return base

    def unlock_messages(self, protocol: str, c: int = 0) -> int:
        """Unlock cost: lazy protocols do not communicate on unlocks."""
        if _check(protocol) in _LAZY:
            return 0
        return self._push(c)

    def barrier_messages(
        self, protocol: str, n: int, u: int = 0, v: int = 0, h: int = 0
    ) -> int:
        """Barrier-episode cost.

        All protocols: 2(n-1) arrival/exit messages. EU pushes updates to
        ``u`` cacher destinations (acknowledged); EI resolves ``v`` excess
        invalidators (one diff + ack each) and pushes invalidations to
        ``u`` destinations; LU pulls from ``h`` modifiers (request/reply).
        LI needs nothing extra — notices ride the barrier messages.
        """
        _check(protocol)
        base = 2 * (n - 1)
        if protocol == "LI":
            return base
        if protocol == "LU":
            return base + 2 * h
        if protocol == "EU":
            return base + self._push(u)
        return base + self._push(u) + self._push(v)
