"""EU — eager release consistency with an update policy (Munin-style, §3).

At each release and barrier arrival, the flusher sends a diff of every
modified page to all other cachers, merged into one message per
destination; every cached copy is updated in place and stays valid, so the
only access misses are cold. This is the protocol of Figure 3: a page
cached everywhere is re-updated everywhere at every release, even when
only the next lock holder will read it.
"""

from __future__ import annotations

from repro.protocols.eager_base import EagerProtocol


class EagerUpdate(EagerProtocol):
    """The paper's EU protocol."""

    name = "EU"
    update = True
    replay_certified = True
