"""Span timelines, pinned to the last float bit.

``tests/golden_spans_water4.json`` holds, for the event-pin water cell
under each of the seven protocols, with the default (1992) span costs
and over a lossy timed link, two sha256 digests:

- ``timeline``: ``json.dumps(timeline_fields(timeline))`` — every span's
  times, ``pred``, buckets in order, label and args, every flow, epoch
  row and the barrier sum, floats at full precision (the Perfetto
  export rounds to 1e-3 µs, which would hide a changed last bit);
- ``file``: the bytes ``lrc-sim trace --spans`` writes.

A change to how :class:`~repro.obs.spans.SpanBuilder` weighs, orders or
attributes anything moves a digest. CI's span trace smoke checks the
LI ``file`` digest.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs import spans
from tests.conftest import timeline_fields

GOLDEN = json.loads(
    (Path(__file__).parent / "golden_spans_water4.json").read_text(encoding="utf-8")
)
CELL = ["--app", "water", "--n-procs", "4", "--seed", "1", "--scale", "0.25", "--page-size", "1024"]
LINKS = {"default": [], "lossy": ["--network", "ethernet_1992,loss=0.05"]}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def span_digests(protocol: str, link: str, out: Path, monkeypatch) -> dict:
    """Both digests of one case: the timeline ``trace --spans`` builds
    (caught on its way to the file) and the file it writes."""
    build, built = spans.build_span_timeline, []

    def build_and_keep(*args, **kwargs):
        result, timeline = build(*args, **kwargs)
        built.append(timeline)
        return result, timeline

    with monkeypatch.context() as patch:
        patch.setattr(spans, "build_span_timeline", build_and_keep)
        status = main(["trace", *CELL, *LINKS[link], "--protocol", protocol, "--spans", str(out)])
    assert status == 0 and len(built) == 1
    return {
        "timeline": sha256(json.dumps(timeline_fields(built[0])).encode()),
        "file": sha256(out.read_bytes()),
    }


@pytest.mark.parametrize("link", sorted(LINKS))
@pytest.mark.parametrize("protocol", sorted(GOLDEN["sha256"]["default"]))
def test_span_timeline_and_file_are_pinned(protocol, link, tmp_path, capsys, monkeypatch):
    digests = span_digests(protocol, link, tmp_path / "trace.json", monkeypatch)
    assert "execution path: tape" in capsys.readouterr().out
    assert digests == GOLDEN["sha256"][link][protocol]
