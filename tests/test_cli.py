"""CLI tests (in-process through main())."""

import pytest

from repro.apps import generate
from repro.cli import build_parser, main
from repro.simulator.engine import simulate
from tests.conftest import SMALL_SCALE


def small_args(app: str):
    return ["--app", app, "--n-procs", "2", "--seed", "1"]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_app(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--app", "doom3d"])

    def test_rejects_unknown_protocol(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--protocol", "MESI"])

    def test_choice_tuples_name_the_registries(self):
        from repro.apps import APPS
        from repro.cli import APP_NAMES, PROTOCOL_NAMES
        from repro.protocols.registry import all_protocol_names

        assert list(APP_NAMES) == sorted(APPS)
        assert list(PROTOCOL_NAMES) == all_protocol_names()

    def test_help_does_not_import_the_simulator(self):
        """``-h`` answers from the parser alone: no simulator package,
        no worker-pool machinery (checked in a fresh interpreter)."""
        import os
        import subprocess
        import sys

        import repro

        code = (
            "import sys, repro.cli\n"
            "try:\n"
            "    repro.cli.main(['-h'])\n"
            "except SystemExit:\n"
            "    pass\n"
            "print('loaded=' + ','.join(sorted(sys.modules)))\n"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        done = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert "usage: lrc-sim" in done.stdout
        loaded = done.stdout.rsplit("loaded=", 1)[1].strip().split(",")
        assert "repro.cli" in loaded
        for module in ("repro.simulator", "repro.protocols", "repro.hb", "multiprocessing"):
            assert module not in loaded, module


class TestCommands:
    def test_run(self, capsys):
        assert main(["run", *small_args("water"), "--protocol", "LI", "--page-size", "512"]) == 0
        out = capsys.readouterr().out
        assert "water" in out and "msgs=" in out

    @pytest.mark.parametrize("protocol", ["LH", "HLRC", "EW"])
    def test_run_accepts_the_extension_protocols(self, protocol, capsys):
        args = ["run", *small_args("water"), "--scale", "0.25", "--page-size", "512"]
        assert main([*args, "--protocol", protocol]) == 0
        out = capsys.readouterr().out
        trace = generate("water", n_procs=2, seed=1, scale=0.25)
        assert out.startswith(simulate(trace, protocol, page_size=512).summary_row())
        assert out.rstrip().endswith("execution path: tape")

    def test_sweep(self, capsys):
        assert main(["sweep", *small_args("cholesky"), "--page-sizes", "512", "1024"]) == 0
        out = capsys.readouterr().out
        assert "Figure 7" in out and "Figure 8" in out
        # Four protocols x two page sizes, nothing watching: all on the tape.
        assert out.rstrip().endswith("execution paths: 8 x tape")

    def test_sweep_spans_stays_on_the_tape(self, capsys):
        args = ["sweep", *small_args("water"), "--page-sizes", "1024", "--spans"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "crit_path_len" in out
        # A span probe per cell, and still nothing off the tape.
        assert out.rstrip().endswith("execution paths: 4 x tape")

    @pytest.mark.parametrize(
        "network, footer",
        [
            ([], "execution path: tape"),
            # A cold timed cell records its send log on the interpreter.
            (
                ["--network", "ethernet_1992"],
                "execution path: per_event (tape declined: send_log_recording)",
            ),
        ],
        ids=["untimed", "cold_timed"],
    )
    def test_trace_spans_says_which_path_it_took(self, tmp_path, capsys, network, footer):
        args = ["trace", *small_args("water"), "--scale", "0.3", "--protocol", "LU"]
        assert main([*args, "--spans", str(tmp_path / "spans.json"), *network]) == 0
        lines = capsys.readouterr().out.rstrip().splitlines()
        assert lines[-2].startswith("span timeline -> ")
        assert lines[-1] == footer

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "cells match the analytical model" in out
        assert "FAIL" not in out

    def test_figures_judges_every_claim_of_the_figure(self, capsys):
        from repro.experiments.claims import claims_for

        assert main(["figures", "--apps", "cholesky", "--n-procs", "8"]) == 0
        lines = capsys.readouterr().out.rstrip().splitlines()
        assert lines[0].startswith("Figure 7")
        claims = claims_for("figure:cholesky")
        assert lines[-len(claims):] == [f"claim {claim.id}: holds" for claim in claims]

    def test_figures_exits_1_when_a_claim_fails(self, monkeypatch, capsys):
        import dataclasses

        from repro.experiments import claims

        broken = claims.claims_for("figure:cholesky")[0]
        monkeypatch.setattr(claims, "CLAIMS", claims.CLAIMS + (
            dataclasses.replace(broken, id="cholesky.never", predicate=lambda sweep: False),
        ))
        assert main(["figures", "--apps", "cholesky", "--n-procs", "8"]) == 1
        lines = capsys.readouterr().out.rstrip().splitlines()
        assert lines[-1] == "claim cholesky.never: FAILS"
        assert lines[-2] == "claim cholesky.eu-no-better-than-ei: holds"

    def test_trace_roundtrip(self, tmp_path, capsys):
        out_file = tmp_path / "w.trcb"
        assert main(["trace", *small_args("water"), "--out", str(out_file)]) == 0
        assert out_file.exists()
        assert (
            main(
                [
                    "run",
                    "--trace-file",
                    str(out_file),
                    "--protocol",
                    "EI",
                    "--page-size",
                    "1024",
                ]
            )
            == 0
        )
        assert "EI" in capsys.readouterr().out

    def test_stats(self, capsys):
        assert main(["stats", *small_args("mp3d"), "--page-size", "512"]) == 0
        assert "mp3d" in capsys.readouterr().out

    def test_check(self, capsys):
        assert main(["check", *small_args("water"), "--protocol", "EU", "--page-size", "512"]) == 0
        assert "reads verified" in capsys.readouterr().out

    def test_check_extra_protocol(self, capsys):
        assert main(["check", *small_args("water"), "--protocol", "EW", "--page-size", "512"]) == 0
        assert "reads verified" in capsys.readouterr().out

    def test_compare(self, capsys):
        assert main(["compare", *small_args("cholesky"), "--page-size", "1024", "--era", "modern"]) == 0
        out = capsys.readouterr().out
        for protocol in ("LI", "LU", "EI", "EU", "EW"):
            assert protocol in out
        assert "est=" in out

    @pytest.mark.parametrize(
        "extra, estimates",
        [
            ([], "1.693 1.764 2.324 2.079 2.040 1.729 1.723"),
            (["--era", "modern"], "0.008 0.008 0.010 0.010 0.009 0.008 0.008"),
            (
                ["--network", "latency=100us,bandwidth=10MB/s"],
                "0.521 0.582 0.492 0.463 0.210 0.541 0.227",
            ),
        ],
        ids=["era-1992", "era-modern", "network"],
    )
    def test_compare_estimates_pinned(self, capsys, extra, estimates):
        """``est=`` per protocol (LI LU EI EU EW LH HLRC), as printed
        before ``TimingModel`` was replaced by ``LinkModel`` presets."""
        assert main(["compare", *small_args("cholesky"), "--page-size", "1024", *extra]) == 0
        out = capsys.readouterr().out
        printed = [line.split("est=")[1].split("s")[0].strip() for line in out.splitlines()[1:]]
        assert " ".join(printed) == estimates

    def test_locks(self, capsys):
        assert main(["locks", *small_args("cholesky")]) == 0
        assert "handoff rate" in capsys.readouterr().out

    def test_mstats(self, capsys):
        assert main(["mstats", *small_args("water"), "--protocol", "LI", "--page-size", "512"]) == 0
        assert "modifiers per miss" in capsys.readouterr().out

    def test_chart(self, capsys):
        assert main(["chart", *small_args("water"), "--page-sizes", "512", "2048"]) == 0
        out = capsys.readouterr().out
        assert "messages by page size" in out and "█" in out

    def test_timeline(self, capsys):
        assert (
            main(
                [
                    "timeline",
                    *small_args("mp3d"),
                    "--page-size",
                    "1024",
                    "--protocols",
                    "LI",
                    "HLRC",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "burstiness" in out and "HLRC" in out

    def test_run_metrics_and_trace_out(self, tmp_path, capsys):
        events_path = tmp_path / "events.jsonl"
        assert (
            main(
                [
                    "run",
                    *small_args("water"),
                    "--protocol",
                    "LI",
                    "--page-size",
                    "1024",
                    "--metrics",
                    "--trace-out",
                    str(events_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "traffic by barrier epoch" in out
        from repro.obs import read_jsonl

        events = read_jsonl(events_path)
        assert events and all("kind" in e and "epoch" in e for e in events)

    def test_report(self, capsys):
        assert (
            main(["report", *small_args("water"), "--protocol", "LU", "--page-size", "1024"])
            == 0
        )
        out = capsys.readouterr().out
        assert "traffic by barrier epoch" in out
        assert "traffic by lock" in out
        assert "epoch sums == run totals" in out

    def test_report_json(self, tmp_path, capsys):
        import json

        json_path = tmp_path / "report.json"
        assert (
            main(
                [
                    "report",
                    *small_args("mp3d"),
                    "--protocol",
                    "LI",
                    "--page-size",
                    "512",
                    "--json",
                    str(json_path),
                ]
            )
            == 0
        )
        doc = json.loads(json_path.read_text())
        assert doc["protocol"] == "LI" and doc["seed"] == 1
        assert doc["metrics"]["epochs"]
        assert doc["manifest"]["trace_digest"] == doc["trace_digest"]

    def test_verbose_logs_to_stderr(self, capsys):
        assert main(["-v", "run", *small_args("water"), "--page-size", "1024"]) == 0
        captured = capsys.readouterr()
        assert "generated water" in captured.err
        assert "generated water" not in captured.out

    def test_quiet_suppresses_info(self, capsys):
        assert main(["-q", "run", *small_args("water"), "--page-size", "1024"]) == 0
        assert "generated water" not in capsys.readouterr().err

    def test_export(self, tmp_path, capsys):
        assert (
            main(
                [
                    "export",
                    "--out",
                    str(tmp_path / "results"),
                    "--apps",
                    "water",
                    "--n-procs",
                    "2",
                    "--seed",
                    "1",
                ]
            )
            == 0
        )
        assert (tmp_path / "results" / "manifest.json").exists()
        assert (tmp_path / "results" / "fig11_water_messages.csv").exists()


class TestUserErrors:
    """A bad argument value is the user's, not a bug: one
    ``lrc-sim: error:`` line on stderr, exit status 2, no traceback."""

    @pytest.mark.parametrize(
        "extra, named",
        [
            (["--page-size", "1000"], "1000"),
            (["--network", "bogus=1"], "'bogus'"),
            (["--n-procs", "0"], "got 0"),
            (["--scale", "0"], "got 0.0"),
            (["--trace-file", "/nonexistent.trcb"], "/nonexistent.trcb"),
        ],
        ids=["page_size", "network_key", "n_procs", "scale", "trace_file"],
    )
    def test_run_reports_and_exits_2(self, capsys, extra, named):
        assert main(["run", *small_args("water"), "--scale", "0.25", *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("lrc-sim: error: ")
        assert named in lines[0]
        assert "Traceback" not in captured.err

    def test_a_bug_keeps_its_traceback(self, monkeypatch):
        from repro import cli
        from repro.common.errors import SimulatorError

        def broken(args):
            raise SimulatorError("engine driven twice")

        monkeypatch.setitem(cli._COMMANDS, "run", broken)
        with pytest.raises(SimulatorError):
            main(["run", *small_args("water")])
