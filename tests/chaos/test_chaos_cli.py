"""End-to-end tests of the ``rts-experiments chaos`` target."""

import json

import pytest

from repro.experiments.cli import main
from repro.experiments.chaos import run_system_chaos
from repro.streams.scale import paper_params
from repro.streams.workload import build_stochastic_workload


class TestChaosTarget:
    def test_all_engines_exit_zero(self, capsys):
        rc = main(
            [
                "chaos",
                "--mode",
                "stochastic",
                "--scale",
                "20000",
                "--engine",
                "all",
                "--seed",
                "3",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "dt: exact after" in out

    def test_json_report_parses(self, capsys):
        rc = main(
            [
                "chaos",
                "--mode",
                "stochastic",
                "--scale",
                "20000",
                "--engine",
                "dt",
                "--format",
                "json",
            ]
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["engines"]["dt"]["status"] == "ok"

    def test_saved_workload_replays(self, tmp_path, capsys):
        script = build_stochastic_workload(paper_params(1, 20000), seed=4)
        path = tmp_path / "wl.json"
        script.save(path)
        rc = main(["chaos", str(path), "--engine", "interval-tree"])
        assert rc == 0
        assert "interval-tree: exact after" in capsys.readouterr().out


class TestSystemChaosHarness:
    def test_dims_mismatch_is_skipped_not_failed(self):
        script = build_stochastic_workload(paper_params(1, 20000), seed=0)
        result = run_system_chaos(script, "seg-intv-tree")
        assert result.status == "skipped" and result.ok

    def test_unknown_engine_raises(self):
        script = build_stochastic_workload(paper_params(1, 20000), seed=0)
        with pytest.raises(KeyError):
            run_system_chaos(script, "no-such-engine")

    def test_zero_crashes_still_verifies(self):
        script = build_stochastic_workload(paper_params(1, 20000), seed=2)
        result = run_system_chaos(script, "baseline", crashes=0)
        assert result.status == "ok" and result.crashes == 0
