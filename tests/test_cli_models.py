"""CLI plumbing for the fault-model layer: ``--fault-model``,
``--scenario``, ``fastfit verify --mutant`` for every layer, and the exit-2
operator-error hygiene around all of them."""

import json

import pytest

from repro.cli import main
from repro.injection import parse_scenario, serialize_scenario

ARGS = ["--app", "is", "--problem-class", "T", "--tests", "2", "--max-points", "2"]


@pytest.fixture()
def scenario_file(tmp_path):
    scen = parse_scenario({
        "version": 1, "name": "cli-drop",
        "tasks": [{"t": 0, "model": "msg_drop", "rank": 0}],
    })
    path = tmp_path / "scen.json"
    path.write_text(serialize_scenario(scen))
    return str(path)


class TestFaultModelFlag:
    def test_wire_model_campaign_runs(self, capsys):
        assert main(["campaign", *ARGS, "--fault-model", "msg_dup"]) == 0
        assert "response types" in capsys.readouterr().out

    def test_unknown_model_is_exit_2(self, capsys):
        assert main(["campaign", *ARGS, "--fault-model", "bogus"]) == 2
        err = capsys.readouterr().err
        assert "unknown fault model" in err and "bitflip" in err
        assert len(err.strip().splitlines()) == 1  # one line, no traceback

    def test_scenario_is_not_a_model_name(self, capsys):
        assert main(["campaign", *ARGS, "--fault-model", "scenario"]) == 2
        assert "unknown fault model" in capsys.readouterr().err

    def test_model_plus_static_prune_is_exit_2(self, capsys):
        assert main(["campaign", *ARGS, "--fault-model", "multibit", "--static-prune"]) == 2
        assert "bitflip" in capsys.readouterr().err


class TestScenarioFlag:
    def test_scenario_campaign_runs(self, scenario_file, capsys):
        assert main(["campaign", *ARGS, "--scenario", scenario_file]) == 0
        out = capsys.readouterr().out
        assert "response types" in out
        assert "INF_LOOP" in out

    def test_malformed_scenario_is_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"version": 1, "name": "x", "tasks": [{"model": "gamma"}]}')
        assert main(["campaign", *ARGS, "--scenario", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "bad.json" in err
        assert len(err.strip().splitlines()) == 1

    def test_missing_scenario_file_is_exit_2(self, tmp_path, capsys):
        assert main(["campaign", *ARGS, "--scenario", str(tmp_path / "gone.json")]) == 2
        assert "cannot read scenario file" in capsys.readouterr().err

    def test_scenario_plus_static_prune_is_exit_2(self, scenario_file, capsys):
        assert main(["campaign", *ARGS, "--scenario", scenario_file, "--static-prune"]) == 2
        assert "--static-prune" in capsys.readouterr().err

    def test_scenario_plus_fault_model_is_exit_2(self, scenario_file, capsys):
        assert main(
            ["campaign", *ARGS, "--scenario", scenario_file, "--fault-model", "msg_drop"]
        ) == 2
        assert "mutually exclusive" in capsys.readouterr().err


    @pytest.mark.parametrize("command", ["learn", "study"])
    def test_scenario_with_the_ml_stage_is_exit_2(self, command, scenario_file, capsys):
        """A scenario has one anchor point: nothing for the ML stage to
        learn, so it is refused instead of silently running bit flips."""
        args = ["--app", "is", "--problem-class", "T", "--tests", "2"]
        assert main([command, *args, "--scenario", scenario_file]) == 2
        err = capsys.readouterr().err
        assert "--scenario" in err and "ML stage" in err
        assert len(err.strip().splitlines()) == 1


class TestVerifyRouting:
    def test_model_mutants_are_listed(self, capsys):
        assert main(["verify", "--list-mutants"]) == 0
        out = capsys.readouterr().out
        for name in ("wire_drop_retries", "wire_reorder_fifo", "stall_under_deadline"):
            assert name in out

    def test_model_mutant_detected(self, capsys):
        assert main(["verify", "--mutant", "wire_reorder_fifo", "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["ok"] is True
        assert summary["phases"]["models"]["detected"] is True
        assert summary["phases"]["models"]["expected"] == ["msg_reorder"]
        assert summary["phases"]["models"]["found"] == ["msg_reorder"]

    @pytest.mark.parametrize(
        "mutant, layer", [("bcast_shifted_root", "conformance"), ("wrong_root", "analyze")]
    )
    def test_every_layer_runs_through_verify(self, mutant, layer, capsys):
        assert main(["verify", "--mutant", mutant, "--draws", "15", "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert list(summary["phases"]) == [layer]
        result = summary["phases"][layer]
        assert result["ok"] and result["detected"] and result["clean"]
        assert result["found"] == result["expected"]

    def test_all_layers_are_listed(self, capsys):
        assert main(["verify", "--list-mutants"]) == 0
        out = capsys.readouterr().out
        for name in ("ring_wrong_block", "snapshot_stale_prefix", "wrong_root"):
            assert name in out
