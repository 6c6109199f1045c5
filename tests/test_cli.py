"""Command-line interface: subcommands, formats, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qinlab import __version__
from qinlab.cli import main
from qinlab.querytree import QueryTree, tree_to_json


@pytest.fixture
def tree_file(tmp_path):
    children = {0: (1, 3), 1: (2,), 2: (), 3: (4,), 4: (5,), 5: ()}
    resp = {0: False, 1: False, 2: True, 3: False, 4: False, 5: True}
    doc = tree_to_json(QueryTree(0, children, resp))
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture
def tree_with_reports(tmp_path):
    children = {0: (1, 3), 1: (2,), 2: (), 3: (4,), 4: (5,), 5: ()}
    resp = {0: False, 1: False, 2: True, 3: False, 4: False, 5: True}
    doc = tree_to_json(QueryTree(0, children, resp))
    doc["reports"] = {"1": {"resp": 0, "children": []}}
    path = tmp_path / "tree_reports.json"
    path.write_text(json.dumps(doc))
    return path


class TestAllocate:
    def test_shortest_path(self, tree_file, capsys):
        assert main(["allocate", "--tree", str(tree_file)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"path": [0, 1, 2], "n": 2, "solver": 2}

    def test_reports_reroute_allocation(self, tree_with_reports, capsys):
        assert main(["allocate", "--tree", str(tree_with_reports)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["path"] == [0, 3, 4, 5]
        assert payload["n"] == 3

    def test_no_solver(self, tmp_path, capsys):
        doc = tree_to_json(QueryTree(0, {0: (1,), 1: ()},
                                     {0: False, 1: False}))
        path = tmp_path / "t.json"
        path.write_text(json.dumps(doc))
        assert main(["allocate", "--tree", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["path"] is None


class TestReward:
    def test_reward_vector_output(self, tree_file, capsys):
        code = main(["reward", "--tree", str(tree_file),
                     "--mechanism", "gcrm", "--alpha", "0.5"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["path"] == [0, 1, 2]
        assert payload["rewards"][0] == pytest.approx(1 / 3)
        assert payload["rewards"][1] == pytest.approx(4 / 9)
        assert payload["total"] == pytest.approx(7 / 9)

    def test_writes_file(self, tree_file, tmp_path):
        out = tmp_path / "r.json"
        main(["reward", "--tree", str(tree_file), "--mechanism", "geom",
              "--delta", "0.6", "--out", str(out)])
        payload = json.loads(out.read_text())
        assert payload["total"] == pytest.approx(1.0, abs=1e-12)


class TestAnalytics:
    def test_table_reports_optima(self, capsys):
        assert main(["analytics", "--alpha", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "lambda* = 3" in out
        assert "lambda' = 0.86" in out
        assert "n' = 1.86" in out

    def test_csv_has_documented_header(self, capsys):
        main(["analytics", "--alpha", "0.5", "--format", "csv"])
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "alpha,lambda,f,lambda_prime,lambda_star,n_prime"
        assert len(lines) == 4  # three f rows for alpha = 0.5

    def test_check_rounding_reports_known_misses(self, capsys):
        main(["analytics", "--alpha", "0.76", "--alpha", "0.5",
              "--check-rounding"])
        payload = json.loads(capsys.readouterr().out)
        assert [m["alpha"] for m in payload["sybil"]] == [0.76]

    def test_json_profile(self, capsys):
        main(["analytics", "--alpha", "0.5", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["lambda_star"] == 3


class TestAttack:
    def test_inline_scenario(self, capsys):
        code = main(["attack", "--mechanism", "gcrm", "--alpha", "0.5",
                     "--kind", "sybil", "--position", "1", "--size", "1",
                     "--n", "2"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ratio"] == pytest.approx(7 / 6)
        assert payload["profitable"] is True

    def test_scenario_file_and_table_format(self, tmp_path, capsys):
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps(
            {"kind": "collusion", "position": 1, "size": 2, "n": 3}))
        code = main(["attack", "--mechanism", "dgm", "--rho", "0.6",
                     "--scenario", str(scenario), "--format", "table"])
        assert code == 0
        assert "collusion" in capsys.readouterr().out

    def test_missing_scenario_parts_exit_2(self, capsys):
        code = main(["attack", "--mechanism", "gcrm", "--alpha", "0.5",
                     "--kind", "sybil"])
        assert code == 2

    def test_non_integer_scenario_size_exit_2(self, tmp_path, capsys):
        scenario = tmp_path / "s.json"
        scenario.write_text(
            '{"kind": "sybil", "position": 1, "size": 2.7, "n": 3}')
        code = main(["attack", "--mechanism", "gcrm", "--rho", "0.6",
                     "--scenario", str(scenario)])
        assert code == 2
        assert "size must be an integer, got 2.7" in capsys.readouterr().err


class TestAudit:
    def test_split_proof_schedule_passes(self, capsys):
        code = main(["audit", "--mechanism", "dgm", "--alpha", "0.375",
                     "--property", "sp", "--lambda-max", "20"])
        assert code == 0
        assert "pass" in capsys.readouterr().out

    def test_merge_proof_schedule_fails_split_audit(self, capsys):
        code = main(["audit", "--mechanism", "geom", "--delta", "0.6",
                     "--property", "sp"])
        assert code == 1
        out = capsys.readouterr().out
        assert "fail" in out
        assert "'lambda': 1" in out

    def test_json_format(self, capsys):
        code = main(["audit", "--mechanism", "gcrm", "--alpha", "0.5",
                     "--property", "po,bb", "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert [r["property"] for r in payload] == ["po", "bb"]
        assert all(r["verdict"] == "pass" for r in payload)

    def test_tree_checks_on_random_trees(self, capsys):
        code = main(["audit", "--mechanism", "gcrm", "--alpha", "0.5",
                     "--property", "ic,core", "--trees", "10",
                     "--seed", "4"])
        assert code == 0

    def test_tree_checks_on_supplied_tree(self, tree_file, capsys):
        code = main(["audit", "--mechanism", "geom", "--delta", "0.6",
                     "--property", "ic", "--tree", str(tree_file)])
        assert code == 0

    def test_impossibility_audit(self, capsys):
        code = main(["audit", "--mechanism", "dgm", "--rho", "0.6",
                     "--property", "impossibility", "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["details"]["cp_m2"] == "fail"

    def test_unknown_property_exit_2(self, capsys):
        assert main(["audit", "--mechanism", "gcrm", "--alpha", "0.5",
                     "--property", "bogus"]) == 2

    def test_all_properties_for_gcrm(self, capsys):
        code = main(["audit", "--mechanism", "gcrm", "--alpha", "0.5",
                     "--property", "po,bb,split,monotone,impossibility,ic",
                     "--trees", "5", "--n-max", "20"])
        assert code == 0


class TestSweep:
    def test_experiment_flag(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--experiment", "budget_ratio",
                     "--n-max", "5", "--out", str(out)])
        assert code == 0
        assert out.exists()
        assert str(out) in capsys.readouterr().out
        manifest = json.loads(
            (tmp_path / "sweep.csv.manifest.json").read_text())
        assert manifest["version"] == __version__

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("experiment = sybil_ratio\n"
                       "lambda_max = 3\n"
                       f"output_path = {tmp_path / 'out.csv'}\n")
        assert main(["sweep", "--config", str(cfg)]) == 0
        assert (tmp_path / "out.csv").exists()

    def test_missing_experiment_exit_2(self):
        assert main(["sweep"]) == 2


class TestSpecBuilding:
    def test_dgm_needs_parameter(self):
        assert main(["audit", "--mechanism", "dgm", "--property", "po"]) == 2

    def test_tdgm_with_named_schedule(self, capsys):
        code = main(["audit", "--mechanism", "tdgm", "--alpha", "0.6",
                     "--beta", "cp", "--property", "bb", "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["details"]["strongly_bb"] is True

    def test_tdgm_with_table_file(self, tmp_path, capsys):
        table = tmp_path / "beta.json"
        table.write_text(json.dumps({"1": 0.5, "2": 0.4, "3": 0.3}))
        code = main(["audit", "--mechanism", "tdgm", "--alpha", "0.5",
                     "--beta-table", str(table), "--property", "po"])
        assert code == 0

    @pytest.mark.parametrize("entries", [
        {"1": True, "2": "0.3", "3": 0.2}, {"1": False}, {"1": [0.5]}])
    def test_non_number_table_entries_exit_2(self, entries, tmp_path,
                                             capsys):
        table = tmp_path / "beta.json"
        table.write_text(json.dumps(entries))
        code = main(["audit", "--mechanism", "tdgm", "--alpha", "0.5",
                     "--beta-table", str(table), "--property", "po"])
        assert code == 2
        assert "must be a number" in capsys.readouterr().err

    def test_table_file_not_an_object_exit_2(self, tmp_path, capsys):
        table = tmp_path / "beta.json"
        table.write_text("[0.5, 0.4]")
        code = main(["audit", "--mechanism", "tdgm", "--alpha", "0.5",
                     "--beta-table", str(table), "--property", "po"])
        assert code == 2
        assert "JSON object" in capsys.readouterr().err

    def test_out_of_range_parameter_exit_2(self, capsys):
        assert main(["audit", "--mechanism", "gcrm", "--alpha", "1.5",
                     "--property", "po"]) == 2

    def test_rho_shortcut_matches_direct_parameter(self, capsys):
        main(["analytics", "--alpha", "0.42195", "--format", "json"])
        direct = json.loads(capsys.readouterr().out)
        code = main(["audit", "--mechanism", "gcrm", "--rho", "0.6",
                     "--property", "split", "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["details"]["achieved_ratio"] == pytest.approx(
            0.6, rel=1e-12)
        assert direct[0]["lambda_star"] == 2


AUDIT = ["audit", "--mechanism", "gcrm", "--alpha", "0.5"]


class TestAuditRegistry:
    def test_checks_run_through_module_attributes(self, monkeypatch, capsys):
        from qinlab import auditor
        calls = []

        def counting(name):
            real = getattr(auditor, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return wrapper
        for name in ("check_po", "check_ic"):
            monkeypatch.setattr(auditor, name, counting(name))
        assert main(AUDIT + ["--property", "po,ic", "--trees", "2"]) == 0
        assert calls == ["check_po", "check_ic", "check_ic"]

    @pytest.mark.parametrize("flags", [
        ["--property", "sp", "--lambda-max", "0"],
        ["--property", "cp", "--gamma-max", "0"],
        ["--property", "po", "--n-max", "0"],
        ["--property", "bb", "--n-max", "-3"],
        ["--property", "ic", "--trees", "0"],
        ["--property", "ic", "--max-nodes", "0"],
        ["--property", "core", "--max-nodes", "1"],
    ])
    def test_out_of_range_sizes_exit_2(self, flags, capsys):
        assert main(AUDIT + flags) == 2
        assert "must be >=" in capsys.readouterr().err

    @pytest.mark.parametrize("budget", ["nan", "inf"])
    def test_non_finite_budget_exit_2(self, budget, capsys):
        code = main(["audit", "--mechanism", "dgm", "--rho", "0.6",
                     "--property", "bb,sp", "--budget", budget])
        assert code == 2
        assert "budget" in capsys.readouterr().err

    def test_overflowing_rewards_exit_2(self, capsys):
        code = main(["audit", "--mechanism", "gcrm", "--alpha", "0.9",
                     "--property", "bb", "--n-max", "2000"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")


class TestTreeDocumentErrors:
    def test_resp_for_unknown_id_exit_2(self, tmp_path, capsys):
        doc = tree_to_json(QueryTree(0, {0: (1,), 1: ()},
                                     {0: False, 1: True}))
        doc["resp"]["7"] = 1
        path = tmp_path / "t.json"
        path.write_text(json.dumps(doc))
        assert main(["allocate", "--tree", str(path)]) == 2
        assert "unknown nodes [7]" in capsys.readouterr().err
        assert main(["audit", "--mechanism", "gcrm", "--alpha", "0.5",
                     "--property", "ic", "--tree", str(path)]) == 2

    @pytest.mark.parametrize("doc, message", [
        ({"root": 0, "edges": [[0, 1.9]], "resp": {"1": 1}},
         "edge child must be an integer, got 1.9"),
        ({"root": 0, "edges": [[0, 1]], "resp": {"1": "0"}},
         "resp of 1 must be true, false, 0 or 1, got '0'"),
    ])
    def test_non_integer_ids_and_flags_exit_2(self, doc, message, tmp_path,
                                               capsys):
        path = tmp_path / "t.json"
        path.write_text(json.dumps(doc))
        assert main(["allocate", "--tree", str(path)]) == 2
        assert message in capsys.readouterr().err


def test_python_dash_m_runs_the_cli():
    # ``python -m qinlab`` from a checkout, with src/ on the path only
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-m", "qinlab", "attack", "--mechanism", "gcrm",
         "--alpha", "0.5", "--kind", "sybil", "--position", "1",
         "--size", "2", "--n", "3"],
        capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["profitable"] is True
    bad = subprocess.run([sys.executable, "-m", "qinlab", "sweep"],
                         capture_output=True, text=True, env=env, timeout=60)
    assert bad.returncode == 2
