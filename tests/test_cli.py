"""CLI tests (argument wiring and output plumbing, small scales only)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_subcommands_present(self):
        parser = build_parser()
        sub = {a.dest: a for a in parser._actions}["command"]
        assert set(sub.choices) == {
            "generate", "run", "compare", "policies", "analyze", "sweep",
            "scenarios", "paper", "trace", "cache", "serve",
        }

    def test_run_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--policy", "bogus"])


class TestCommands:
    def test_policies_lists_all_nine(self, capsys):
        assert main(["policies"]) == 0
        out = capsys.readouterr().out
        for key in ("cplant24.nomax.all", "cons.72max", "consdyn.nomax"):
            assert key in out

    def test_policies_lists_the_frontier(self, capsys):
        assert main(["policies"]) == 0
        out = capsys.readouterr().out
        for key in ("easy.srpt", "fsp.easy", "rr.user"):
            assert key in out

    def test_matrix_writes_text_and_json(self, tmp_path, capsys):
        argv = [
            "paper", "build", "--only", "matrix", "--scale", "0.01",
            "--seed", "3", "--no-cache", "--quiet",
            "--out-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        assert "paper build: 1 artifacts, 8 cells" in capsys.readouterr().out
        text = (tmp_path / "matrix_policy_fairness.txt").read_text()
        assert "policy x hybrid-FST reference order" in text
        assert "rr.user" in text
        import json as _json

        doc = _json.loads((tmp_path / "manifest.json").read_text())
        assert set(doc["artifacts"]) == {"matrix"}
        assert doc["config"] == {"scale": 0.01, "seed": 3}

    def test_generate_writes_swf(self, tmp_path, capsys):
        out = tmp_path / "t.swf"
        rc = main(["generate", "--scale", "0.02", "--seed", "1",
                   "--out", str(out)])
        assert rc == 0
        assert out.exists()
        assert out.read_text().startswith("; Version: 2")

    def test_run_prints_metrics(self, capsys):
        rc = main(["run", "--scale", "0.02", "--seed", "1",
                   "--policy", "cplant24.nomax.all"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "avg turnaround" in out
        assert "percent unfair" in out

    def test_run_from_swf(self, tmp_path, capsys):
        swf = tmp_path / "t.swf"
        main(["generate", "--scale", "0.02", "--seed", "1", "--out", str(swf)])
        capsys.readouterr()
        rc = main(["run", "--swf", str(swf), "--policy", "easy.fcfs"])
        assert rc == 0
        assert "utilization" in capsys.readouterr().out

    def test_compare_subset(self, capsys):
        rc = main(["compare", "--scale", "0.02", "--seed", "1",
                   "--policies", "cplant24.nomax.all,cons.nomax"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "cons.nomax" in out

    def test_tables(self, tmp_path, capsys):
        rc = main(["paper", "build", "--only", "table1,table2",
                   "--scale", "0.02", "--seed", "1", "--no-cache",
                   "--quiet", "--out-dir", str(tmp_path)])
        assert rc == 0
        assert "paper build: 2 artifacts, 0 cells" in capsys.readouterr().out
        assert (tmp_path / "table1_job_counts.txt").read_text() \
            .startswith("Table 1")
        assert (tmp_path / "table2_proc_hours.txt").read_text() \
            .startswith("Table 2")


class TestScenariosCommands:
    def test_list_names_every_registered_scenario(self, capsys):
        from repro.scenarios import scenario_names

        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        for name in scenario_names():
            assert name in out

    def test_describe_shows_recipe(self, capsys):
        assert main(["scenarios", "describe", "heavy-tail-runtimes"]) == 0
        out = capsys.readouterr().out
        assert "alpha" in out and "runtime_tail" in out

    def test_run_prints_standard_report(self, capsys):
        rc = main(["scenarios", "run", "wide-jobs", "--seed", "1",
                   "--set", "n_jobs=80", "--policies", "easy.fcfs"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "policy: easy.fcfs" in out
        assert "percent unfair" in out

    def test_run_unknown_scenario_fails_fast(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            main(["scenarios", "run", "bogus-regime"])

    def test_run_unknown_param_fails_fast(self):
        with pytest.raises(ValueError, match="no parameter"):
            main(["scenarios", "run", "wide-jobs", "--set", "bogus=1"])

    def test_export_writes_swf(self, tmp_path, capsys):
        out = tmp_path / "scen.swf"
        rc = main(["scenarios", "export", "bursty-arrivals", "--seed", "2",
                   "--set", "scale=0.02", "--out", str(out)])
        assert rc == 0
        assert out.read_text().startswith("; Version: 2")
