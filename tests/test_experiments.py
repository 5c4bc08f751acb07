"""Tests for the experiment drivers (quick mode) and the CLI runner."""

import json

import pytest

from repro.errors import CyclopsError
from repro.experiments import REGISTRY, get_experiment
from repro.experiments.runner import main


class TestRegistry:
    def test_all_artifacts_registered(self):
        assert set(REGISTRY) >= {
            "table1", "table2", "fig3", "fig4", "fig5", "fig6", "fig7",
        }
        assert "family" in REGISTRY  # the extension sweep
        # The exploration families (docs/exploration.md).
        assert {"saturation", "bandwidth", "contention"} <= set(REGISTRY)

    def test_unknown_experiment(self):
        with pytest.raises(CyclopsError):
            get_experiment("fig99")

    def test_experiments_md_catalog_matches_registry(self):
        """EXPERIMENTS.md's catalog lists exactly the registered ids."""
        import pathlib
        import re

        text = pathlib.Path(__file__).parent.parent.joinpath(
            "EXPERIMENTS.md").read_text(encoding="utf-8")
        catalog = text.split("## Experiment catalog", 1)[1].split("\n## ", 1)[0]
        listed = set(re.findall(r"^\| `([a-z0-9]+)` \|", catalog,
                                flags=re.MULTILINE))
        assert listed == set(REGISTRY)


class TestQuickRuns:
    """Each driver must complete in quick mode with a sane report."""

    def test_table1(self):
        report = get_experiment("table1")(quick=True)
        assert report.measurements["all_group_imbalance"] < 1.5
        assert len(report.tables) == 2

    def test_table2_exact_latencies(self):
        report = get_experiment("table2")(quick=True)
        assert report.measurements["mismatches"] == 0

    def test_fig3(self):
        report = get_experiment("fig3")(quick=True)
        assert len(report.series) == 6
        for series in report.series:
            assert series.y[0] == pytest.approx(1.0)
        m = report.measurements
        # Paper shape: Ocean scales better than Radix at the top count.
        assert m["ocean_speedup_at_4"] > m["radix_speedup_at_4"]

    def test_fig4(self):
        report = get_experiment("fig4")(quick=True)
        assert len(report.series) == 8  # 4 kernels x 2 panels

    def test_fig5(self):
        report = get_experiment("fig5")(quick=True)
        m = report.measurements
        assert m["best_local_gb_s"] > 0
        # Paper shape: blocked edges out cyclic, the local caches beat
        # both, and unrolling the local-cache loop beats them all.
        assert m["best_blocked_gb_s"] > m["best_cyclic_gb_s"]
        assert m["best_local_gb_s"] > m["best_blocked_gb_s"]
        assert m["best_unrolled_local_gb_s"] > m["best_local_gb_s"]

    def test_fig6(self):
        report = get_experiment("fig6")(quick=True)
        labels = {s.label for s in report.series}
        assert any(l.startswith("cyclops") for l in labels)
        assert any(l.startswith("origin") for l in labels)

    def test_fig7(self):
        report = get_experiment("fig7")(quick=True)
        assert len(report.tables) == 2
        # Paper shape: the hardware barrier beats the software tree.
        deltas = {k: v for k, v in report.measurements.items()
                  if k.endswith("_total_delta_pct")}
        assert deltas
        assert all(v < 0 for v in deltas.values()), deltas

    def test_sampling(self):
        report = get_experiment("sampling")(quick=True)
        m = report.measurements
        assert abs(m["worst_error_pct"]) <= 2.0
        assert m["stream_state_matches"] == 1.0
        assert m["fft_state_matches"] == 1.0
        assert m["stream_speedup"] > 1.0
        assert not any(n.startswith(("TOLERANCE", "STATE"))
                       for n in report.notes)

    def test_render_is_text(self):
        report = get_experiment("table1")(quick=True)
        text = report.render()
        assert "table1" in text
        assert "Paper:" in text


class TestRunnerCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig7" in out and "table2" in out

    def test_run_one(self, capsys):
        assert main(["run", "table1", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Interest group" in out

    def test_run_writes_files(self, tmp_path, capsys):
        assert main(["run", "table2", "--quick", "-o", str(tmp_path)]) == 0
        assert (tmp_path / "table2.txt").exists()

    def test_unknown_id_exits_2_listing_known(self, capsys):
        assert main(["run", "nope"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment 'nope'" in err
        # The known ids are printed so the user can correct the typo.
        assert "table2" in err and "fig7" in err

    def test_bad_worker_count_exits_2(self, capsys):
        assert main(["run", "table2", "-j", "0"]) == 2
        assert "-j must be >= 1" in capsys.readouterr().err

    def test_sampled_flag_rejects_jobs(self, capsys):
        assert main(["run", "table2", "--sampled", "-j", "2"]) == 2
        assert "--sampled requires serial" in capsys.readouterr().err

    def test_sanitize_report_requires_sanitize(self, tmp_path, capsys):
        report_path = tmp_path / "findings.json"
        assert main(["run", "table2", "--quick", "--sanitize-report",
                     str(report_path)]) == 2
        assert "--sanitize-report requires --sanitize" \
            in capsys.readouterr().err
        assert not report_path.exists()

    def test_sampled_flag_sets_and_restores_env(self, capsys, monkeypatch):
        import os

        from repro.experiments import registry, runner
        from repro.experiments.registry import ExperimentReport

        seen = {}

        def probe(quick=False):
            seen["env"] = os.environ.get("CYCLOPS_SAMPLE")
            return ExperimentReport(experiment_id="probe", title="p",
                                    paper="p")

        fake = {"probe": probe}
        monkeypatch.setattr(registry, "REGISTRY", fake)
        monkeypatch.setattr(runner, "REGISTRY", fake)
        monkeypatch.delenv("CYCLOPS_SAMPLE", raising=False)
        assert main(["run", "probe", "--sampled", "period=16384"]) == 0
        capsys.readouterr()
        assert seen["env"] == "period=16384"
        assert "CYCLOPS_SAMPLE" not in os.environ

    def test_run_all_reports_failures_at_end(self, capsys, monkeypatch):
        """One broken driver no longer aborts the whole batch."""
        from repro.experiments import registry, runner

        calls = []

        def broken(quick=False):
            calls.append("broken")
            raise RuntimeError("induced driver failure")

        def healthy(quick=False):
            calls.append("healthy")
            return registry.ExperimentReport(
                experiment_id="zz_ok", title="ok", paper="-")

        fake = {"aa_broken": broken, "zz_ok": healthy}
        monkeypatch.setattr(registry, "REGISTRY", fake)
        monkeypatch.setattr(runner, "REGISTRY", fake)
        assert main(["run", "all", "--quick"]) == 1
        captured = capsys.readouterr()
        # The failing driver ran first yet the healthy one still ran.
        assert calls == ["broken", "healthy"]
        assert "zz_ok" in captured.out
        assert "1 of 2" in captured.err and "aa_broken" in captured.err
        assert "induced driver failure" in captured.err


class TestRunnerJobsMode:
    """The JobRunner path: pooled and inline runs, caching, diffable JSON."""

    def test_quick_json_omits_elapsed(self, tmp_path, capsys):
        path = tmp_path / "quick.json"
        assert main(["run", "table2", "--quick", "--json", str(path)]) == 0
        capsys.readouterr()
        entry = json.loads(path.read_text())["table2"]
        assert "elapsed_seconds" not in entry
        assert entry["quick"] is True

    def test_full_json_keeps_elapsed(self, tmp_path, capsys):
        path = tmp_path / "full.json"
        # table2 is latency microbenchmarks — fast even at full scale.
        assert main(["run", "table2", "--json", str(path)]) == 0
        capsys.readouterr()
        entry = json.loads(path.read_text())["table2"]
        assert entry["elapsed_seconds"] >= 0
        assert entry["quick"] is False

    def test_jobs_mode_matches_serial_and_caches(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS_CACHE_DIR",
                           str(tmp_path / "cache"))
        serial = tmp_path / "serial.json"
        cold = tmp_path / "cold.json"
        warm = tmp_path / "warm.json"
        assert main(["run", "table2", "--quick", "--json",
                     str(serial)]) == 0
        assert main(["run", "table2", "--quick", "-j", "2", "--json",
                     str(cold)]) == 0
        assert main(["run", "table2", "--quick", "-j", "2", "--json",
                     str(warm)]) == 0
        capsys.readouterr()
        serial_doc = json.loads(serial.read_text())
        cold_doc = json.loads(cold.read_text())
        warm_doc = json.loads(warm.read_text())
        assert serial_doc["table2"] == cold_doc["table2"] \
            == warm_doc["table2"]
        assert cold_doc["_jobs"]["cache_hits"] == 0
        assert warm_doc["_jobs"]["cache_hits"] \
            == warm_doc["_jobs"]["submitted"]

    @pytest.mark.parametrize("experiment_id", ["table2", "fig3"])
    def test_plain_run_is_inline_and_cache_free(
            self, experiment_id, tmp_path, capsys, monkeypatch):
        """Without -j, plain and fan-out experiments alike go through the
        inline JobRunner(): jobs are counted, the cache is never touched."""
        cache_dir = tmp_path / "cache"
        monkeypatch.setenv("REPRO_JOBS_CACHE_DIR", str(cache_dir))
        path = tmp_path / "plain.json"
        assert main(["run", experiment_id, "--quick", "--json",
                     str(path)]) == 0
        capsys.readouterr()
        document = json.loads(path.read_text())
        assert experiment_id in document
        stats = document["_jobs"]
        assert stats["submitted"] >= 1
        assert stats["cache_hits"] == stats["cache_misses"] == 0
        assert not cache_dir.exists()
