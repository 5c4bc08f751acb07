"""Tests for the workload command-line runner."""

import pytest

from repro.workloads.runner import main


class TestWorkloadCli:
    def test_stream(self, capsys):
        assert main(["stream", "--kernel", "copy", "--threads", "4",
                     "--elements", "512"]) == 0
        out = capsys.readouterr().out
        assert "GB/s" in out
        assert "verified=True" in out

    def test_stream_with_utilization(self, capsys):
        assert main(["stream", "--threads", "4", "--elements", "512",
                     "--utilization"]) == 0
        out = capsys.readouterr().out
        assert "Chip utilization" in out
        assert "memory banks busy" in out

    def test_fft(self, capsys):
        assert main(["fft", "--points", "64", "--threads", "4"]) == 0
        out = capsys.readouterr().out
        assert "verified=True" in out

    @pytest.mark.parametrize("argv", [
        ["lu", "--n", "16", "--threads", "2"],
        ["radix", "--keys", "512", "--threads", "2"],
        ["ocean", "--grid", "18", "--threads", "2"],
        ["barnes", "--bodies", "64", "--threads", "2"],
        ["fmm", "--bodies", "64", "--levels", "2", "--threads", "2"],
        ["md", "--particles", "64", "--threads", "2"],
        ["raytrace", "--width", "8", "--height", "8", "--threads", "2"],
        ["dgemm", "--n", "16", "--threads", "2"],
        ["dgemm", "--n", "16", "--threads", "2", "--no-scratchpad"],
    ])
    def test_every_workload_runs_and_verifies(self, argv, capsys):
        assert main(argv) == 0
        assert "verified=True" in capsys.readouterr().out

    def test_balanced_policy_flag(self, capsys):
        assert main(["md", "--particles", "64", "--threads", "4",
                     "--policy", "balanced"]) == 0
        assert "verified=True" in capsys.readouterr().out

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            main(["make-coffee"])

    def test_sanitize_report_requires_sanitize(self, tmp_path, capsys):
        report_path = tmp_path / "findings.json"
        assert main(["stream", "--threads", "4", "--elements", "512",
                     "--sanitize-report", str(report_path)]) == 2
        assert "--sanitize-report requires --sanitize" \
            in capsys.readouterr().err
        assert not report_path.exists()
