"""Tests for the command-line interface."""

import pytest

from repro.cli import ABLATIONS, FIGURES, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0

    def test_registries_populated(self):
        assert len(FIGURES) == 14
        assert len(ABLATIONS) == 16
        assert "cache_hit_ratio" in ABLATIONS


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "color staircase" in out
        assert "SIGMOD 1997" in out

    def test_figures_list(self, capsys):
        assert main(["figures", "--list"]) == 0
        out = capsys.readouterr().out
        for name in FIGURES:
            assert name in out

    def test_ablations_list(self, capsys):
        assert main(["ablations", "--list"]) == 0
        out = capsys.readouterr().out
        assert "neighbor_depth" in out

    def test_unknown_experiment(self, capsys):
        assert main(["figures", "--run", "fig99"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_run_analytic_figure(self, capsys):
        assert main(["figures", "--run", "fig08"]) == 0
        out = capsys.readouterr().out
        assert "disk assignment graph" in out

    def test_run_scaled_figure_writes_output(self, capsys, tmp_path):
        assert main([
            "figures", "--run", "fig02", "--scale", "0.05",
            "--out", str(tmp_path),
        ]) == 0
        assert (tmp_path / "fig02.txt").exists()
        assert "round-robin" in (tmp_path / "fig02.txt").read_text()

    def test_run_ablation(self, capsys):
        assert main(["ablations", "--run", "engine_modes",
                     "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "coordinated" in out


class TestObservabilityCommands:
    SMALL = ["--d", "4", "--disks", "4", "--n", "200", "--queries", "2"]

    def test_trace_emits_jsonl(self, capsys):
        import json

        assert main(["trace", "--scheme", "col", *self.SMALL]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        records = [json.loads(line) for line in lines]
        assert records[0]["kind"] == "query_start"
        assert any(r["kind"] == "page_read" for r in records)
        assert records[-1]["kind"] == "query_end"

    def test_trace_csv_to_file(self, capsys, tmp_path):
        out = tmp_path / "trace.csv"
        assert main(["trace", *self.SMALL, "--format", "csv",
                     "--out", str(out)]) == 0
        assert out.read_text().startswith("seq,t_ms,kind,")

    def test_trace_accepts_scheme_alias_and_cache(self, capsys):
        assert main(["trace", "--scheme", "RR", "--engine", "item",
                     "--cache-pages", "8", *self.SMALL]) == 0
        assert "cache_miss" in capsys.readouterr().out

    def test_unknown_scheme_is_rejected_cleanly(self, capsys):
        assert main(["trace", "--scheme", "nonsense", *self.SMALL]) == 2
        assert "unknown declustering scheme" in capsys.readouterr().err
        assert main(["stats", "--scheme", "nonsense", *self.SMALL]) == 2
        assert "unknown declustering scheme" in capsys.readouterr().err

    @pytest.mark.parametrize("pages", ["0", "8"])
    @pytest.mark.parametrize("command", ["trace", "stats"])
    def test_process_engine_rejects_cache_pages(self, command, pages, capsys):
        """The process engine is cacheless: any ``--cache-pages``, even
        0, is a usage error."""
        assert main([command, "--engine", "process",
                     "--cache-pages", pages, *self.SMALL]) == 2
        assert "cacheless" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags", [["--store", "mmap"], ["--engine", "process"]],
        ids=["mmap", "process"],
    )
    def test_out_of_core_trace_matches_memory_and_cleans_up(
        self, flags, capsys, tmp_path, monkeypatch
    ):
        """The out-of-core runs spill the store to a temporary directory:
        they trace the memory store's page counts and leave nothing
        behind."""
        import json
        import multiprocessing.util
        import tempfile

        def pages_per_disk(extra):
            assert main(["trace", *self.SMALL, *extra]) == 0
            lines = capsys.readouterr().out.strip().splitlines()
            totals = [0] * 4
            for record in map(json.loads, lines):
                if record["kind"] == "page_read":
                    totals[record["disk"]] += record["pages"]
            return totals

        # The process engine's fork server keeps its socket in
        # multiprocessing's per-process temporary directory until exit:
        # made here, outside tmp_path, as the first engine would.
        multiprocessing.util.get_temp_dir()
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        expected = pages_per_disk([])
        assert sum(expected) > 0
        assert pages_per_disk(flags) == expected
        assert list(tmp_path.iterdir()) == []

    def test_stats_table(self, capsys):
        assert main(["stats", *self.SMALL]) == 0
        out = capsys.readouterr().out
        assert "pages_read_total" in out
        assert "queries_total" in out

    def test_stats_json_to_file(self, capsys, tmp_path):
        import json

        out = tmp_path / "metrics.json"
        assert main(["stats", *self.SMALL, "--format", "json",
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["counters"]["queries_total"] == 2

    def test_figures_trace_out(self, capsys, tmp_path):
        out = tmp_path / "run.jsonl"
        assert main(["figures", "--run", "fig02", "--scale", "0.05",
                     "--trace-out", str(out)]) == 0
        assert out.exists()
        assert "trace events written" in capsys.readouterr().out


class TestServeArguments:
    """``serve`` and ``loadgen`` take any k >= 1 with the process engine
    and refuse bad arguments with ``error:`` and exit 2."""

    PROCESS = ["--engine", "process", "--d", "4", "--disks", "2",
               "--n", "300", "--requests", "4"]

    def test_serve_process_engine_past_k_64(
        self, capsys, tmp_path, monkeypatch
    ):
        import tempfile

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        assert main(["serve", *self.PROCESS, "--k", "100"]) == 0
        assert "4 requests" in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []

    def test_loadgen_process_engine_past_k_64(self, capsys):
        assert main(["loadgen", *self.PROCESS, "--k", "100",
                     "--schemes", "col", "--rates", "200"]) == 0
        assert "p99_ms" in capsys.readouterr().out

    def test_serve_refuses_k_0(self, capsys):
        assert main(["serve", "--n", "64", "--k", "0"]) == 2
        assert "error: k must be >= 1" in capsys.readouterr().err

    def test_serve_refuses_no_closed_loop_clients(self, capsys):
        assert main(["serve", "--n", "64", "--arrivals", "closed",
                     "--clients", "0"]) == 2
        assert "error: --clients must be >= 1" in capsys.readouterr().err
