"""Unit tests for the command-line interface."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "repro" in capsys.readouterr().out


class TestDatasets:
    def test_lists_all_profiles(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for name in ("movielens-sim", "sift-sim", "deep-sim"):
            assert name in out


class TestBuildInfoQuery:
    @pytest.fixture(scope="class")
    def snapshot(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli") / "index.npz"
        code = main(
            [
                "build",
                "movielens-sim",
                "-o",
                str(path),
                "--max-items",
                "400",
                "--leaf-size",
                "100",
            ]
        )
        assert code == 0
        return path

    def test_build_creates_snapshot(self, snapshot, capsys):
        assert snapshot.exists()

    def test_info_describes_snapshot(self, snapshot, capsys):
        assert main(["info", str(snapshot)]) == 0
        out = capsys.readouterr().out
        assert "400" in out
        assert "blocks" in out
        assert "S_L=100" in out

    def test_query_runs(self, snapshot, capsys):
        code = main(
            [
                "query",
                str(snapshot),
                "--dataset",
                "movielens-sim",
                "-k",
                "3",
                "-n",
                "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "query 0" in out
        assert "query 1" in out
        assert "d=" in out

    def test_query_dim_mismatch_fails(self, snapshot, capsys):
        code = main(
            ["query", str(snapshot), "--dataset", "sift-sim", "-n", "1"]
        )
        assert code == 2
        assert "dim" in capsys.readouterr().err

    def test_build_with_ivf_backend(self, tmp_path, capsys):
        path = tmp_path / "ivf.npz"
        code = main(
            [
                "build",
                "movielens-sim",
                "-o",
                str(path),
                "--max-items",
                "200",
                "--leaf-size",
                "50",
                "--backend",
                "ivf",
            ]
        )
        assert code == 0
        assert main(["info", str(path)]) == 0
        assert "backend=ivf" in capsys.readouterr().out


class TestExplain:
    def test_explain_renders_a_multi_block_trace(self, capsys):
        code = main(
            [
                "explain",
                "--n",
                "1000",
                "--dim",
                "8",
                "--leaf-size",
                "125",
                "--fraction",
                "0.4",
                "-k",
                "5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "TkNN query: k=5" in out
        assert "block selection walk:" in out
        assert "block searches:" in out
        # The centered window straddles the root midpoint, so the walk
        # must descend and select at least two blocks.
        assert out.count("SELECT") >= 2
        assert "tau=" in out
        assert "merge: kept" in out

    def test_explain_metrics_flag_dumps_registry(self, capsys):
        code = main(
            [
                "explain",
                "--n",
                "600",
                "--dim",
                "8",
                "--leaf-size",
                "100",
                "--metrics",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "process metrics registry:" in out
        assert "mbi_search_queries_total" in out


class TestServiceCommands:
    def test_ingest_writes_durable_state(self, tmp_path, capsys):
        code = main(
            [
                "ingest",
                "--data-dir", str(tmp_path / "svc"),
                "--n", "120",
                "--dim", "6",
                "--leaf-size", "32",
                "--fsync", "never",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ingested 120 records" in out
        names = sorted(p.name for p in (tmp_path / "svc").iterdir())
        assert "snapshot-000000000120.npz" in names
        assert "wal-000000000120.log" in names

    def test_ingest_resumes_where_it_stopped(self, tmp_path, capsys):
        args = [
            "ingest",
            "--data-dir", str(tmp_path / "svc"),
            "--dim", "6",
            "--leaf-size", "32",
            "--fsync", "never",
        ]
        assert main(args + ["--n", "200", "--max-items", "80"]) == 0
        capsys.readouterr()
        assert main(args + ["--n", "200"]) == 0
        out = capsys.readouterr().out
        assert "resuming: 80 records already durable" in out
        assert "200 records durable" in out

    def test_ingest_no_final_snapshot_leaves_wal_only(self, tmp_path):
        assert (
            main(
                [
                    "ingest",
                    "--data-dir", str(tmp_path / "svc"),
                    "--n", "50",
                    "--dim", "4",
                    "--leaf-size", "32",
                    "--fsync", "never",
                    "--no-final-snapshot",
                ]
            )
            == 0
        )
        names = [p.name for p in (tmp_path / "svc").iterdir()]
        assert not any(n.startswith("snapshot-") for n in names)
        assert "wal-000000000000.log" in names

    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve", "--data-dir", "/tmp/x"])
        assert args.host == "127.0.0.1"
        assert args.port == 8780
        assert args.fsync == "always"
        assert args.max_queue == 1024
        assert args.timeout is None

    def test_service_commands_require_data_dir(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["ingest"])
        capsys.readouterr()


class TestErrors:
    def test_unknown_dataset_is_a_clean_error(self, capsys):
        code = main(["build", "imagenet", "-o", "/tmp/x.npz"])
        assert code == 1
        assert "unknown dataset" in capsys.readouterr().err

    def test_missing_snapshot_is_a_clean_error(self, capsys):
        code = main(["info", "/nonexistent/snapshot.npz"])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestChaos:
    def test_sweep_runs_and_reports(self, capsys):
        argv = [
            "chaos",
            "--crash-seeds", "3",
            "--diff-seeds", "1",
            "--shard-seeds", "2",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "crash seed 0: ok" in out
        assert "crash seed 2: ok" in out
        assert "diff  seed 0: ok" in out
        assert "shard seed 1: ok" in out
        assert "3 crash + 1 differential + 2 shard schedules passed" in out

    def test_single_seed_reproduction_mode(self, capsys):
        assert main(["chaos", "--crash-seed", "4"]) == 0
        out = capsys.readouterr().out
        assert "crash seed 4: ok" in out
        assert "1 crash + 0 differential" in out

    def test_chaos_failure_is_a_clean_error(self, capsys, monkeypatch):
        import repro.chaos as chaos
        from repro.chaos import ChaosInvariantError

        def boom(seed, data_dir):
            raise ChaosInvariantError(f"chaos seed {seed}: boom")

        # _cmd_chaos imports from repro.chaos at call time, so the patched
        # runner is what the sweep executes.
        monkeypatch.setattr(chaos, "run_crash_scenario", boom)
        code = main(["chaos", "--crash-seeds", "1", "--diff-seeds", "0"])
        assert code == 1
        assert "chaos seed 0: boom" in capsys.readouterr().err
