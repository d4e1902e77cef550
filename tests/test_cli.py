"""Tests for the command-line interface (repro.cli)."""

from __future__ import annotations

import pytest

from repro.cli.main import build_parser, main


class TestParser:
    def test_list_command_parses(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_command_parses_options(self):
        args = build_parser().parse_args(
            ["run", "fig1a-star", "--seed", "3", "--trials", "2", "--scale", "0.5"]
        )
        assert args.experiment_id == "fig1a-star"
        assert args.seed == 3
        assert args.trials == 2
        assert args.scale == 0.5

    def test_simulate_command_parses(self):
        args = build_parser().parse_args(
            ["simulate", "push", "star", "100", "--source", "2"]
        )
        assert args.protocol == "push"
        assert args.family == "star"
        assert args.size == 100

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_store_flags_parse(self):
        args = build_parser().parse_args(
            ["run", "fig1a-star", "--store", "/tmp/s", "--force"]
        )
        assert args.store == "/tmp/s"
        assert args.force
        bare = build_parser().parse_args(["run", "fig1a-star", "--store"])
        assert bare.store == ""
        off = build_parser().parse_args(["run", "fig1a-star", "--no-store"])
        assert off.no_store

    def test_store_subcommand_parses(self):
        args = build_parser().parse_args(["store", "--store", "/tmp/s", "ls"])
        assert args.command == "store"
        assert args.store_command == "ls"
        assert args.store_path == "/tmp/s"
        gc = build_parser().parse_args(["store", "gc", "--keep-days", "2", "--dry-run"])
        assert gc.keep_days == 2.0
        assert gc.dry_run
        assert gc.max_bytes is None

    def test_store_serve_and_url_flags_parse(self):
        args = build_parser().parse_args(
            ["store", "--store", "http://hub:8080", "serve", "--host", "0.0.0.0", "--port", "9999"]
        )
        assert args.store_command == "serve"
        assert args.store_path == "http://hub:8080"
        assert (args.host, args.port) == ("0.0.0.0", 9999)
        gc = build_parser().parse_args(["store", "gc", "--max-bytes", "500M"])
        assert gc.max_bytes == 500 * 1024**2

    #: One command line per sub-command exercising every flag it accepts.
    FULL_COMMAND_LINES = {
        "list": ["list"],
        "run": [
            "run", "fig1a-star", "--scenario", "m.yaml#s", "--seed", "3", "--trials", "2",
            "--scale", "0.5", "--markdown", "--workers", "2",
            "--dynamics", "bernoulli-edges:rate=0.1", "--store", "/tmp/s", "--no-store",
            "--force",
        ],
        "run-all": [
            "run-all", "--scenario", "m.yaml", "--seed", "3", "--trials", "2", "--scale", "0.5",
            "--workers", "2", "--dynamics", "bernoulli-edges:rate=0.1", "--store", "/tmp/s",
            "--no-store", "--force",
        ],
        "simulate": [
            "simulate", "push", "star", "100", "--source", "2", "--seed", "3",
            "--agent-density", "2.0", "--trials", "4",
            "--dynamics", "bernoulli-edges:rate=0.1", "--store", "/tmp/s", "--no-store",
            "--force",
        ],
        "report": [
            "report", "--scenario", "m.yaml", "--seed", "3", "--trials", "2", "--scale", "0.5",
            "--output", "out.md", "--from-store", "--only", "coupling", "--serve",
            "--host", "0.0.0.0", "--port", "0", "--dynamics", "bernoulli-edges:rate=0.1",
            "--store", "/tmp/s", "--no-store", "--force",
        ],
        "corpus run": [
            "corpus", "run", "m.yaml", "--seed", "3", "--only", "a", "b", "--workers", "2",
            "--store", "/tmp/s", "--no-store", "--force",
        ],
        "corpus status": ["corpus", "status", "m.yaml", "--seed", "3", "--store", "/tmp/s"],
        "corpus report": [
            "corpus", "report", "m.yaml", "--seed", "3", "--store", "/tmp/s",
            "--output", "out.md", "--strict", "--serve", "--host", "0.0.0.0", "--port", "0",
        ],
        "store serve": [
            "store", "--store", "/tmp/s", "serve", "--host", "0.0.0.0", "--port", "0",
            "--token", "t", "--lease-ttl", "5",
        ],
        "store submit": [
            "store", "--store", "http://hub:1", "submit", "fig1a-star", "--seed", "3",
            "--trials", "2", "--scale", "0.5", "--token", "t",
            "--dynamics", "bernoulli-edges:rate=0.1",
        ],
        "store status": ["store", "--store", "http://hub:1", "status", "abc", "--token", "t"],
        "store ls": ["store", "--store", "/tmp/s", "ls"],
        "store info": ["store", "info", "abc"],
        "store gc": [
            "store", "gc", "--keep-days", "2", "--max-bytes", "1M", "--all", "--dry-run",
        ],
        "store export": ["store", "export", "/tmp/d", "--keys", "a", "b"],
        "worker": [
            "worker", "http://hub:1", "abc", "--token", "t", "--name", "w", "--store", "/tmp/c",
            "--poll-interval", "0.5", "--hub-patience", "3", "--max-cells", "2",
        ],
        "trace summary": ["trace", "summary", "a.jsonl"],
        "trace export": ["trace", "export", "a.jsonl", "--chrome", "--output", "t.json"],
    }

    @pytest.mark.parametrize("name", sorted(FULL_COMMAND_LINES))
    def test_every_subcommand_parses_all_its_flags(self, name):
        argv = self.FULL_COMMAND_LINES[name]
        args = build_parser().parse_args(argv)
        assert args.command == argv[0]
        if "--seed" in argv:
            assert args.seed == 3
        if "--trials" in argv:
            assert args.trials == int(argv[argv.index("--trials") + 1])
        if "--workers" in argv:
            assert args.workers == 2
        if "--store" in argv:
            store = args.cache if name == "worker" else getattr(
                args, "store_path", getattr(args, "store", None)
            )
            assert store == argv[argv.index("--store") + 1]

    @pytest.mark.parametrize(
        "name", ["run", "run-all", "simulate", "report", "corpus run", "store submit"]
    )
    def test_backend_flag_is_gone(self, name):
        argv = self.FULL_COMMAND_LINES[name]
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv + ["--backend", "batched"])

    def test_simulate_workers_flag_is_gone(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "push", "star", "10", "--workers", "2"])

    def test_worker_cache_alias_is_gone(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["worker", "http://hub:1", "abc", "--cache", "/tmp/c"])

    def test_parse_byte_size(self):
        from repro.cli.main import parse_byte_size

        assert parse_byte_size("1234") == 1234
        assert parse_byte_size("4K") == 4096
        assert parse_byte_size("1.5m") == int(1.5 * 1024**2)
        assert parse_byte_size("2G") == 2 * 1024**3
        with pytest.raises(Exception):
            parse_byte_size("lots")
        with pytest.raises(Exception):
            parse_byte_size("-1")
        with pytest.raises(Exception):
            parse_byte_size("inf")  # OverflowError must not escape argparse

    def test_unknown_protocol_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "gossip-9000", "star", "10"])


class TestCommands:
    def test_list_outputs_experiment_ids(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "fig1a-star" in output
        assert "thm1-regular-random" in output

    def test_simulate_star(self, capsys):
        assert main(["simulate", "push-pull", "star", "30", "--source", "1"]) == 0
        output = capsys.readouterr().out
        assert "broadcast time" in output

    def test_simulate_visit_exchange_reports_agents(self, capsys):
        assert (
            main(
                [
                    "simulate",
                    "visit-exchange",
                    "double-star",
                    "40",
                    "--source",
                    "2",
                    "--agent-density",
                    "2.0",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "agents = 80" in output

    def test_simulate_random_regular_uses_the_experiments_degree_rule(self, capsys):
        # n=4 clamps to d=3 (K4) instead of dying on an impossible d=4.
        assert main(["simulate", "push", "random-regular", "4", "--no-store"]) == 0
        assert "random_regular(n=4, d=3)" in capsys.readouterr().out
        # n=1000 gets the experiments' ceil(2 log2 n) = 20, not a floored 19.
        assert main(["simulate", "push", "random-regular", "1000", "--no-store"]) == 0
        assert "random_regular(n=1000, d=20)" in capsys.readouterr().out

    def test_simulate_every_family_builds(self, capsys):
        families_and_sizes = [
            ("star", "20"),
            ("double-star", "20"),
            ("heavy-binary-tree", "15"),
            ("siamese-heavy-tree", "15"),
            ("cycle-stars-cliques", "3"),
            ("complete", "12"),
            ("hypercube", "4"),
            ("random-regular", "16"),
        ]
        for family, size in families_and_sizes:
            assert main(["simulate", "push-pull", family, size]) == 0

    def test_run_scaled_experiment(self, capsys):
        assert (
            main(["run", "fig1a-star", "--scale", "0.1", "--trials", "1"]) == 0
        )
        output = capsys.readouterr().out
        assert "Star graph" in output

    def test_run_with_store_then_store_ls_and_info(self, capsys, tmp_path):
        store_path = str(tmp_path / "store")
        run_args = [
            "run", "fig1a-star", "--scale", "0.1", "--trials", "1",
            "--store", store_path,
        ]
        assert main(run_args) == 0
        first = capsys.readouterr().out
        assert main(run_args) == 0  # warm rerun: pure cache hits
        second = capsys.readouterr().out
        assert first == second

        assert main(["store", "--store", store_path, "ls"]) == 0
        listing = capsys.readouterr().out
        assert "push-pull" in listing

        key_prefix = listing.splitlines()[3].split()[0]
        assert main(["store", "--store", store_path, "info", key_prefix]) == 0
        info = capsys.readouterr().out
        assert '"fingerprint"' in info

    def test_store_gc_and_export_commands(self, capsys, tmp_path):
        store_path = str(tmp_path / "store")
        assert main([
            "run", "fig1a-star", "--scale", "0.1", "--trials", "1",
            "--store", store_path,
        ]) == 0
        capsys.readouterr()
        destination = str(tmp_path / "copy")
        assert main(["store", "--store", store_path, "export", destination]) == 0
        assert "exported" in capsys.readouterr().out
        assert main(["store", "--store", destination, "gc", "--all"]) == 0
        assert "deleted" in capsys.readouterr().out

    def test_store_gc_max_bytes_command(self, capsys, tmp_path):
        store_path = str(tmp_path / "store")
        assert main([
            "run", "fig1a-star", "--scale", "0.1", "--trials", "1",
            "--store", store_path,
        ]) == 0
        capsys.readouterr()
        # The sweep's cells are journal-referenced, so the LRU budget keeps
        # them pinned even at a zero-byte budget.
        assert main(["store", "--store", store_path, "gc", "--max-bytes", "0"]) == 0
        assert "deleted 0 object(s)" in capsys.readouterr().out
        assert main([
            "store", "--store", store_path, "gc", "--max-bytes", "0", "--all",
        ]) == 0
        out = capsys.readouterr().out
        assert "deleted" in out and "deleted 0" not in out

    def test_store_serve_rejects_url_roots(self, capsys):
        assert main(["store", "--store", "http://127.0.0.1:1", "serve"]) == 2
        assert "local store root" in capsys.readouterr().err

    def test_store_info_unknown_key_fails(self, capsys, tmp_path):
        assert main(["store", "--store", str(tmp_path / "s"), "info", "feed"]) == 1

    def test_report_from_store_conflicts_with_no_store(self, capsys):
        assert main(["report", "--from-store", "--no-store"]) == 2
        assert "--no-store" in capsys.readouterr().err

    def test_run_markdown_mode(self, capsys):
        assert (
            main(
                ["run", "fig1b-double-star", "--scale", "0.1", "--trials", "1", "--markdown"]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert output.startswith("### `fig1b-double-star`")

    def test_run_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            main(["run", "unknown-experiment"])
