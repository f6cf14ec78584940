"""CLI tests (python -m repro)."""

import pytest

from repro.cli import build_parser, main


#: The option surface of every subcommand at PR 17, in ``--help`` order:
#: (option strings, dest, default, type, choices, required, help).  A raw
#: ``--help`` golden would differ across the CI Python matrix; this is the
#: data argparse renders it from.
OPTION_SURFACE = {
    "analyze": [
        (("query",), "query", None, None, None, True, "query text, e.g. 'R([A],[B]) ∧ S([B],[C])'"),
        (("--no-widths",), "no_widths", False, None, None, False, "skip the width computation"),
    ],
    "evaluate": [
        (("query",), "query", None, None, None, True,
         "one or more query texts; a batch shares one session cache"),
        (("--query-file",), "query_file", None, None, None, False,
         "read additional queries from FILE, one per line; lines starting with SELECT "
         "are parsed as SQL, the rest as conjunction syntax (blank lines and #-comments "
         "skipped)"),
        (("--n",), "n", 50, "int", None, False, "tuples per relation"),
        (("--seed",), "seed", 0, "int", None, False, None),
        (("--repeat",), "repeat", 1, "int", None, False,
         "evaluate the batch this many times (cold vs warm cache)"),
        (("--workload",), "workload", "random", None, ("points", "random", "temporal"), False,
         None),
        (("--count",), "count", False, None, None, False, "also count witnesses"),
        (("--check",), "check", False, None, None, False,
         "cross-check against the naive oracle (small n only)"),
        (("--cache-dir",), "cache_dir", None, None, None, False,
         "persistent reduction cache directory: reductions are content-addressed on disk"
         " and shared across runs, so a warm re-run performs zero forward reductions"),
        (("--cache-max-bytes",), "cache_max_bytes", None, "int", None, False,
         "cap the persistent cache directory at this many bytes; least-recently-used "
         "entries are evicted after each store (requires --cache-dir)"),
        (("--profile",), "profile", False, None, None, False,
         "print a per-phase timing breakdown (canonicalize / reduce / evaluate / "
         "cache-I/O) from the session's timing stats"),
    ],
    "sql": [
        (("sql",), "sql", None, None, None, True,
         "SQL text, e.g. \"SELECT COUNT(*) FROM R r, S s WHERE r.t OVERLAPS s.t\""),
        (("--n",), "n", 50, "int", None, False, "tuples per relation"),
        (("--seed",), "seed", 0, "int", None, False, None),
        (("--workload",), "workload", "random", None, ("points", "random", "temporal"), False,
         None),
        (("--explain",), "explain", False, None, None, False,
         "print the optimizer's per-disjunct plan instead of running"),
        (("--check",), "check", False, None, None, False,
         "cross-check against the strategy-free naive oracle"),
    ],
    "reduce": [
        (("query",), "query", None, None, None, True, None),
        (("--n",), "n", 50, "int", None, False, None),
        (("--seed",), "seed", 0, "int", None, False, None),
    ],
    "catalog": [
    ],
    "serve": [
        (("query",), "query", None, None, None, True, "queries defining the served schema"),
        (("--n",), "n", 50, "int", None, False, "tuples per relation"),
        (("--seed",), "seed", 0, "int", None, False, None),
        (("--workload",), "workload", "random", None, ("points", "random", "temporal"), False,
         None),
        (("--workers",), "workers", 4, "int", None, False, "worker processes"),
        (("--host",), "host", "127.0.0.1", None, None, False, None),
        (("--port",), "port", 0, "int", None, False,
         "TCP port (0 binds an ephemeral port, printed on startup)"),
        (("--cache-dir",), "cache_dir", None, None, None, False,
         "shared persistent reduction cache for the worker pool"),
        (("--cache-max-bytes",), "cache_max_bytes", None, "int", None, False, None),
        (("--max-inflight",), "max_inflight", 64, "int", None, False,
         "admitted-but-unanswered request bound (backpressure above)"),
        (("--deadline-ms",), "deadline_ms", 30000.0, "float", None, False,
         "default per-request deadline"),
    ],
    "loadgen": [
        (("query",), "query", None, None, None, True,
         "base queries; requests are isomorphic variants of these"),
        (("--host",), "host", "127.0.0.1", None, None, False, None),
        (("--port",), "port", None, "int", None, True, None),
        (("--requests",), "requests", 200, "int", None, False, None),
        (("--mode",), "mode", "closed", None, ("closed", "open"), False, None),
        (("--concurrency",), "concurrency", 8, "int", None, False,
         "virtual users (closed-loop mode)"),
        (("--rate",), "rate", 100.0, "float", None, False,
         "arrival rate in req/s (open-loop mode)"),
        (("--connections",), "connections", 8, "int", None, False,
         "pipelined connections (open-loop mode)"),
        (("--variants",), "variants", 10, "int", None, False,
         "isomorphic variants generated per base query"),
        (("--count-fraction",), "count_fraction", 0.0, "float", None, False, None),
        (("--mutate-fraction",), "mutate_fraction", 0.0, "float", None, False, None),
        (("--seed",), "seed", 0, "int", None, False, None),
        (("--domain",), "domain", 1000.0, "float", None, False,
         "value domain for generated mutation tuples"),
        (("--out",), "out", None, None, None, False, "also write the full report as JSON"),
        (("--tenants",), "tenants", None, None, None, False,
         "comma-separated tenant names: each request is stamped with one, for driving a "
         "router-tier server"),
        (("--direct",), "direct", False, None, None, False,
         "learn the coordinator's ring and dial the owning shard directly for "
         "evaluate/count traffic (falls back to the coordinator on remaps and failures)"),
    ],
    "route": [
        (("query",), "query", None, None, None, True,
         "queries whose canonical groups are placed on the ring"),
        (("--shards",), "shards", 2, "int", None, False,
         "ring size (nodes are named shard-0..shard-N-1)"),
        (("--shard-names",), "shard_names", None, None, None, False,
         "explicit comma-separated shard names (overrides --shards)"),
        (("--replicas",), "replicas", 128, "int", None, False,
         "virtual nodes per shard on the ring"),
        (("--variants",), "variants", 0, "int", None, False,
         "also place this many isomorphic variants per query (they collapse onto the "
         "base query's group)"),
        (("--grow",), "grow", 0, "int", None, False,
         "report how many groups remap when N shards join the ring"),
        (("--drop",), "drop", None, None, None, False,
         "report how many groups remap when NAME leaves the ring"),
        (("--seed",), "seed", 0, "int", None, False, "variant-generation seed"),
        (("--serve",), "serve", False, None, None, False,
         "start a live router server instead: shards are in-process worker-pool nodes; "
         "tenants attach over the wire"),
        (("--host",), "host", "127.0.0.1", None, None, False, None),
        (("--port",), "port", 0, "int", None, False,
         "TCP port for --serve (0 binds an ephemeral port)"),
        (("--workers-per-shard",), "workers_per_shard", 1, "int", None, False,
         "worker processes per (shard, tenant) pool under --serve"),
        (("--cache-dir",), "cache_dir", None, None, None, False,
         "shared namespaced reduction cache for every pool (--serve)"),
        (("--max-inflight",), "max_inflight", 64, "int", None, False,
         "admission-control bound for --serve"),
        (("--deadline-ms",), "deadline_ms", 30000.0, "float", None, False,
         "default per-request deadline for --serve"),
        (("--remote-shards",), "remote_shards", None, None, None, False,
         "coordinator mode for --serve: dial these standalone `repro shard` processes "
         "instead of spawning in-process worker pools"),
        (("--health-interval",), "health_interval", None, "float", None, False,
         "ping remote shards this often and fail their in-flight work over to survivors "
         "when one stops answering"),
    ],
    "shard": [
        (("--name",), "name", None, None, None, True, "this node's shard name"),
        (("--listen",), "listen", "127.0.0.1:0", None, None, False,
         "bind address (port 0 binds an ephemeral port, printed)"),
        (("--workers",), "workers", 1, "int", None, False,
         "worker processes per attached tenant on this node"),
        (("--cache-dir",), "cache_dir", None, None, None, False,
         "this node's own reduction cache directory (a coordinator warms it content-"
         "addressed over the wire)"),
        (("--max-inflight",), "max_inflight", 64, "int", None, False, "admission-control bound"),
        (("--deadline-ms",), "deadline_ms", 300000.0, "float", None, False,
         "default per-request deadline (generous: a coordinator ships whole database "
         "snapshots through attach/reload)"),
        (("--max-line-bytes",), "max_line_bytes", 67108864, "int", None, False,
         "largest accepted request frame (generous by default: attach/reload snapshots "
         "and shipped cache entries arrive as single JSON lines)"),
    ],
}


class TestOptionSurface:
    def test_every_subcommand_keeps_its_option_surface(self):
        """The shared options are declared once (``SHARED_OPTIONS``);
        what each of the nine commands *offers* must not have moved."""
        import argparse

        (subparsers,) = [
            action
            for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        assert list(subparsers.choices) == list(OPTION_SURFACE)
        for command, parser in subparsers.choices.items():
            surface = [
                (
                    tuple(action.option_strings) or (action.dest,),
                    action.dest,
                    action.default,
                    getattr(action.type, "__name__", None),
                    tuple(action.choices) if action.choices else None,
                    action.required,
                    action.help,
                )
                for action in parser._actions
                if not isinstance(action, argparse._HelpAction)
            ]
            assert surface == OPTION_SURFACE[command], command


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_analyze_args(self):
        args = build_parser().parse_args(["analyze", "R([A])", "--no-widths"])
        assert args.command == "analyze"
        assert args.no_widths


class TestCommands:
    def test_analyze(self, capsys):
        code = main(["analyze", "R([A],[B]) ∧ S([B],[C]) ∧ T([A],[C])"])
        out = capsys.readouterr().out
        assert code == 0
        assert "ij-width: 3/2" in out
        assert "berge cycle" in out

    def test_analyze_no_widths(self, capsys):
        code = main(["analyze", "R([A],[B]) ∧ S([A],[B])", "--no-widths"])
        out = capsys.readouterr().out
        assert code == 0
        assert "O(N polylog N)" in out

    def test_evaluate_with_check_and_count(self, capsys):
        code = main(
            [
                "evaluate",
                "R([A],[B]) ∧ S([B],[C]) ∧ T([A],[C])",
                "--n", "6", "--seed", "3", "--check", "--count",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Q(D) =" in out
        assert "[OK]" in out
        assert "#witnesses" in out

    def test_evaluate_check_covers_the_count(self, capsys, monkeypatch):
        """Regression: ``--count --check`` printed ``#witnesses``
        without ever comparing it with the oracle."""
        argv = [
            "evaluate", "R([A],[B]) & S([B],[C])",
            "--n", "30", "--count", "--check",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "#witnesses = 8" in out
        assert "naive oracle: 8   [OK]" in out
        monkeypatch.setattr("repro.cli.naive_count", lambda query, db: 7)
        assert main(argv) == 1
        assert "naive oracle: 7   [MISMATCH]" in capsys.readouterr().out

    def test_evaluate_workloads(self, capsys):
        for workload in ["random", "temporal", "points"]:
            code = main(
                [
                    "evaluate", "R([A]) ∧ S([A])",
                    "--n", "10", "--workload", workload,
                ]
            )
            assert code == 0
        assert "Q(D)" in capsys.readouterr().out

    def test_reduce_default_and_factored(self, capsys):
        code = main(
            ["reduce", "R([A],[B]) ∧ S([B],[C]) ∧ T([A],[C])", "--n", "10"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "EJ disjuncts: 8" in out
        # the factored encoding is an ablation beside its benchmark, not
        # a second product path: the flag that selected it is gone
        with pytest.raises(SystemExit) as usage:
            main(
                [
                    "reduce", "R([A],[B]) ∧ S([B],[C]) ∧ T([A],[C])",
                    "--n", "10", "--factored",
                ]
            )
        assert usage.value.code == 2
        assert "--factored" in capsys.readouterr().err

    def test_evaluate_batch_shares_one_reduction(self, capsys):
        code = main(
            [
                "evaluate",
                "R([A],[B]) ∧ S([B],[C]) ∧ T([A],[C])",
                "R([X],[Y]) ∧ S([Y],[Z]) ∧ T([X],[Z])",
                "--n", "8", "--seed", "1",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("Q(D) =") == 2
        assert "session: 1 reductions" in out

    def test_evaluate_batch_rejects_schema_conflicts(self, capsys):
        code = main(
            [
                "evaluate",
                "R([A],[B]) ∧ S([B],[C])",
                "R([A],[B],[C]) ∧ S([C],[D])",
                "--n", "4",
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "incompatible schemas" in captured.err

    def test_evaluate_repeat_reports_warm_cache(self, capsys):
        code = main(
            [
                "evaluate", "R([A],[B]) ∧ S([B],[C]) ∧ T([A],[C])",
                "--n", "8", "--seed", "2", "--repeat", "3",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "cold" in out and "warm" in out
        assert "session: 1 reductions" in out

    def test_catalog(self, capsys):
        code = main(["catalog"])
        out = capsys.readouterr().out
        assert code == 0
        assert "triangle" in out
        assert "NOT iota" in out and "iota" in out

    def test_serve_rejects_cache_max_bytes_without_dir(self, capsys):
        code = main(
            ["serve", "R([A],[B])", "--cache-max-bytes", "1000"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "--cache-max-bytes requires --cache-dir" in captured.err

    def test_serve_rejects_negative_cache_max_bytes(self, capsys, tmp_path):
        code = main(
            [
                "serve", "R([A],[B])",
                "--cache-dir", str(tmp_path),
                "--cache-max-bytes", "-1",
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "non-negative" in captured.err


class TestRoute:
    TRIANGLE = "R([A],[B]) ∧ S([B],[C]) ∧ T([A],[C])"
    PATH2 = "U([A],[B]) ∧ V([B],[C])"

    def test_offline_placement_groups_isomorphic_queries(self, capsys):
        code = main(
            [
                "route", self.TRIANGLE, self.PATH2,
                "--shards", "4", "--variants", "3", "--seed", "7",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        # 2 base queries + 3 isomorphic variants each -> still only 2
        # canonical groups on the ring
        assert "2 canonical groups" in captured.out
        assert "shard-" in captured.out

    def test_grow_reports_remap_share(self, capsys):
        code = main(
            ["route", self.TRIANGLE, self.PATH2, "--shards", "4", "--grow", "1"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "remaps" in captured.out

    def test_drop_unknown_shard_is_an_error(self, capsys):
        code = main(["route", self.TRIANGLE, "--drop", "nope"])
        captured = capsys.readouterr()
        assert code == 2
        assert "not on the ring" in captured.err

    def test_loadgen_rejects_empty_tenants(self, capsys):
        code = main(
            [
                "loadgen", self.TRIANGLE,
                "--port", "1", "--requests", "5", "--tenants", " , ",
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "tenants" in captured.err


class TestRemoteShardArgs:
    def test_parse_remote_shards_accepts_names_and_addresses(self):
        from repro.cli import _parse_remote_shards

        assert _parse_remote_shards(
            " sA=127.0.0.1:7001 , sB=10.0.0.2:7002 "
        ) == {"sA": ("127.0.0.1", 7001), "sB": ("10.0.0.2", 7002)}

    @pytest.mark.parametrize(
        "text",
        [
            "",
            " , ",
            "sA127.0.0.1:7001",  # no '='
            "sA=127.0.0.1",  # no port
            "sA=127.0.0.1:http",  # non-numeric port
            "sA=127.0.0.1:1,sA=127.0.0.1:2",  # duplicate name
        ],
    )
    def test_parse_remote_shards_rejects_malformed(self, text):
        from repro.cli import _parse_remote_shards

        with pytest.raises(ValueError):
            _parse_remote_shards(text)

    def test_route_serve_with_bad_remote_spec_is_an_error(self, capsys):
        code = main(
            [
                "route", TestRoute.TRIANGLE, "--serve", "--port", "0",
                "--remote-shards", "not-a-spec",
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "remote-shards" in captured.err

    def test_route_serve_with_unreachable_shard_is_an_error(self, capsys):
        import socket

        with socket.create_server(("127.0.0.1", 0)) as listener:
            port = listener.getsockname()[1]
        code = main(
            [
                "route", TestRoute.TRIANGLE, "--serve", "--port", "0",
                "--remote-shards", f"sA=127.0.0.1:{port}",
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "cannot dial" in captured.err


class TestShardCommand:
    def test_rejects_malformed_listen(self, capsys):
        code = main(["shard", "--name", "s0", "--listen", "nope"])
        captured = capsys.readouterr()
        assert code == 2
        assert "HOST:PORT" in captured.err

    def test_rejects_zero_workers(self, capsys):
        code = main(
            ["shard", "--name", "s0", "--listen", "127.0.0.1:0",
             "--workers", "0"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "workers" in captured.err

    def test_serves_and_prints_the_parseable_startup_line(
        self, capsys, monkeypatch, tmp_path
    ):
        # an instantly-returning serve_forever turns the command into a
        # start/announce/close round-trip without blocking the test
        from repro.service.server import RouterServer

        async def instant(self):
            return None

        monkeypatch.setattr(RouterServer, "serve_forever", instant)
        code = main(
            [
                "shard", "--name", "s9", "--listen", "127.0.0.1:0",
                "--cache-dir", str(tmp_path / "cache"),
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "repro.service shard s9 listening on 127.0.0.1:" in captured.out
        assert "shard s9 closed" in captured.out
