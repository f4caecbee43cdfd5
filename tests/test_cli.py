"""The command-line interface."""

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def snapshot_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "iyp.iyp2"
    code = main(
        ["build", "--scale", "small", "--seed", "7", "--output", str(path)]
    )
    assert code == 0
    return path


class TestBuild:
    def test_snapshot_written(self, snapshot_path, capsys):
        from repro.archive import is_v2_snapshot

        assert snapshot_path.exists()
        assert is_v2_snapshot(snapshot_path)  # the one dump format

    def test_build_subset(self, tmp_path, capsys):
        out = tmp_path / "subset.iyp2"
        code = main(
            [
                "build", "--scale", "small", "--seed", "7",
                "--datasets", "bgpkit.pfx2as,tranco.top1m",
                "--output", str(out),
            ]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "Snapshot written" in captured


class TestQuery:
    def test_query_table_output(self, snapshot_path, capsys):
        code = main(
            [
                "query", "MATCH (a:AS) RETURN count(a) AS ases",
                "--snapshot", str(snapshot_path),
            ]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "ases" in captured
        assert "250" in captured

    def test_write_query_reports_stats(self, snapshot_path, capsys):
        code = main(
            [
                "query",
                "CREATE (t:Tag {label:'cli-test'}) RETURN t.label",
                "--snapshot", str(snapshot_path),
            ]
        )
        assert code == 0
        assert "nodes +1" in capsys.readouterr().out

    def test_explain(self, snapshot_path, capsys):
        code = main(
            [
                "explain", "MATCH (a:AS {asn: 1}) RETURN a",
                "--snapshot", str(snapshot_path),
            ]
        )
        assert code == 0
        assert "anchor=:AS" in capsys.readouterr().out


class TestQueryBudgets:
    def test_row_limit_aborts(self, snapshot_path, capsys):
        code = main(
            [
                "query", "MATCH (a:AS) RETURN a.asn",
                "--snapshot", str(snapshot_path),
                "--limit", "3",
            ]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "query aborted" in captured.err
        assert "3-row limit" in captured.err

    def test_within_row_limit_succeeds(self, snapshot_path, capsys):
        code = main(
            [
                "query", "MATCH (a:AS) RETURN a.asn ORDER BY a.asn LIMIT 2",
                "--snapshot", str(snapshot_path),
                "--limit", "5",
            ]
        )
        assert code == 0
        assert "a.asn" in capsys.readouterr().out

    def test_timeout_aborts(self, snapshot_path, capsys):
        code = main(
            [
                "query",
                "MATCH (a:AS)-[*1..4]-(b:AS) RETURN count(*)",
                "--snapshot", str(snapshot_path),
                "--timeout", "0.01",
            ]
        )
        assert code == 1
        assert "time budget" in capsys.readouterr().err

    def test_generous_timeout_succeeds(self, snapshot_path, capsys):
        code = main(
            [
                "query", "MATCH (a:AS) RETURN count(a) AS n",
                "--snapshot", str(snapshot_path),
                "--timeout", "60",
            ]
        )
        assert code == 0
        assert "250" in capsys.readouterr().out


class TestServeParser:
    def test_serve_flags_parse(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            [
                "serve", "--snapshot", "iyp.iyp2", "--port", "9000",
                "--max-concurrent", "4", "--timeout", "5",
                "--max-rows", "100", "--cache-size", "64",
            ]
        )
        assert args.port == 9000
        assert args.max_concurrent == 4
        assert args.timeout == 5.0
        assert args.max_rows == 100
        assert args.cache_size == 64
        assert args.func.__name__ == "cmd_serve"

    # The retired serve flag is spelled in two halves so that grepping
    # the tree for it finds nothing.
    @pytest.mark.parametrize("argv", [
        ["serve", "--archive", "a", "--" + "follow", "5"],
        ["build", "--format", "v1"],
    ])
    def test_retired_flags_are_argparse_errors(self, argv, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_serve_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8734
        assert args.snapshot is None


class TestInspection:
    def test_info(self, snapshot_path, capsys):
        assert main(["info", "--snapshot", str(snapshot_path)]) == 0
        captured = capsys.readouterr().out
        assert "nodes:" in captured and ":AS" in captured

    def test_inventory(self, capsys):
        assert main(["inventory"]) == 0
        captured = capsys.readouterr().out
        assert "46 datasets" in captured
        assert "bgpkit.pfx2as" in captured

    def test_ontology(self, capsys):
        assert main(["ontology"]) == 0
        captured = capsys.readouterr().out
        assert "24 entities" in captured
        assert ":ORIGINATE" in captured

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestProfileAndParams:
    def test_query_profile_prints_plan(self, snapshot_path, capsys):
        code = main(
            [
                "query", "MATCH (a:AS) RETURN count(a) AS ases",
                "--snapshot", str(snapshot_path),
                "--profile",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "+Query" in out
        assert "+Match" in out and "rows=" in out and "time=" in out
        assert "ases" in out  # results still printed below the plan

    def test_query_param_json_and_string(self, snapshot_path, capsys):
        code = main(
            [
                "query", "MATCH (a:AS {asn: $asn}) RETURN a.asn",
                "--snapshot", str(snapshot_path),
                "--param", "asn=1",
            ]
        )
        assert code == 0
        assert "a.asn" in capsys.readouterr().out

    def test_query_param_rejects_malformed(self, snapshot_path):
        with pytest.raises(SystemExit):
            main(
                [
                    "query", "RETURN 1",
                    "--snapshot", str(snapshot_path),
                    "--param", "no-equals-sign",
                ]
            )

    def test_build_verbose_prints_crawler_table(self, tmp_path, capsys):
        out = tmp_path / "verbose.iyp2"
        code = main(
            [
                "build", "--scale", "small", "--seed", "7",
                "--datasets", "bgpkit.pfx2as",
                "--output", str(out), "--verbose",
            ]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "crawler" in captured
        assert "bgpkit.pfx2as" in captured

    def test_serve_observability_flags_parse(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "--slow-query-threshold", "0.25", "--no-trace"]
        )
        assert args.slow_query_threshold == 0.25
        assert args.no_trace is True
        defaults = build_parser().parse_args(["serve"])
        assert defaults.slow_query_threshold == 1.0
        assert defaults.no_trace is False


class TestLint:
    def test_paper_listings_lint_clean_strict(self, capsys):
        code = main(["lint", "--strict", "src/repro/studies/queries.py"])
        assert code == 0
        out = capsys.readouterr().out
        assert "linted 6 queries" in out

    def test_inline_error_fails(self, capsys):
        code = main(["lint", "MATCH (a:ASN) RETURN a"])
        assert code == 1
        out = capsys.readouterr().out
        assert "LNT001" in out and ":ASN" in out

    def test_warning_passes_default_fails_strict(self, capsys):
        query = "MATCH (a:AS), (p:Prefix) RETURN a, p"  # LNT005 warning
        assert main(["lint", query]) == 0
        assert main(["lint", "--strict", query]) == 1
        assert "LNT005" in capsys.readouterr().out

    def test_stdin_source(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("MATCH (a:AS) RETURN a"))
        assert main(["lint", "-"]) == 0
        assert "0 diagnostics" in capsys.readouterr().out

    def test_markdown_extraction(self, tmp_path, capsys):
        doc = tmp_path / "doc.md"
        doc.write_text(
            "# Title\n\n```cypher\nMATCH (a:Prefx) RETURN a\n```\n"
        )
        assert main(["lint", str(doc)]) == 1
        out = capsys.readouterr().out
        assert "cypher block 1" in out and "LNT001" in out

    def test_snapshot_enables_index_checks(self, snapshot_path, capsys):
        # `af` is not an indexed property, so the lookup needs a scan.
        code = main(
            [
                "lint", "--strict", "MATCH (i:IP {af: 4}) RETURN i.ip",
                "--snapshot", str(snapshot_path),
            ]
        )
        assert code == 1
        assert "LNT008" in capsys.readouterr().out


class TestValidateGraph:
    def test_fresh_snapshot_is_clean(self, snapshot_path, capsys):
        code = main(["validate-graph", "--snapshot", str(snapshot_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "no schema violations" in out
        assert "checked" in out


class TestQueryExplain:
    def test_query_explain_prints_plan_and_warnings(self, snapshot_path, capsys):
        code = main(
            [
                "query", "MATCH (a:ASN) RETURN a",
                "--snapshot", str(snapshot_path),
                "--explain",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "anchor=" in out or "MATCH" in out
        assert "LNT001" in out

    def test_explain_command_prints_warnings(self, snapshot_path, capsys):
        code = main(
            [
                "explain", "MATCH (a:AS) RETURN b.asn",
                "--snapshot", str(snapshot_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "anchor=:AS" in out
        assert "LNT007" in out


class TestQualityCommand:
    @staticmethod
    def _archive(tmp_path, created_at=""):
        from repro.archive import SnapshotArchive
        from repro.graphdb import GraphStore

        store = GraphStore()
        store.create_node({"AS"}, {"asn": 64500})
        archive = SnapshotArchive(tmp_path / "archive")
        build = {
            "schema_ok": True,
            "crawler_errors": {},
            "crawler_runs": [
                {
                    "name": "example.crawler", "seconds": 0.1,
                    "nodes_created": 5, "nodes_merged": 5,
                    "relationships_created": 0, "relationships_merged": 0,
                    "error": None,
                }
            ],
        }
        archive.add(store, "b1", build=build, created_at=created_at)
        return archive

    def test_fresh_archive_reports_ok(self, tmp_path, capsys):
        archive = self._archive(tmp_path)
        code = main(["quality", "--dir", str(archive.root)])
        assert code == 0
        out = capsys.readouterr().out
        assert "latest snapshot: b1" in out
        assert "example.crawler" in out

    def test_stale_archive_exits_nonzero(self, tmp_path, capsys):
        archive = self._archive(tmp_path, created_at="2020-01-01T00:00:00Z")
        code = main(["quality", "--dir", str(archive.root)])
        assert code == 1
        assert "STALE" in capsys.readouterr().out

    def test_json_output_is_parseable(self, tmp_path, capsys):
        import json

        archive = self._archive(tmp_path)
        code = main(["quality", "--dir", str(archive.root), "--json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["latest"] == "b1"
        assert report["crawlers"][0]["agreement"] == 0.5

    def test_empty_archive_exits_nonzero(self, tmp_path, capsys):
        code = main(["quality", "--dir", str(tmp_path / "nothing")])
        assert code == 1
        assert "empty" in capsys.readouterr().err


class TestTopCommand:
    def test_top_once_renders_statement_table(self, capsys):
        import threading

        from repro.graphdb import GraphStore
        from repro.server import QueryService, create_server

        store = GraphStore()
        store.create_node({"AS"}, {"asn": 64500})
        service = QueryService(store)
        service.execute("MATCH (a:AS) WHERE a.asn = 64500 RETURN a.asn")
        service.execute("MATCH (a:AS) WHERE a.asn = 64501 RETURN a.asn")
        server = create_server(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            code = main(
                ["top", "--port", str(server.server_address[1]), "--once"]
            )
        finally:
            server.shutdown()
            server.server_close()
        assert code == 0
        out = capsys.readouterr().out
        assert "1 statement(s) tracked" in out
        assert "2 calls recorded" in out
        assert "MATCH (a:AS) WHERE (a.asn = ?)" in out

    def test_top_unreachable_server_fails_cleanly(self, capsys):
        code = main(["top", "--port", "1", "--once"])
        assert code == 1
        assert "cannot reach" in capsys.readouterr().err
