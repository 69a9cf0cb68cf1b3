"""Integration tests for the ``iqb`` CLI."""

import json

import pytest

from repro.cli import build_parser, main


@pytest.fixture(scope="module")
def campaign_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "campaign.jsonl"
    code = main(
        [
            "simulate",
            str(path),
            "--regions",
            "metro-fiber",
            "rural-dsl",
            "--tests",
            "80",
            "--subscribers",
            "25",
            "--seed",
            "9",
        ]
    )
    assert code == 0
    return path


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_region_rejected_at_parse_time(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "out.jsonl", "--regions", "oz"])


class TestSimulate(object):
    def test_writes_jsonl(self, campaign_file):
        lines = campaign_file.read_text().strip().splitlines()
        assert len(lines) == 2 * 3 * 80  # regions x clients x tests
        record = json.loads(lines[0])
        assert record["region"] in ("metro-fiber", "rural-dsl")


class TestScore:
    def test_prints_table(self, campaign_file, capsys):
        assert main(["score", str(campaign_file)]) == 0
        out = capsys.readouterr().out
        assert "metro-fiber" in out
        assert "rural-dsl" in out
        assert "Grade" in out

    def test_custom_config(self, campaign_file, capsys, tmp_path):
        config_path = tmp_path / "config.json"
        assert main(["config", "--output", str(config_path)]) == 0
        assert main(["score", str(campaign_file), "--config", str(config_path)]) == 0
        assert "metro-fiber" in capsys.readouterr().out


class TestReport:
    def test_full_report(self, campaign_file, capsys):
        assert main(["report", str(campaign_file), "rural-dsl"]) == 0
        out = capsys.readouterr().out
        assert "IQB report: rural-dsl" in out
        assert "Requirement detail" in out


class TestConfig:
    def test_prints_json(self, capsys):
        assert main(["config"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["version"] == 1
        assert document["aggregation"]["percentile"] == 95.0

    def test_written_file_loads(self, tmp_path):
        from repro.core import IQBConfig

        path = tmp_path / "c.json"
        assert main(["config", "--output", str(path)]) == 0
        assert IQBConfig.load(path).aggregation.percentile == 95.0


class TestTiers:
    def test_renders_structure(self, capsys):
        assert main(["tiers"]) == 0
        out = capsys.readouterr().out
        assert "web_browsing" in out
        assert "ookla" in out


class TestSweep:
    def test_prints_percentile_table(self, campaign_file, capsys):
        assert main(
            [
                "sweep",
                str(campaign_file),
                "metro-fiber",
                "--percentiles",
                "50",
                "95",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "p50" in out and "p95" in out


class TestErrorHandling:
    def test_malformed_input_fails_cleanly_by_default(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{broken\n")
        assert main(["score", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "iqb: error:" in err
        assert "bad.jsonl:1" in err

    def test_missing_input_exits_2(self, tmp_path, capsys):
        assert main(["score", str(tmp_path / "nope.jsonl")]) == 2
        assert "iqb: error:" in capsys.readouterr().err

    def test_malformed_input_skippable(self, campaign_file, tmp_path, capsys):
        mixed = tmp_path / "mixed.jsonl"
        mixed.write_text(campaign_file.read_text() + "{broken\n")
        assert main(["score", str(mixed), "--on-error", "skip"]) == 0
        assert "metro-fiber" in capsys.readouterr().out

    def test_unscorable_data_exits_2(self, tmp_path, capsys):
        from repro.core.config import MissingDataPolicy, paper_config

        strict = tmp_path / "strict.json"
        config = paper_config().with_(missing_data=MissingDataPolicy.STRICT)
        strict.write_text(config.to_json())
        one = tmp_path / "one.jsonl"
        one.write_text(
            json.dumps(
                {
                    "region": "r",
                    "source": "ndt",
                    "timestamp": 1.0,
                    "download_mbps": 50.0,
                }
            )
            + "\n"
        )
        code = main(["score", str(one), "--config", str(strict), "--json"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("iqb: error: no dataset observes upload_mbps")
        assert "Traceback" not in err

    @pytest.mark.parametrize("token", ["NaN", "Infinity"])
    def test_non_finite_values_fail_alike_on_every_route(
        self, campaign_file, tmp_path, capsys, token
    ):
        lines = campaign_file.read_text().splitlines()[:3000]
        dirty_lines, clean_lines = [], []
        for index, line in enumerate(lines):
            if index % 5 == 0:
                record = json.loads(line)
                record["download_mbps"] = "__BAD__"
                dirty_lines.append(
                    json.dumps(record).replace('"__BAD__"', token)
                )
            else:
                dirty_lines.append(line)
                clean_lines.append(line)
        dirty = tmp_path / "dirty.jsonl"
        dirty.write_text("\n".join(dirty_lines) + "\n")
        clean = tmp_path / "clean.jsonl"
        clean.write_text("\n".join(clean_lines) + "\n")

        errors = []
        for route in (["score"], ["--quantiles", "sketch", "score"]):
            assert main([*route, str(dirty), "--json"]) == 2
            errors.append(capsys.readouterr().err)
            skip = ["--json", "--on-error", "skip"]
            assert main([*route, str(dirty), *skip]) == 0
            skipped = json.loads(capsys.readouterr().out)
            assert main([*route, str(clean), "--json"]) == 0
            assert skipped == json.loads(capsys.readouterr().out)
        assert errors[0] == errors[1]
        assert f"non-finite download_mbps: {float(token)}" in errors[0]


class TestQuantilesFlag:
    def test_exact_override_matches_default_json(self, campaign_file, capsys):
        assert main(["score", str(campaign_file), "--json"]) == 0
        default = json.loads(capsys.readouterr().out)
        assert (
            main(
                ["--quantiles", "exact", "score", str(campaign_file), "--json"]
            )
            == 0
        )
        forced = json.loads(capsys.readouterr().out)
        assert forced["quantiles"] == "exact"
        assert forced["regions"] == default["regions"]
        assert "quantiles" not in default

    def test_sketch_scoring_stamps_provenance(self, campaign_file, capsys):
        assert (
            main(
                ["--quantiles", "sketch", "score", str(campaign_file), "--json"]
            )
            == 0
        )
        document = json.loads(capsys.readouterr().out)
        assert document["quantiles"] == "sketch"
        for breakdown in document["regions"].values():
            assert breakdown["quantile_source"] == "sketch"

    def test_sketch_table_output(self, campaign_file, capsys):
        assert (
            main(["--quantiles", "sketch", "score", str(campaign_file)]) == 0
        )
        out = capsys.readouterr().out
        assert "metro-fiber" in out

    def test_monitor_accepts_sketch(self, campaign_file, capsys):
        assert (
            main(
                [
                    "--quantiles",
                    "sketch",
                    "monitor",
                    str(campaign_file),
                    "--window-days",
                    "2",
                ]
            )
            == 0
        )
        assert "alert(s)" in capsys.readouterr().out

    def test_manifest_records_quantiles(
        self, campaign_file, capsys, tmp_path
    ):
        manifest_path = tmp_path / "run.json"
        assert (
            main(
                [
                    "--quantiles",
                    "sketch",
                    "--manifest-out",
                    str(manifest_path),
                    "score",
                    str(campaign_file),
                ]
            )
            == 0
        )
        capsys.readouterr()
        manifest = json.loads(manifest_path.read_text())
        assert manifest["quantiles"] == "sketch"
        assert manifest["kernel"] == "vectorized"

    def test_unknown_quantiles_rejected_at_parse_time(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--quantiles", "p2", "score", "x"])
