"""Unit tests for ScoreBreakdown archiving (to_dict / from_dict)."""

import json

import pytest

from repro.core.exceptions import DataError
from repro.core.scoring import ScoreBreakdown, flat_score, score_region


class TestRoundTrip:
    def test_round_trip_preserves_everything(self, fiber_sources, config):
        breakdown = score_region(fiber_sources, config)
        rebuilt = ScoreBreakdown.from_dict(breakdown.to_dict())
        assert rebuilt == breakdown

    def test_round_trip_with_missing_data(self, config):
        from repro.core.aggregation import SequenceSource
        from repro.core.config import paper_config
        from repro.core.metrics import Metric

        cfg = paper_config(datasets={"a": tuple(Metric)})
        sources = {
            "a": SequenceSource(
                download_mbps=[500.0] * 5, packet_loss=[0.0] * 5
            )
        }
        breakdown = score_region(sources, cfg)
        rebuilt = ScoreBreakdown.from_dict(breakdown.to_dict())
        assert rebuilt == breakdown
        # Skipped requirements survive as None.
        assert rebuilt.use_cases[0].skipped_metrics == breakdown.use_cases[
            0
        ].skipped_metrics

    def test_json_serializable(self, dsl_sources, config):
        breakdown = score_region(dsl_sources, config)
        text = json.dumps(breakdown.to_dict())
        rebuilt = ScoreBreakdown.from_dict(json.loads(text))
        assert rebuilt.value == pytest.approx(breakdown.value)

    def test_rebuilt_breakdown_still_satisfies_eq5(self, dsl_sources, config):
        breakdown = score_region(dsl_sources, config)
        rebuilt = ScoreBreakdown.from_dict(breakdown.to_dict())
        assert flat_score(rebuilt) == pytest.approx(rebuilt.value)

    def test_document_carries_presentation_fields(self, fiber_sources, config):
        document = score_region(fiber_sources, config).to_dict()
        assert document["grade"] in "ABCDE"
        assert 300 <= document["credit"] <= 850
        assert len(document["use_cases"]) == 6

    def test_malformed_document_rejected(self):
        with pytest.raises(DataError, match="malformed"):
            ScoreBreakdown.from_dict({"score": 0.5})

    def test_bad_enum_rejected(self, fiber_sources, config):
        document = score_region(fiber_sources, config).to_dict()
        document["use_cases"][0]["use_case"] = "doomscrolling"
        with pytest.raises(DataError):
            ScoreBreakdown.from_dict(document)


class TestCliJson:
    def test_score_json_output(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "campaign.jsonl"
        main(
            [
                "simulate",
                str(path),
                "--regions",
                "metro-fiber",
                "--tests",
                "60",
                "--subscribers",
                "20",
            ]
        )
        capsys.readouterr()
        assert main(["score", str(path), "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert set(document) == {"kernel", "regions"}
        assert document["kernel"] == "vectorized"
        assert set(document["regions"]) == {"metro-fiber"}
        rebuilt = ScoreBreakdown.from_dict(document["regions"]["metro-fiber"])
        assert 0.0 <= rebuilt.value <= 1.0

    def test_kernel_is_not_a_cli_option(self, capsys):
        """The vectorized kernel is the only production route; the
        scalar reference is reachable from the library, not the CLI."""
        from repro.cli import build_parser, main

        assert "--kernel" not in build_parser().format_help()
        with pytest.raises(SystemExit):
            main(["score", "x.jsonl", "--kernel", "exact"])
        assert "unrecognized arguments: --kernel" in capsys.readouterr().err
