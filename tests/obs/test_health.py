"""Unit tests for repro.obs.health (quality, drift, the monitor).

Everything runs on injected data-time timestamps — the monitor's
``clock=None`` default — so every assertion is deterministic.
"""

import json

import pytest

from repro.obs.health import (
    DriftConfig,
    DriftDetector,
    HealthMonitor,
    QualityTracker,
    default_rules,
    get_health_monitor,
    install_health_monitor,
    uninstall_health_monitor,
)
from repro.obs.slo import SLORule

HOUR = 3600.0


def _freshness_rule(**overrides):
    base = dict(
        name="fresh",
        signal="freshness",
        target=0.9,
        threshold_s=2 * HOUR,
        fast_window_s=2 * HOUR,
        slow_window_s=6 * HOUR,
    )
    base.update(overrides)
    return SLORule(**base)


class TestQualityTracker:
    def test_freshness_is_age_since_last_arrival(self):
        tracker = QualityTracker()
        tracker.record_arrival("metro", "ookla", 100.0)
        tracker.record_arrival("metro", "ookla", 200.0)
        assert tracker.freshness(500.0) == {("metro", "ookla"): 300.0}

    def test_out_of_order_arrival_does_not_regress_freshness(self):
        tracker = QualityTracker()
        tracker.record_arrival("metro", "ookla", 200.0)
        tracker.record_arrival("metro", "ookla", 100.0)
        assert tracker.freshness(200.0) == {("metro", "ookla"): 0.0}

    def test_count_false_advances_freshness_only(self):
        # Freshness-only notifiers (the probe runner above a sketch
        # sink) must not enroll the cell in completeness accounting —
        # the store-level hook owns the counting.
        tracker = QualityTracker(expected={"ookla": 4})
        for i in range(4):
            tracker.record_arrival("metro", "ookla", float(i), count=False)
        tracker.close_window()
        assert ("metro", "ookla") not in tracker.completeness()
        assert tracker.freshness(4.0)[("metro", "ookla")] == 1.0

    def test_declared_expectation_drives_ratio(self):
        tracker = QualityTracker(expected={"ookla": 10})
        for i in range(5):
            tracker.record_arrival("metro", "ookla", float(i))
        tracker.close_window()
        assert tracker.completeness()[("metro", "ookla")] == 0.5

    def test_ratio_caps_at_one(self):
        tracker = QualityTracker(expected={"ookla": 2})
        for i in range(5):
            tracker.record_arrival("metro", "ookla", float(i))
        tracker.close_window()
        assert tracker.completeness()[("metro", "ookla")] == 1.0

    def test_expectation_learned_from_trailing_median(self):
        tracker = QualityTracker()
        for window in range(3):  # three windows of 10 arrivals
            for i in range(10):
                tracker.record_arrival("metro", "ookla", window * 10.0 + i)
            tracker.close_window()
        # Fourth window goes half-dark: judged against the median (10)
        # of the *previous* windows, not dragged down by itself.
        for i in range(5):
            tracker.record_arrival("metro", "ookla", 30.0 + i)
        tracker.close_window()
        assert tracker.completeness()[("metro", "ookla")] == 0.5

    def test_dark_window_scores_zero(self):
        tracker = QualityTracker()
        for i in range(10):
            tracker.record_arrival("metro", "ookla", float(i))
        tracker.close_window()
        tracker.close_window()  # no arrivals at all this window
        assert tracker.completeness()[("metro", "ookla")] == 0.0

    def test_first_window_without_declaration_has_no_ratio(self):
        tracker = QualityTracker()
        tracker.record_arrival("metro", "ookla", 0.0)
        tracker.close_window()
        assert tracker.completeness()[("metro", "ookla")] is None

    def test_stale_by_region_filters_by_threshold(self):
        tracker = QualityTracker()
        tracker.record_arrival("metro", "ookla", 0.0)
        tracker.record_arrival("metro", "ndt", 900.0)
        stale = tracker.stale_by_region(1000.0, lambda dataset: 500.0)
        assert stale == {"metro": ["ookla"]}


class TestDriftDetector:
    CONFIG = DriftConfig(alpha=0.25, slack=0.02, band=0.15, min_points=4)

    def _feed(self, detector, region, scores, start_at=0.0, stale=()):
        events = []
        for i, score in enumerate(scores):
            event = detector.update(
                region, score, start_at + i * HOUR, stale
            )
            if event is not None:
                events.append(event)
        return events

    def test_stable_scores_never_fire(self):
        detector = DriftDetector(self.CONFIG)
        events = self._feed(detector, "metro", [0.8] * 50)
        assert events == []

    def test_small_noise_absorbed_by_slack_and_ewma(self):
        detector = DriftDetector(self.CONFIG)
        wiggle = [0.8 + (0.01 if i % 2 else -0.01) for i in range(50)]
        assert self._feed(detector, "metro", wiggle) == []

    def test_step_change_fires_once_with_direction(self):
        detector = DriftDetector(self.CONFIG)
        scores = [0.8] * 8 + [0.55] * 8
        events = self._feed(detector, "metro", scores)
        assert len(events) == 1
        (event,) = events
        assert event.direction == "down"
        assert event.kind == "score_shift"
        assert event.baseline > event.score

    def test_upward_shift_reports_up(self):
        detector = DriftDetector(self.CONFIG)
        events = self._feed(detector, "metro", [0.5] * 8 + [0.8] * 8)
        assert len(events) == 1
        assert events[0].direction == "up"

    def test_rebaseline_allows_second_event_at_new_level(self):
        detector = DriftDetector(self.CONFIG)
        scores = [0.8] * 8 + [0.55] * 12 + [0.3] * 8
        events = self._feed(detector, "metro", scores)
        assert len(events) == 2
        assert all(event.direction == "down" for event in events)

    def test_min_points_gate_blocks_early_fires(self):
        detector = DriftDetector(self.CONFIG)
        # A huge jump on the second point: the baseline has not
        # settled, so nothing may fire yet.
        assert detector.update("metro", 0.9, 0.0) is None
        assert detector.update("metro", 0.2, HOUR) is None

    def test_stale_datasets_reclassify_the_event(self):
        detector = DriftDetector(self.CONFIG)
        events = self._feed(
            detector,
            "metro",
            [0.8] * 8 + [0.5] * 8,
            stale=("ookla",),
        )
        assert len(events) == 1
        assert events[0].kind == "stale_data"
        assert events[0].stale_datasets == ("ookla",)

    def test_regions_are_independent(self):
        detector = DriftDetector(self.CONFIG)
        self._feed(detector, "metro", [0.8] * 8)
        events = self._feed(detector, "rural", [0.4] * 8 + [0.1] * 8)
        assert len(events) == 1
        assert events[0].region == "rural"

    def test_event_to_dict_is_json_ready(self):
        detector = DriftDetector(self.CONFIG)
        (event,) = self._feed(detector, "metro", [0.8] * 8 + [0.5] * 8)
        document = json.loads(json.dumps(event.to_dict()))
        assert document["region"] == "metro"
        assert document["kind"] == "score_shift"


class TestHealthMonitor:
    def _monitor(self, **kwargs):
        kwargs.setdefault("rules", (_freshness_rule(),))
        return HealthMonitor(**kwargs)

    def test_watermark_follows_arrivals(self):
        monitor = self._monitor()
        assert monitor.as_of is None
        monitor.record_arrival("metro", "ookla", 100.0)
        monitor.record_arrival("metro", "ookla", 50.0)
        assert monitor.as_of == 100.0

    def test_freshness_slo_pages_when_dataset_goes_quiet(self):
        monitor = self._monitor()
        monitor.record_arrival("metro", "ookla", 0.0)
        # Tick hourly; the dataset never reports again, so every tick
        # past the 2h threshold is bad and both windows saturate.
        for hour in range(1, 13):
            monitor.tick(hour * HOUR)
        report = monitor.evaluate()
        assert report.status == "page"
        (status,) = report.rules
        assert status.state == "page"
        assert "metro/ookla" in status.detail

    def test_fresh_data_stays_ok(self):
        monitor = self._monitor()
        for hour in range(12):
            monitor.record_arrival("metro", "ookla", hour * HOUR)
            monitor.tick(hour * HOUR)
        assert monitor.evaluate().status == "ok"

    def test_recovery_after_data_resumes(self):
        monitor = self._monitor()
        monitor.record_arrival("metro", "ookla", 0.0)
        for hour in range(1, 13):
            monitor.tick(hour * HOUR)
        assert monitor.evaluate().status == "page"
        # Data resumes: every new tick sees a fresh cell, and the bad
        # ticks age out of the fast window first.
        for hour in range(13, 26):
            monitor.record_arrival("metro", "ookla", hour * HOUR)
            monitor.tick(hour * HOUR)
        assert monitor.evaluate().status == "ok"

    def test_dataset_selector_scopes_the_rule(self):
        rule = _freshness_rule(dataset="ookla")
        monitor = HealthMonitor(rules=(rule,))
        monitor.record_arrival("metro", "ndt", 0.0)
        monitor.tick(12 * HOUR)  # ndt is ancient, but out of scope
        (status,) = monitor.evaluate().rules
        assert status.samples == 0
        assert status.state == "ok"

    def test_window_closed_runs_drift_and_classifies_stale(self):
        # Two regions drop in lockstep at window 8; rural's only
        # dataset went quiet back at window 4, so by the time the
        # drift fires its cell is well past the 2h freshness budget.
        # The same step change must read as score_shift for metro
        # (data fresh, the internet got worse) and stale_data for
        # rural (the barometer went blind).
        monitor = HealthMonitor(
            rules=(_freshness_rule(),),
            drift=DriftConfig(min_points=4),
        )
        events = []
        for window in range(16):
            window_end = (window + 1) * HOUR
            monitor.record_arrival("metro", "ookla", window_end)
            if window < 4:
                monitor.record_arrival("rural", "ndt", window_end)
            score = 0.8 if window < 8 else 0.5
            events += monitor.window_closed(
                window * HOUR,
                window_end,
                {"metro": score, "rural": score},
            )
        kinds = {event.region: event.kind for event in events}
        assert kinds == {"metro": "score_shift", "rural": "stale_data"}
        report = monitor.evaluate()
        assert {e["kind"] for e in report.drift} == {
            "score_shift",
            "stale_data",
        }

    def test_unscored_regions_are_skipped(self):
        monitor = self._monitor()
        events = monitor.window_closed(0.0, HOUR, {"metro": None})
        assert events == []

    def test_stale_threshold_resolution_order(self):
        broad = _freshness_rule(name="broad", threshold_s=4 * HOUR)
        specific = _freshness_rule(
            name="ookla", dataset="ookla", threshold_s=HOUR
        )
        monitor = HealthMonitor(
            rules=(broad, specific), stale_after_s=99.0
        )
        assert monitor.stale_threshold("ookla") == HOUR
        assert monitor.stale_threshold("ndt") == 4 * HOUR
        assert HealthMonitor(rules=()).stale_threshold("x") == 3600.0

    def test_evaluate_is_deterministic(self):
        def build():
            monitor = self._monitor()
            for window in range(8):
                window_end = (window + 1) * HOUR
                monitor.record_arrival("metro", "ookla", window_end - 60)
                monitor.window_closed(
                    window * HOUR, window_end, {"metro": 0.8}
                )
            return json.dumps(
                monitor.evaluate().to_dict(), sort_keys=True
            )

        assert build() == build()

    def test_quality_section_shape(self):
        monitor = self._monitor()
        monitor.record_arrival("metro", "ookla", 0.0)
        monitor.window_closed(0.0, HOUR, {})
        section = monitor.quality_section(3 * HOUR)
        assert section["freshness_s"]["metro"]["ookla"] == 3 * HOUR
        assert "metro" in section["completeness"]
        assert section["stale"] == {"metro": ["ookla"]}

    def test_clock_lifts_evaluation_instant(self):
        monitor = self._monitor(clock=lambda: 10 * HOUR)
        monitor.record_arrival("metro", "ookla", 0.0)
        assert monitor.now() == 10 * HOUR
        # An explicit instant always wins over the clock.
        assert monitor.now(5.0) == 5.0

    def test_latency_rule_judges_timer_percentile(self):
        from repro.obs import REGISTRY

        rule = SLORule(
            name="lat",
            signal="latency",
            target=0.9,
            timer="test.health.latency",
            threshold_s=0.1,
            percentile=95.0,
            fast_window_s=HOUR,
            slow_window_s=2 * HOUR,
        )
        monitor = HealthMonitor(rules=(rule,))
        REGISTRY.timer("test.health.latency").reset()
        for _ in range(20):
            REGISTRY.timer("test.health.latency").observe(0.5)
        for minute in range(10):
            monitor.tick(minute * 60.0)
        (status,) = monitor.evaluate().rules
        assert status.state != "ok"
        assert "p95" in status.detail

    def test_error_rate_rule_uses_interval_deltas(self):
        from repro.obs import REGISTRY

        rule = SLORule(
            name="errs",
            signal="error_rate",
            target=0.9,
            bad_counter="test.health.bad",
            total_counter="test.health.total",
            fast_window_s=HOUR,
            slow_window_s=2 * HOUR,
        )
        monitor = HealthMonitor(rules=(rule,))
        bad = REGISTRY.counter("test.health.bad")
        total = REGISTRY.counter("test.health.total")
        bad.reset()
        total.reset()
        for minute in range(12):
            bad.inc(50)
            total.inc(50)
            monitor.tick(minute * 60.0)
        report = monitor.evaluate()
        (status,) = report.rules
        assert status.state == "page"
        assert "error" in status.detail
        # Errors stop. The *cumulative* ratio stays at ~13% (over the
        # 10% budget forever), but the per-tick deltas are clean, so
        # the fast window drains and the rule recovers — the proof
        # that interval deltas, not lifetime totals, drive the signal.
        for minute in range(12, 90):
            total.inc(50)
            monitor.tick(minute * 60.0)
        (status,) = monitor.evaluate().rules
        assert status.state == "ok"

    def test_error_rate_counts_from_the_given_start(self):
        from repro.obs import REGISTRY, snapshot

        rule = SLORule(
            name="errs",
            signal="error_rate",
            target=0.9,
            bad_counter="test.health.earlier_bad",
            total_counter="test.health.earlier_total",
        )
        bad = REGISTRY.counter("test.health.earlier_bad")
        total = REGISTRY.counter("test.health.earlier_total")
        bad.inc(500)  # an earlier run in the same process
        total.inc(500)
        monitor = HealthMonitor(rules=(rule,))
        monitor.count_errors_from(snapshot()["counters"])
        total.inc(100)  # this run: clean
        monitor.tick(0.0)
        (status,) = monitor.evaluate().rules
        assert status.state == "ok"
        assert status.detail == ""


class TestInstallation:
    def test_install_get_uninstall_cycle(self):
        assert get_health_monitor() is None
        monitor = HealthMonitor()
        install_health_monitor(monitor)
        try:
            assert get_health_monitor() is monitor
        finally:
            assert uninstall_health_monitor() is monitor
        assert get_health_monitor() is None

    def test_uninstall_when_absent_returns_none(self):
        assert uninstall_health_monitor() is None


class TestDefaultRules:
    def test_covers_every_dataset_plus_pipeline_rules(self):
        rules = default_rules(["ookla", "ndt", "ookla"], window_s=HOUR)
        names = [rule.name for rule in rules]
        assert "freshness-ookla" in names
        assert "freshness-ndt" in names
        assert "completeness" in names
        assert "ingest-errors" in names
        assert "scoring-latency" in names
        assert len(names) == len(set(names))

    def test_windows_scale_with_reporting_window(self):
        (rule, *_) = default_rules(["ookla"], window_s=HOUR)
        assert rule.fast_window_s == 2 * HOUR
        assert rule.slow_window_s == 6 * HOUR


class TestPrometheusRendering:
    def test_hostile_labels_render_escaped(self):
        monitor = HealthMonitor(rules=(_freshness_rule(),))
        hostile = 'ru"ral\nnorth\\east'
        monitor.record_arrival(hostile, "ookla", 0.0)
        monitor.tick(HOUR)
        body = monitor.render_prometheus()
        assert '\nregion' not in body.replace('region="', "")
        assert 'region="ru\\"ral\\nnorth\\\\east"' in body
        # Every physical line is still a comment or sample line.
        for line in body.rstrip("\n").split("\n"):
            assert line.startswith("#") or " " in line

    def test_families_present_with_values(self):
        monitor = HealthMonitor(rules=(_freshness_rule(),))
        monitor.record_arrival("metro", "ookla", 0.0)
        monitor.window_closed(0.0, HOUR, {"metro": 0.8})
        body = monitor.render_prometheus()
        assert "iqb_health_freshness_seconds{" in body
        assert "iqb_slo_burn_rate{" in body
        assert 'window="fast"' in body and 'window="slow"' in body
