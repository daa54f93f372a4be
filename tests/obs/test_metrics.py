"""Unit tests of the metrics registry: declaration, series, exposition."""

from __future__ import annotations

import json

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    MetricError,
    MetricsRegistry,
)


@pytest.fixture()
def registry() -> MetricsRegistry:
    return MetricsRegistry()


class TestCounter:
    def test_inc_and_value(self, registry):
        c = registry.counter("repro_test_total", "help text")
        assert c.value() == 0.0
        c.inc()
        c.inc(2.5)
        assert c.value() == 3.5

    def test_labeled_series_are_independent(self, registry):
        c = registry.counter("repro_labeled_total", labelnames=("kind",))
        c.inc(kind="a")
        c.inc(3, kind="b")
        assert c.value(kind="a") == 1.0
        assert c.value(kind="b") == 3.0

    def test_label_mismatch_raises(self, registry):
        c = registry.counter("repro_strict_total", labelnames=("kind",))
        with pytest.raises(MetricError):
            c.inc()  # missing label
        with pytest.raises(MetricError):
            c.inc(kind="a", extra="b")  # unknown label

    def test_counters_cannot_decrease(self, registry):
        c = registry.counter("repro_mono_total")
        with pytest.raises(MetricError):
            c.inc(-1)


class TestGauge:
    def test_set_inc_dec(self, registry):
        g = registry.gauge("repro_depth")
        g.set(5)
        g.inc(2)
        g.dec(4)
        assert g.value() == 3.0
        g.set(-1)  # gauges may go negative
        assert g.value() == -1.0


class TestHistogram:
    def test_buckets_are_cumulative(self, registry):
        h = registry.histogram("repro_lat_seconds", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 0.5, 5.0, 50.0):
            h.observe(value)
        series = h.value()
        assert series["count"] == 5
        assert series["sum"] == pytest.approx(56.05)
        assert series["buckets"]["0.1"] == 1
        assert series["buckets"]["1"] == 3
        assert series["buckets"]["10"] == 4
        assert series["buckets"]["+Inf"] == 5

    def test_exposition_lines(self, registry):
        h = registry.histogram("repro_h_seconds", "latency", buckets=(1.0,))
        h.observe(0.5)
        text = registry.render_text()
        assert '# TYPE repro_h_seconds histogram' in text
        assert 'repro_h_seconds_bucket{le="1"} 1' in text
        assert 'repro_h_seconds_bucket{le="+Inf"} 1' in text
        assert "repro_h_seconds_sum 0.5" in text
        assert "repro_h_seconds_count 1" in text

    def test_default_buckets_sorted(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)

    def test_omitted_buckets_use_family_default(self, registry):
        h = registry.histogram("repro_defb_seconds")
        assert h.buckets == tuple(DEFAULT_BUCKETS)

    def test_declaration_buckets_are_sorted_on_the_way_in(self, registry):
        h = registry.histogram("repro_unsorted_seconds", buckets=(5.0, 0.5, 1.0))
        assert h.buckets == (0.5, 1.0, 5.0)


class TestCustomBuckets:
    """Per-declaration histogram buckets (phase-duration families)."""

    def test_value_on_boundary_lands_in_that_bucket(self, registry):
        # bisect_left semantics: the bucket bound is inclusive (`le`),
        # so an observation exactly on a boundary counts in that bucket.
        h = registry.histogram("repro_edge_seconds", buckets=(0.1, 1.0))
        h.observe(0.1)
        series = h.value()
        assert series["buckets"]["0.1"] == 1
        assert series["buckets"]["1"] == 1
        assert series["buckets"]["+Inf"] == 1

    def test_value_above_every_bound_only_counts_inf(self, registry):
        h = registry.histogram("repro_over_seconds", buckets=(0.1, 1.0))
        h.observe(99.0)
        series = h.value()
        assert series["buckets"]["0.1"] == 0
        assert series["buckets"]["1"] == 0
        assert series["buckets"]["+Inf"] == 1

    def test_custom_buckets_in_prometheus_exposition(self, registry):
        h = registry.histogram(
            "repro_custom_seconds",
            "custom-bucket family",
            buckets=(0.0001, 0.025, 2.5),
        )
        h.observe(0.0001)
        h.observe(0.01)
        h.observe(10.0)
        text = registry.render_text()
        assert 'repro_custom_seconds_bucket{le="0.0001"} 1' in text
        assert 'repro_custom_seconds_bucket{le="0.025"} 2' in text
        assert 'repro_custom_seconds_bucket{le="2.5"} 2' in text
        assert 'repro_custom_seconds_bucket{le="+Inf"} 3' in text
        # none of the family-default bounds leak into the exposition
        assert 'le="5"' not in text

    def test_refetch_without_buckets_returns_same_metric(self, registry):
        declared = registry.histogram("repro_refetch_seconds", buckets=(1.0, 2.0))
        fetched = registry.histogram("repro_refetch_seconds")
        assert fetched is declared
        assert fetched.buckets == (1.0, 2.0)

    def test_redeclare_same_buckets_is_idempotent(self, registry):
        first = registry.histogram("repro_same_seconds", buckets=(1.0, 2.0))
        second = registry.histogram("repro_same_seconds", buckets=(2.0, 1.0))
        assert second is first

    def test_redeclare_conflicting_buckets_raises(self, registry):
        registry.histogram("repro_conflict_seconds", buckets=(1.0, 2.0))
        with pytest.raises(MetricError, match="buckets"):
            registry.histogram("repro_conflict_seconds", buckets=(1.0, 3.0))

    def test_phase_histogram_uses_its_family_buckets(self):
        from repro.obs.profiling import PHASE_SECONDS_BUCKETS, phase_seconds_histogram

        h = phase_seconds_histogram()
        assert h.buckets == tuple(sorted(PHASE_SECONDS_BUCKETS))
        assert phase_seconds_histogram() is h  # re-fetch, not redeclare

    def test_duplicate_bounds_are_refused(self, registry):
        with pytest.raises(MetricError, match="twice"):
            registry.histogram("repro_twice_seconds", buckets=(0.5, 1.0, 1.0))

    def test_phase_buckets_step_through_the_default_seconds_bounds(self):
        from repro.obs.profiling import PHASE_SECONDS_BUCKETS, phase_seconds_histogram

        h = phase_seconds_histogram()
        assert len(set(PHASE_SECONDS_BUCKETS)) == len(PHASE_SECONDS_BUCKETS)
        # Every default bound from 1 ms up is a phase bound too: nothing
        # between 2.5 s and 10 s falls into one wide bucket.
        assert {b for b in DEFAULT_BUCKETS if b <= 10.0} <= set(h.buckets)


class TestRegistry:
    def test_get_or_create_returns_same_metric(self, registry):
        first = registry.counter("repro_once_total", "h", ("a",))
        second = registry.counter("repro_once_total", "h", ("a",))
        assert first is second

    def test_kind_conflict_rejected(self, registry):
        registry.counter("repro_clash_total")
        with pytest.raises(MetricError):
            registry.gauge("repro_clash_total")

    def test_label_conflict_rejected(self, registry):
        registry.counter("repro_lclash_total", labelnames=("a",))
        with pytest.raises(MetricError):
            registry.counter("repro_lclash_total", labelnames=("b",))

    def test_invalid_names_rejected(self, registry):
        with pytest.raises(MetricError):
            registry.counter("bad-name")
        with pytest.raises(MetricError):
            registry.counter("repro_ok_total", labelnames=("bad-label",))

    def test_disabled_registry_records_nothing(self, registry):
        c = registry.counter("repro_off_total")
        h = registry.histogram("repro_off_seconds")
        g = registry.gauge("repro_off_depth")
        registry.set_enabled(False)
        c.inc()
        h.observe(1.0)
        g.set(9)
        assert c.value() == 0.0
        assert h.value()["count"] == 0
        assert g.value() == 0.0
        registry.set_enabled(True)
        c.inc()
        assert c.value() == 1.0

    def test_reset_zeroes_but_keeps_declarations(self, registry):
        c = registry.counter("repro_reset_total")
        c.inc(4)
        registry.reset()
        assert c.value() == 0.0
        assert "repro_reset_total" in registry.names()
        assert registry.counter("repro_reset_total") is c

    def test_render_text_includes_help_and_type(self, registry):
        registry.counter("repro_doc_total", "documented metric").inc()
        text = registry.render_text()
        assert "# HELP repro_doc_total documented metric" in text
        assert "# TYPE repro_doc_total counter" in text
        assert text.endswith("\n")

    def test_label_values_escaped(self, registry):
        c = registry.counter("repro_esc_total", labelnames=("path",))
        c.inc(path='a"b\\c\nd')
        line = [ln for ln in registry.render_text().splitlines() if ln[0] != "#"][0]
        assert '\\"' in line and "\\\\" in line and "\\n" in line

    @pytest.mark.parametrize(
        "value",
        [
            'quo"ted',
            "back\\slash",
            "new\nline",
            'all\\of"them\nat\\once"',
            "\\n",  # a literal backslash-n must NOT collide with newline
            "plain",
        ],
    )
    def test_label_value_escaping_round_trips(self, registry, value):
        """Unescaping the exposition recovers the exact original value."""
        c = registry.counter("repro_rt_total", labelnames=("v",))
        c.inc(v=value)
        line = [
            ln for ln in registry.render_text().splitlines() if ln[0] != "#"
        ][0]
        start = line.index('v="') + 3
        end = line.rindex('"')
        escaped = line[start:end]
        # the escaped form is a single physical line
        assert "\n" not in escaped
        # standard Prometheus unescaping: walk escape pairs left to right
        out, i = [], 0
        while i < len(escaped):
            if escaped[i] == "\\":
                nxt = escaped[i + 1]
                out.append({"n": "\n", '"': '"', "\\": "\\"}[nxt])
                i += 2
            else:
                out.append(escaped[i])
                i += 1
        assert "".join(out) == value

    def test_distinct_raw_values_stay_distinct_escaped(self, registry):
        # "\n" (backslash, n) and a real newline must not alias to the
        # same series in the exposition
        c = registry.counter("repro_alias_total", labelnames=("v",))
        c.inc(v="\\n")
        c.inc(v="\n")
        lines = [
            ln for ln in registry.render_text().splitlines() if ln[0] != "#"
        ]
        assert len(lines) == 2
        assert 'v="\\\\n"' in "\n".join(lines)
        assert 'v="\\n"' in "\n".join(lines)

    def test_snapshot_is_json_trivial(self, registry):
        registry.counter("repro_snap_total", "h", ("kind",)).inc(kind="x")
        registry.histogram("repro_snap_seconds", buckets=(1.0,)).observe(0.2)
        snap = registry.snapshot()
        json.dumps(snap)  # must round-trip
        assert snap["repro_snap_total"]["type"] == "counter"
        assert snap["repro_snap_total"]["values"] == [
            {"labels": {"kind": "x"}, "value": 1.0}
        ]
        assert snap["repro_snap_seconds"]["values"][0]["count"] == 1
