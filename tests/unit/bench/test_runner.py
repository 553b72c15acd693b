"""Unit tests for the measurement helpers (ratio clamping, zero-alias programs)."""

import math

from repro.bench.runner import Measurement, clamp_percent, measure


def _measurement(lr=0, weihl=None):
    return Measurement(
        name="t",
        source_lines=1,
        icfg_nodes=1,
        lr_program_aliases=lr,
        lr_program_aliases_all=lr,
        lr_node_aliases=lr,
        lr_seconds=0.0,
        percent_yes=100.0,
        weihl_aliases=weihl,
    )


class TestWeihlRatio:
    def test_none_when_weihl_skipped(self):
        assert _measurement(lr=5, weihl=None).weihl_ratio is None

    def test_zero_alias_program_is_ratio_one(self):
        # 0/0 would be nan; both analyses found nothing — parity.
        assert _measurement(lr=0, weihl=0).weihl_ratio == 1.0

    def test_zero_lr_nonzero_weihl_avoids_inf(self):
        ratio = _measurement(lr=0, weihl=7).weihl_ratio
        assert math.isfinite(ratio)
        assert ratio == 7.0

    def test_ordinary_ratio(self):
        assert _measurement(lr=4, weihl=8).weihl_ratio == 2.0


class TestClampPercent:
    def test_nan_maps_to_vacuous_precision(self):
        assert clamp_percent(float("nan")) == 100.0

    def test_inf_maps_to_vacuous_precision(self):
        assert clamp_percent(float("inf")) == 100.0
        assert clamp_percent(float("-inf")) == 100.0

    def test_clamps_range(self):
        assert clamp_percent(-3.0) == 0.0
        assert clamp_percent(250.0) == 100.0
        assert clamp_percent(42.5) == 42.5


class TestZeroAliasProgram:
    SOURCE = "int main() { return 0; }"

    def test_measure_reports_finite_numbers(self):
        result = measure("empty", self.SOURCE, k=3, run_weihl=True)
        assert result.lr_program_aliases == 0
        assert result.percent_yes == 100.0  # vacuously precise
        assert result.weihl_ratio == 1.0
