from __future__ import annotations

import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from xenopower.plot import render_power_plot
from xenopower.types import AnovaParams, PowerRow, PowerTable, ValidationError

GOLDEN = Path(__file__).parent / "golden" / "power_curves.svg"


def grid_table(n_values=range(3, 11), m_values=range(2, 9)) -> PowerTable:
    # smooth synthetic power surface rising in both n and m
    rows = tuple(
        PowerRow(
            n=n, m=m, total_animals=2 * n * m,
            power=round(min(100.0, 14.0 * (n - 2) ** 0.5 + 10.5 * m ** 0.7), 4),
            convergence=100.0,
        )
        for n in n_values
        for m in m_values
    )
    params = AnovaParams(beta0=0.0, beta=0.8, tau2=0.1, sigma2=1.0)
    return PowerTable(rows=rows, params=params, sim=500, alpha=0.05, seed=1)


class TestRendering:
    def test_byte_identical_re_render(self):
        table = grid_table()
        a = render_power_plot(table, 0.8, (0.0, 1.0))
        b = render_power_plot(table, 0.8, (0.0, 1.0))
        assert a == b

    def test_matches_golden_file(self):
        svg = render_power_plot(grid_table(), 0.8, (0.0, 1.0))
        assert svg == GOLDEN.read_text()

    def test_one_series_per_line_count_with_legend(self):
        svg = render_power_plot(grid_table(), 0.8, (0.0, 1.0))
        assert svg.count("<polyline") == 8
        for n in range(3, 11):
            assert f">n={n}</text>" in svg
        assert "stroke-dasharray" in svg  # target-power reference line

    def test_reference_line_position(self):
        svg = render_power_plot(grid_table(), 0.8, (0.0, 1.0))
        # y-axis spans 24..428 top-down, so 0.8 sits at 24 + 0.2*404
        assert 'y1="104.80"' in svg

    def test_single_cell_table_is_valid_svg(self):
        table = grid_table(n_values=(3,), m_values=(2,))
        svg = render_power_plot(table, 0.8, (0.0, 1.0))
        assert svg.count("<polyline") == 0
        assert svg.count("<circle") == 1
        ET.fromstring(svg)

    def test_clipping_to_y_range(self):
        table = grid_table()
        svg = render_power_plot(table, 0.8, (0.3, 0.9))
        ET.fromstring(svg)
        # no marker may sit above the top frame line (y < 24)
        for part in svg.split("<circle"):
            if 'cy="' in part:
                cy = float(part.split('cy="')[1].split('"')[0])
                assert 24.0 - 1e-9 <= cy <= 428.0 + 1e-9


class TestValidation:
    def test_empty_table_rejected(self):
        params = AnovaParams(beta0=0.0, beta=0.0, tau2=0.0, sigma2=1.0)
        table = PowerTable(rows=(), params=params, sim=1, alpha=0.05, seed=1)
        with pytest.raises(ValidationError, match="empty"):
            render_power_plot(table, 0.8, (0.0, 1.0))

    @pytest.mark.parametrize("y_range", [(0.5, 0.5), (-0.1, 1.0), (0.0, 1.2), (0.9, 0.1)])
    def test_bad_y_range_rejected(self, y_range):
        with pytest.raises(ValidationError, match="y_range"):
            render_power_plot(grid_table(), 0.8, y_range)
