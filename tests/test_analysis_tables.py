"""Pins for the reproduced paper tables (repro.analysis.tables).

The analytic refactor routes measures through closed forms; these pins
freeze ``table2`` and ``availability_trend`` on a small matrix so a future
change to any measure path cannot silently alter the reproduced Table 2.
Every column is a closed form or a deterministic bound for ``p < 1/3`` and is
pinned tightly; only M-Path's ``Fp`` beyond ``p >= 1/3`` is a seeded sample.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.tables import TABLE2_SYSTEMS, availability_trend, table2


def _rows_by_system(rows):
    return {row.system: row for row in rows}


class TestTable2Pins:
    def test_structure_at_n64(self):
        rows = table2(64, 0.125, rng=np.random.default_rng(0))
        assert [row.system for row in rows] == list(TABLE2_SYSTEMS)
        by_system = _rows_by_system(rows)
        # (n, max_b, resilience) per system — the paper's structural columns.
        expected = {
            "Threshold": (64, 15, 16),
            "Grid": (64, 2, 3),
            "M-Grid": (64, 3, 6),
            "RT(4,3)": (64, 3, 7),
            "boostFPP": (65, 1, 7),
            "M-Path": (64, 4, 5),
        }
        for system, (n, max_b, resilience) in expected.items():
            row = by_system[system]
            assert (row.n, row.max_b, row.resilience) == (n, max_b, resilience)

    def test_load_columns_at_n64(self):
        rows = _rows_by_system(table2(64, 0.125, rng=np.random.default_rng(0)))
        expected_loads = {
            "Threshold": 48 / 64,
            "Grid": 43 / 64,
            "M-Grid": 28 / 64,
            "RT(4,3)": (3 / 4) ** 3,
            "boostFPP": 16 / 65,
            "M-Path": 2 * (3 / 8) - (3 / 8) ** 2,  # k = ceil(sqrt(2*4+1)) = 3
        }
        for system, load in expected_loads.items():
            assert rows[system].load == pytest.approx(load, abs=1e-12), system
        # The dagger footnote: exactly these three are load-optimal.
        optimal = [row.system for row in rows.values() if row.load_optimal]
        assert optimal == ["M-Grid", "boostFPP", "M-Path"]

    def test_crash_probability_columns_at_n64(self):
        rows = _rows_by_system(table2(64, 0.125, rng=np.random.default_rng(0)))
        # Closed-form rows: tight pins.
        assert rows["Threshold"].crash_probability == pytest.approx(
            0.0017980889, abs=1e-8
        )
        assert rows["RT(4,3)"].crash_probability == pytest.approx(
            0.0064380071, abs=1e-8
        )
        assert rows["boostFPP"].crash_probability == pytest.approx(
            0.4022853720, abs=1e-8
        )
        assert rows["M-Path"].crash_probability == pytest.approx(1.0, abs=1e-9)
        # The grids' exact row/column DP values, not a sample of them.
        assert rows["Grid"].crash_probability == pytest.approx(
            0.9011593050719344, abs=1e-12
        )
        assert rows["M-Grid"].crash_probability == pytest.approx(
            0.28324115583556475, abs=1e-12
        )

    @pytest.mark.parametrize("n", [64, 256])
    def test_table_does_not_depend_on_rng_below_one_third(self, n):
        # Regression: Grid and M-Grid Fp were 20 000-trial samples (0.90365 /
        # 0.2848 under seed 0 at n = 64) although the exact DP exists.
        first = table2(n, 0.125, rng=np.random.default_rng(0))
        assert first == table2(n, 0.125, rng=np.random.default_rng(1))
        assert first == table2(n, 0.125)
        for name in ("Grid", "M-Grid"):
            assert availability_trend(
                name, [25, 81], 0.2, rng=np.random.default_rng(0)
            ) == availability_trend(name, [25, 81], 0.2, rng=np.random.default_rng(1))

    def test_rejects_non_square_n(self):
        from repro.exceptions import ConstructionError

        with pytest.raises(ConstructionError):
            table2(60)


class TestAvailabilityTrendPins:
    def test_threshold_trend_closed_form(self):
        values = availability_trend("Threshold", [16, 64], 0.1)
        assert values[0] == pytest.approx(5.0453449e-4, rel=1e-5)
        assert values[1] == pytest.approx(6.1964203e-15, rel=1e-4)

    def test_rt_trend_closed_form(self):
        values = availability_trend("RT(4,3)", [16, 64], 0.1)
        assert values[0] == pytest.approx(1.5289740e-2, rel=1e-5)
        assert values[1] == pytest.approx(1.3742259e-3, rel=1e-5)

    def test_condorcet_directions(self):
        # The Table 2 asymptotic column: Threshold/RT/boostFPP improve with
        # n, Grid/M-Grid degrade.
        rng = np.random.default_rng(2)
        improving = availability_trend("Threshold", [16, 64, 144], 0.1)
        assert improving[0] > improving[-1]
        degrading = availability_trend("M-Grid", [16, 64, 144], 0.1, rng=rng)
        assert degrading[0] < degrading[-1]

    def test_unknown_system_rejected(self):
        from repro.exceptions import ConstructionError

        with pytest.raises(ConstructionError):
            availability_trend("Octopus", [16], 0.1)
