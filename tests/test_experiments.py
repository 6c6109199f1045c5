"""Sweep datasets: shapes, orderings, determinism, manifests."""

import json
import math

import pytest

from qinlab import adversary, analytics, mechanisms
from qinlab.experiments import (
    ExperimentConfig,
    HEADERS,
    compute_rows,
    config_from_mapping,
    parse_config_file,
    run,
    run_budget_ratio,
    run_collusion_ratio,
    run_gcrm_alpha_sweeps,
    run_sybil_ratio,
)


def rows_by(rows, **filters):
    idx = {"mechanism": 0, "rho": 1}
    out = rows
    for key, value in filters.items():
        out = [r for r in out if r[idx[key]] == value]
    return out


class TestSybilRatioSweep:
    CONFIG = ExperimentConfig("sybil_ratio", lambda_max=10)

    def test_gcrm_peaks_then_drops_below_one(self):
        rows = run_sybil_ratio(self.CONFIG)
        for rho in self.CONFIG.rho_values:
            ratios = [r[3] for r in rows_by(rows, mechanism="gcrm", rho=rho)]
            alpha = mechanisms.map_rho(rho)["alpha_gcrm"]
            peak = analytics.optimal_sybil_count(alpha)
            star = analytics.lambda_star(alpha)
            assert ratios.index(max(ratios)) + 1 == peak
            assert all(r <= 1.0 for r in ratios[star - 1:])

    def test_cp_schedule_ratio_grows_and_stays_above_one(self):
        rows = run_sybil_ratio(self.CONFIG)
        for rho in self.CONFIG.rho_values:
            ratios = [r[3] for r in rows_by(rows, mechanism="geom", rho=rho)]
            assert all(r > 1.0 for r in ratios)
            assert all(a < b for a, b in zip(ratios, ratios[1:]))

    def test_gcrm_always_below_cp_schedule(self):
        rows = run_sybil_ratio(self.CONFIG)
        for rho in self.CONFIG.rho_values:
            geom = [r[3] for r in rows_by(rows, mechanism="geom", rho=rho)]
            gcrm = [r[3] for r in rows_by(rows, mechanism="gcrm", rho=rho)]
            assert all(g < d for g, d in zip(gcrm, geom))

    def test_rows_match_direct_recomputation(self):
        rows = run_sybil_ratio(self.CONFIG)
        for mech, rho, lam, ratio in rows:
            spec = mechanisms.specs_for_rho(rho)[mech]
            direct = adversary.sybil_gain(spec, self.CONFIG.position,
                                          self.CONFIG.n_base, lam).ratio
            assert ratio == direct


class TestCollusionRatioSweep:
    CONFIG = ExperimentConfig("collusion_ratio", gamma_max=10)

    def test_sp_schedule_break_even_at_two(self):
        rows = run_collusion_ratio(self.CONFIG)
        for rho in self.CONFIG.rho_values:
            first = rows_by(rows, mechanism="dgm", rho=rho)[0]
            assert first[2] == 2
            assert first[3] == pytest.approx(1.0, abs=1e-12)

    def test_gcrm_always_below_sp_schedule(self):
        rows = run_collusion_ratio(self.CONFIG)
        for rho in self.CONFIG.rho_values:
            dgm = [r[3] for r in rows_by(rows, mechanism="dgm", rho=rho)]
            gcrm = [r[3] for r in rows_by(rows, mechanism="gcrm", rho=rho)]
            assert all(g < d for g, d in zip(gcrm, dgm))

    def test_gcrm_crosses_one_past_break_even_size(self):
        rows = run_collusion_ratio(self.CONFIG)
        for rho in self.CONFIG.rho_values:
            alpha = mechanisms.map_rho(rho)["alpha_gcrm"]
            star = analytics.lambda_star(alpha)
            for _, _, size, ratio in rows_by(rows, mechanism="gcrm", rho=rho):
                assert (ratio > 1.0) == (size > star)


class TestBudgetRatioSweep:
    CONFIG = ExperimentConfig("budget_ratio", n_max=30, rho=0.6)

    def test_cp_schedule_column_is_constant_one(self):
        rows = run_budget_ratio(self.CONFIG)
        for _, _, value in rows_by(rows, mechanism="geom"):
            assert value == pytest.approx(1.0, abs=1e-12)

    def test_all_columns_within_budget(self):
        for _, _, value in run_budget_ratio(self.CONFIG):
            assert value <= 1.0 + 1e-12

    def test_gcrm_column_peaks_then_decreases(self):
        rows = run_budget_ratio(self.CONFIG)
        values = [r[2] for r in rows_by(rows, mechanism="gcrm")]
        alpha = mechanisms.map_rho(0.6)["alpha_gcrm"]
        peak = values.index(max(values)) + 1
        assert peak == analytics.optimal_path_length(alpha)
        assert peak == analytics.nearest_positive_int(analytics.n_prime(alpha))
        assert all(a > b for a, b in zip(values[peak - 1:], values[peak:]))


class TestGcrmAlphaSweeps:
    CONFIG = ExperimentConfig("gcrm_sybil_alpha",
                              alpha_values=(0.3, 0.5, 0.7), gamma_max=8)

    def test_sybil_rows_end_at_break_even(self):
        rows = run_gcrm_alpha_sweeps(self.CONFIG, "sybil")
        for alpha in self.CONFIG.alpha_values:
            sizes = [r[1] for r in rows if r[0] == alpha]
            star = analytics.lambda_star(alpha)
            assert sizes == list(range(1, star + 1))
            final = [r for r in rows if r[0] == alpha][-1]
            assert final[2] <= 1.0

    def test_break_even_column_non_decreasing_in_alpha(self):
        rows = run_gcrm_alpha_sweeps(self.CONFIG, "sybil")
        stars = [r[3] for r in rows]
        by_alpha = {r[0]: r[3] for r in rows}
        ordered = [by_alpha[a] for a in sorted(by_alpha)]
        assert all(a <= b for a, b in zip(ordered, ordered[1:]))
        assert all(isinstance(s, int) for s in stars)

    def test_peak_ratio_below_two(self):
        rows = run_gcrm_alpha_sweeps(self.CONFIG, "sybil")
        assert all(r[2] < 2.0 for r in rows)

    def test_half_alpha_frozen_ratios(self):
        rows = [r for r in run_gcrm_alpha_sweeps(self.CONFIG, "sybil")
                if r[0] == 0.5]
        expected = (7 / 6, 37 / 36, 175 / 216)
        assert [r[1] for r in rows] == [1, 2, 3]
        for row, value in zip(rows, expected):
            assert row[2] == pytest.approx(value, abs=1e-12)

    def test_collusion_profitability_threshold_grows_with_alpha(self):
        # pointwise ratios are not monotone in alpha at large merge sizes;
        # the robust pattern is the first profitable size moving right
        rows = run_gcrm_alpha_sweeps(self.CONFIG, "collusion")
        thresholds = []
        for alpha in self.CONFIG.alpha_values:
            sizes = [r[1] for r in rows if r[0] == alpha and r[2] > 1.0]
            thresholds.append(min(sizes))
            assert min(sizes) == analytics.lambda_star(alpha) + 1
        assert all(a <= b for a, b in zip(thresholds, thresholds[1:]))


class TestRunnerAndConfig:
    def test_csv_and_manifest_written(self, tmp_path):
        config = ExperimentConfig("budget_ratio", n_max=5,
                                  output_path=str(tmp_path / "b.csv"))
        path = run(config)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(HEADERS["budget_ratio"])
        assert len(lines) == 1 + 3 * 5
        manifest = json.loads(
            (tmp_path / "b.csv.manifest.json").read_text())
        assert "seed" not in manifest
        assert manifest["rows"] == 15
        assert manifest["config"]["experiment"] == "budget_ratio"

    def test_byte_identical_across_runs(self, tmp_path):
        blobs = []
        for name in ("one", "two"):
            config = ExperimentConfig("sybil_ratio", lambda_max=6,
                                      output_path=str(tmp_path / f"{name}.csv"))
            path = run(config)
            blobs.append(path.read_bytes())
            manifest = path.with_name(path.name + ".manifest.json")
            blobs.append(manifest.read_bytes().replace(name.encode(), b"X"))
        assert blobs[0] == blobs[2]
        assert blobs[1] == blobs[3]

    def test_csv_values_reparse_exactly(self, tmp_path):
        config = ExperimentConfig("collusion_ratio", gamma_max=4,
                                  output_path=str(tmp_path / "c.csv"))
        path = run(config)
        lines = path.read_text().splitlines()[1:]
        rows = compute_rows(config)
        for line, row in zip(lines, rows):
            mech, rho, size, ratio = line.split(",")
            assert (mech, float(rho), int(size)) == (row[0], row[1], row[2])
            assert float(ratio) == row[3]  # repr round-trips exactly

    def test_env_var_sets_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QINLAB_OUT_DIR", str(tmp_path / "outputs"))
        config = ExperimentConfig("budget_ratio", n_max=3)
        path = run(config)
        assert path.parent == tmp_path / "outputs"
        assert path.exists()

    def test_config_file_round_trip(self, tmp_path):
        text = (
            "# sweep configuration\n"
            "experiment = sybil_ratio\n"
            "rho_values = 0.2, 0.6\n"
            "lambda_max = 4\n"
            "budget = 2.0\n"
        )
        config_path = tmp_path / "sweep.cfg"
        config_path.write_text(text)
        config = parse_config_file(config_path)
        assert config.experiment == "sybil_ratio"
        assert config.rho_values == (0.2, 0.6)
        assert config.lambda_max == 4
        assert config.budget == 2.0

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig("unknown_experiment")
        with pytest.raises(ValueError):
            ExperimentConfig("sybil_ratio", rho_values=())
        with pytest.raises(ValueError):
            ExperimentConfig("budget_ratio", n_base=0)
        with pytest.raises(ValueError):
            config_from_mapping({"experiment": "sybil_ratio",
                                 "not_a_key": "1"})

    @pytest.mark.parametrize("key, value", [
        ("n_base", 2.7), ("lambda_max", True), ("n_max", "3.5"),
        ("rho", True), ("budget", "two"), ("rho_values", (0.2, False)),
        ("alpha_values", [None])])
    def test_mapping_values_not_coerced(self, key, value):
        # an int field takes an int or integer text, a float field a
        # number or float text; a bool or anything else is rejected
        with pytest.raises(ValueError, match=key):
            config_from_mapping({"experiment": "sybil_ratio", key: value})

    def test_mapping_numbers_and_text_accepted(self):
        config = config_from_mapping({
            "experiment": "sybil_ratio", "n_base": 4, "lambda_max": "5",
            "rho": 1, "budget": "2.5", "rho_values": (1, 0.5)})
        assert (config.n_base, config.lambda_max) == (4, 5)
        assert (config.rho, config.budget) == (1.0, 2.5)
        assert config.rho_values == (1.0, 0.5)

    def test_budget_scales_out_but_not_ratios(self, tmp_path):
        small = compute_rows(ExperimentConfig("sybil_ratio", lambda_max=3))
        big = compute_rows(ExperimentConfig("sybil_ratio", lambda_max=3,
                                            budget=7.0))
        for a, b in zip(small, big):
            assert a[:3] == b[:3]
            assert math.isclose(a[3], b[3], rel_tol=1e-12)
