"""Harness: config validation, outputs, rate study, verify manifest, CLI."""

import dataclasses
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from offset_risk import concentration
from offset_risk.complexity import SparseClassSpec, sparse_offset_bound_check
from offset_risk.harness import cli, verify
from offset_risk.harness.aggregate import fit_rate, run_aggregate
from offset_risk.harness.config import ExperimentConfig, config_hash
from offset_risk.harness.outputs import read_csv, write_csv, write_json, write_svg
from offset_risk.harness.verify import run_verify
from offset_risk.estimators import check_offset, star
from offset_risk.instances import random_instance, rate_study_instance
from offset_risk.model import Dictionary, Sample, draw_atom_ids, rng_stream


class TestConfig:
    def test_defaults_valid(self):
        cfg = ExperimentConfig()
        assert cfg.command == "verify" and cfg.n_grid[0] == 64

    def test_n_grid_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            ExperimentConfig(n_grid=(64, 64))
        with pytest.raises(ValueError, match="nonempty"):
            ExperimentConfig(n_grid=())

    def test_delta_range(self):
        with pytest.raises(ValueError, match="delta"):
            ExperimentConfig(delta=1.0)

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown config fields"):
            ExperimentConfig.from_dict({"bogus": 1})

    def test_unknown_command_estimator(self):
        with pytest.raises(ValueError):
            ExperimentConfig(command="train")
        with pytest.raises(ValueError):
            ExperimentConfig(estimator="boosting")

    def test_missing_instance_file(self):
        with pytest.raises(ValueError, match="does not exist"):
            ExperimentConfig(instance="/nonexistent/path.json")

    @pytest.mark.parametrize("instance, message", [
        (5, "instance must be"),
        ({"atoms": 3}, "missing field 'probs'"),
        ({"atoms": [{"y": 0.5}], "probs": [1.0], "b": 1.0, "dictionary": [[0.0]]},
         "atom 0 is missing field 'x'"),
    ])
    def test_malformed_instance_rejected_at_load(self, instance, message):
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(instance=instance)

    def test_malformed_instance_file_rejected_at_load(self, tmp_path):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({"atoms": [{"x": [0.0]}], "probs": [1.0], "b": 1.0,
                                    "dictionary": [[0.0]]}))
        with pytest.raises(ValueError, match="atom 0 is missing field 'y'"):
            ExperimentConfig(instance=str(path))

    @pytest.mark.parametrize("gamma", [0.0, -0.5, float("nan")])
    def test_nonpositive_gamma_rejected(self, gamma):
        with pytest.raises(ValueError, match="gamma must be positive"):
            ExperimentConfig(gamma=gamma)
        assert ExperimentConfig(gamma=None).gamma is None

    @pytest.mark.parametrize("value", [0.0, -1e-3])
    def test_nonpositive_epsilon_rejected(self, value):
        with pytest.raises(ValueError, match="epsilon must be positive"):
            ExperimentConfig(epsilon=value)

    @pytest.mark.parametrize("value", [0.0, -1e-3])
    def test_nonpositive_step_rejected(self, value):
        with pytest.raises(ValueError, match="step must be positive"):
            ExperimentConfig(step=value)

    @pytest.mark.parametrize("value", [0.0, -4.0])
    def test_nonpositive_c1_rejected(self, value):
        with pytest.raises(ValueError, match="c1 must be positive"):
            ExperimentConfig(c1=value)

    @pytest.mark.parametrize("field_name", ["gamma", "epsilon", "c1", "step"])
    def test_infinite_values_rejected(self, field_name):
        with pytest.raises(ValueError, match=f"{field_name} must be positive and finite"):
            ExperimentConfig(**{field_name: float("inf")})

    def test_unknown_mirror_map_rejected(self):
        with pytest.raises(ValueError, match="unknown mirror map 'hyperbolic'"):
            ExperimentConfig(mirror_map="hyperbolic")
        assert ExperimentConfig(mirror_map="negative_entropy").mirror_map == "negative_entropy"

    def test_unknown_check_ids_rejected(self):
        with pytest.raises(ValueError, match=r"unknown check ids: \['nonsense'\]"):
            ExperimentConfig.from_dict({"checks": ["duality", "nonsense"]})
        assert ExperimentConfig(checks=["duality"]).checks == ("duality",)

    @pytest.mark.parametrize("field_name, value", [("seed", "3"), ("seed", 1.5), ("seed", True),
                                                   ("replicates", 2.5), ("replicates", "10"),
                                                   ("replicates", False)])
    def test_non_integer_counts_rejected(self, field_name, value):
        with pytest.raises(ValueError, match=f"{field_name} must be an integer"):
            ExperimentConfig.from_dict({field_name: value})

    @pytest.mark.parametrize("field_name", ["gamma", "delta", "epsilon", "c1", "step"])
    def test_non_number_reals_rejected(self, field_name):
        for value in ("0.5", True, [0.5]):
            with pytest.raises(ValueError, match=f"{field_name} must be a number"):
                ExperimentConfig.from_dict({field_name: value})
        assert getattr(ExperimentConfig.from_dict({field_name: 0.5}), field_name) == 0.5

    def test_integer_reals_accepted(self):
        cfg = ExperimentConfig.from_dict({"gamma": 2, "epsilon": 1, "c1": 4, "step": 1})
        assert (cfg.gamma, cfg.epsilon, cfg.c1, cfg.step) == (2, 1, 4, 1)

    @pytest.mark.parametrize("value", ["46", 64])
    def test_n_grid_must_be_a_list(self, value):
        with pytest.raises(ValueError, match="n_grid must be a list"):
            ExperimentConfig.from_dict({"n_grid": value})

    @pytest.mark.parametrize("value", [[64, "128"], [64.0, 128.0], [True, 2]])
    def test_n_grid_must_hold_integers(self, value):
        with pytest.raises(ValueError, match="n_grid must hold integers"):
            ExperimentConfig.from_dict({"n_grid": value})

    @pytest.mark.parametrize("value", ["duality", "star_offset", 3])
    def test_checks_must_be_a_list(self, value):
        with pytest.raises(ValueError, match="checks must be a list"):
            ExperimentConfig.from_dict({"checks": value})

    def test_unhashable_mirror_map_rejected(self):
        with pytest.raises(ValueError, match=r"unknown mirror map \['euclidean'\]"):
            ExperimentConfig.from_dict({"mirror_map": ["euclidean"]})

    def test_non_string_check_ids_rejected(self):
        with pytest.raises(ValueError, match=r"unknown check ids: \[3, 'nonsense'\]"):
            ExperimentConfig.from_dict({"checks": [3, "duality", "nonsense"]})

    def test_hash_sensitivity(self):
        a = ExperimentConfig(seed=1)
        b = ExperimentConfig(seed=2)
        assert config_hash(a) != config_hash(b)
        assert config_hash(a) == config_hash(ExperimentConfig(seed=1))

    def test_from_file(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"command": "aggregate", "seed": 9, "n_grid": [8, 16]}))
        cfg = ExperimentConfig.from_file(p)
        assert cfg.seed == 9 and cfg.n_grid == (8, 16)


class TestOutputs:
    def test_empty_rows_header_only(self, tmp_path):
        p = write_csv(tmp_path / "empty.csv", ["a", "b"], [], {"seed": 1})
        header, rows = read_csv(p)
        assert header == ["a", "b", "seed"] and rows == []

    def test_csv_round_trip_exact(self, tmp_path):
        rows = [
            [1, 0.1, -1.7976931348623157e308, "text,with,commas"],
            [2, 1e-17, 3.141592653589793, 'quote"inside'],
        ]
        p = write_csv(tmp_path / "t.csv", ["i", "x", "y", "s"], rows,
                      {"config_hash": "abc123", "seed": 7})
        header, parsed = read_csv(p)
        assert header == ["i", "x", "y", "s", "config_hash", "seed"]
        for original, round_tripped in zip(rows, parsed):
            assert round_tripped[: len(original)] == original
            assert round_tripped[len(original):] == ["abc123", 7]

    def test_svg_one_polyline_per_series(self, tmp_path):
        p = write_svg(
            tmp_path / "plot.svg",
            {"alpha": ([1, 2, 4], [1.0, 0.5, 0.25]), "beta": ([1, 2, 4], [2.0, 1.0, 0.5])},
            title="test",
            provenance={"seed": 3},
            log_log=True,
        )
        text = p.read_text()
        assert text.count("<polyline") == 2
        assert text.startswith("<svg")
        assert '"seed": 3' in text

    def test_json_serializes_numpy(self, tmp_path):
        p = write_json(tmp_path / "s.json", {"arr": np.arange(3), "val": np.float64(0.5)})
        doc = json.loads(p.read_text())
        assert doc == {"arr": [0, 1, 2], "val": 0.5}

    def test_json_writes_non_finite_floats_as_null(self, tmp_path):
        doc = {
            "slope": float("nan"),
            "low": np.float64(-np.inf),
            "arr": np.array([1.0, np.nan, -np.inf]),
            "nested": [{"x": (np.inf, 2.5)}],
        }
        p = write_json(tmp_path / "s.json", doc)

        def reject(token):
            raise ValueError(f"invalid JSON constant {token}")

        parsed = json.loads(p.read_text(), parse_constant=reject)
        assert parsed == {"slope": None, "low": None, "arr": [1.0, None, None],
                          "nested": [{"x": [None, 2.5]}]}


class TestRateFit:
    def test_recovers_exact_power_law(self):
        fit = fit_rate([(n, 5.0 / n) for n in (64, 128, 256, 512)])
        assert fit.slope == pytest.approx(-1.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            fit_rate([(64, 0.0), (128, 1.0)])

    @pytest.mark.parametrize("points", [[], [(64, 0.1)]])
    def test_rejects_fewer_than_two_points(self, points):
        # One point once gave slope -0.277 with r^2 = 1 and a RankWarning.
        with pytest.raises(ValueError, match="at least two points"):
            fit_rate(points)

    def test_rejects_a_single_distinct_n(self):
        # Two points at one n once gave slope -0.235 and a RankWarning.
        with pytest.raises(ValueError, match="at least two distinct n"):
            fit_rate([(64, 0.1), (64, 0.2)])


class TestRunAggregate:
    def test_single_row_dictionary_gives_zero_excess(self):
        dist, dictionary = rate_study_instance()
        single = Dictionary(values=dictionary.values[:1], b=dictionary.b)
        for estimator in ("erm", "star", "midpoint"):
            cfg = ExperimentConfig(command="aggregate", estimator=estimator,
                                   n_grid=(8, 16), replicates=5, seed=0)
            study = run_aggregate(cfg, dist, single)
            assert all(ex == 0.0 for _, _, ex in study.rows)
            assert study.rate is None

    def test_quantile_column_nonincreasing_up_to_noise(self):
        dist, dictionary = rate_study_instance()
        cfg = ExperimentConfig(command="aggregate", estimator="star",
                               n_grid=(64, 256, 1024), replicates=400, seed=5)
        study = run_aggregate(cfg, dist, dictionary)
        rng = np.random.default_rng(0)
        ses = []
        for entry in study.summary:
            vals = np.array([ex for n, _, ex in study.rows if n == entry["n"]])
            boot = [
                np.quantile(rng.choice(vals, size=vals.size), 0.95) for _ in range(200)
            ]
            ses.append(np.std(boot))
        qs = [e["quantile"] for e in study.summary]
        for i in range(len(qs) - 1):
            assert qs[i + 1] <= qs[i] + 3.0 * (ses[i] + ses[i + 1])

    def test_deterministic_and_thread_invariant(self):
        dist, dictionary = rate_study_instance()
        cfg = ExperimentConfig(command="aggregate", estimator="midpoint",
                               n_grid=(16, 32), replicates=20, seed=11)
        first = run_aggregate(cfg, dist, dictionary)
        second = run_aggregate(cfg, dist, dictionary)
        assert first.rows == second.rows


class TestRunVerify:
    def test_subset_manifest_deterministic(self, tmp_path):
        cfg = ExperimentConfig(command="verify", seed=123, checks=("duality",))
        manifest_a, results_a = run_verify(cfg)
        manifest_b, _ = run_verify(cfg)
        assert manifest_a == manifest_b
        pa = write_json(tmp_path / "a.json", manifest_a)
        pb = write_json(tmp_path / "b.json", manifest_b)
        assert pa.read_bytes() == pb.read_bytes()
        assert manifest_a["all_pass"] is True
        assert results_a[0].runtime_s > 0

    def test_unknown_check_rejected(self):
        with pytest.raises(ValueError, match="unknown check"):
            run_verify(ExperimentConfig(checks=("nonsense",)))

    def test_injected_violation_fails_star_check(self):
        cfg = ExperimentConfig(command="verify", seed=0, gamma=10.0,
                               checks=("star_offset",))
        manifest, results = run_verify(cfg)
        assert manifest["all_pass"] is False
        assert manifest["checks"][0]["status"] == "fail"
        assert results[0].detail["failures"] > 0
        # The worst key rebuilds one of the violating instances alone.
        key = results[0].detail["worst_key"]
        row = verify._star_offset_row(cfg, rng_stream(*key), key[2])
        assert row[0] < -1e-10 and row[0] == results[0].statistic

    @pytest.mark.parametrize("check_id, evaluate, tag", [
        ("star_offset", verify._star_offset_row, "verify-star-offset"),
        ("sparse_identity", verify._sparse_identity_row, "verify-sparse-identity"),
        ("duality", verify._duality_row, "verify-duality"),
    ])
    def test_worst_key_rebuilds_the_margin_row(self, check_id, evaluate, tag):
        cfg = ExperimentConfig(command="verify", seed=0)
        result = getattr(verify, f"check_{check_id}")(cfg)
        seed, key_tag, index = key = result.detail["worst_key"]
        assert (seed, key_tag) == (0, tag) and isinstance(index, int)
        row = np.atleast_1d(evaluate(cfg, rng_stream(*key), index))
        assert row[0] == result.statistic
        # No earlier instance sets it: the key names the first one.
        for earlier in range(index):
            other = np.atleast_1d(evaluate(cfg, rng_stream(seed, tag, earlier), earlier))
            assert other[0] > row[0] if check_id == "star_offset" else other[0] < row[0]

    def test_perturbed_sparse_kernel_fails_sparse_identity(self, monkeypatch):
        # A relative error of 1e-6 in the production kernel is caught, and
        # the worst key replays the same perturbed draw to the statistic.
        original = verify.sparse_offset_values
        monkeypatch.setattr(verify, "sparse_offset_values",
                            lambda spec, sigmas: original(spec, sigmas) * (1.0 + 1e-6))
        cfg = ExperimentConfig(command="verify", seed=0)
        result = verify.check_sparse_identity(cfg)
        assert not result.passed and result.statistic > 1e-8 and result.margin < 0
        key = result.detail["worst_key"]
        assert verify._sparse_identity_row(cfg, rng_stream(*key), key[2]) == result.statistic

    def test_star_offset_margins_are_check_offset_margins(self):
        # Margins formed as (-gamma * quad + 0.0) - gap, as the report forms
        # them: -gamma * quad - gap would write the seed-0 statistic as -0.0.
        cfg = ExperimentConfig(command="verify", seed=0)
        result = verify.check_star_offset(cfg)
        assert result.statistic == 0.0 and math.copysign(1.0, result.statistic) == 1.0
        rng = rng_stream(*result.detail["worst_key"])
        dist, dictionary = random_instance(rng, max_atoms=12, max_m=10, b=1.0)
        sample = Sample(indices=draw_atom_ids(dist, int(rng.integers(2, 51)), rng))
        sol = star(sample, dist, verify._LOSS, dictionary)
        margins = [check_offset(sample, dist, verify._LOSS, dictionary, sol.weights, g,
                                gamma=1.0 / 18.0).margin for g in range(dictionary.m)]
        assert min(margins) == pytest.approx(result.statistic, abs=1e-15)

    def test_mgf_and_tail_checks_simulate_each_setup_once(self, monkeypatch):
        calls = []
        real_chunks = concentration._count_chunks

        def spy(*args, **kwargs):
            calls.append(args)
            return real_chunks(*args, **kwargs)

        monkeypatch.setattr(concentration, "_count_chunks", spy)
        verify._multiplier_rows.cache_clear()
        cfg = ExperimentConfig(command="verify", seed=0)
        assert verify.check_mgf_bound(cfg).passed and len(calls) == 10
        assert verify.check_tail_bound(cfg).passed and len(calls) == 10
        assert sorted(args[0] for args in calls) == [997 * i for i in range(10)]

    @pytest.mark.parametrize("check_id, column", [("mgf_bound", 2), ("tail_bound", 3)])
    def test_multiplier_worst_key_replays_to_the_statistic(self, check_id, column):
        cfg = ExperimentConfig(command="verify", seed=0)
        result = getattr(verify, f"check_{check_id}")(cfg)
        seed, tag, index = key = result.detail["worst_key"]
        assert (seed, tag) == (0, "verify-mgf-setups")
        row = verify._multiplier_row(cfg, rng_stream(*key), index)
        # mgf_bound's statistic is the violation count; its margin is minus
        # the worst CI excess, which the key's row sets.
        expected = -result.margin if check_id == "mgf_bound" else result.statistic
        assert row[column] == expected
        assert (row[0] == 0) if check_id == "mgf_bound" else row[4]  # no violation, tail holds

    def test_sparse_worst_cell_sets_the_max_ratio(self):
        cfg = ExperimentConfig(command="verify", seed=0)
        detail = verify.check_sparse_shape(cfg).detail
        d, k, gamma = detail["worst_cell"]
        phi = rng_stream(0, f"verify-sparse-shape-d{d}-k{k}").normal(size=(64, d))
        report = sparse_offset_bound_check(SparseClassSpec(features=phi, k=k, gamma=gamma),
                                           sigma_replicates=1000, seed=7)
        assert report.ratio == detail["max_ratio"]

    def test_sparse_ratios_match_one_call_per_gamma(self):
        phi = rng_stream(0, "verify-sparse-shape-d8-k2").normal(size=(64, 8))
        one = sparse_offset_bound_check(SparseClassSpec(features=phi, k=2, gamma=1.0),
                                        sigma_replicates=1000, seed=7)
        direct = [
            sparse_offset_bound_check(SparseClassSpec(features=phi, k=2, gamma=g),
                                      sigma_replicates=1000, seed=7).ratio
            for g in (0.5, 1.0, 2.0)
        ]
        assert verify._sparse_ratios(one) == direct


class TestCli:
    def run_cli(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "offset_risk.harness.cli", *args],
            capture_output=True,
            text=True,
        )

    def test_verify_exit_codes(self, tmp_path):
        good = tmp_path / "good.json"
        good.write_text(json.dumps({"command": "verify", "seed": 4,
                                    "checks": ["duality"]}))
        res = self.run_cli("verify", "--config", str(good), "--out", str(tmp_path / "o1"))
        assert res.returncode == 0, res.stderr
        assert "[pass] duality" in res.stdout
        manifest = json.loads((tmp_path / "o1" / "verify_manifest.json").read_text())
        assert manifest["all_pass"] is True

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"command": "verify", "seed": 4, "gamma": 10.0,
                                   "checks": ["star_offset"]}))
        res = self.run_cli("verify", "--config", str(bad), "--out", str(tmp_path / "o2"))
        assert res.returncode == 1
        assert "[FAIL] star_offset" in res.stdout
        manifest = json.loads((tmp_path / "o2" / "verify_manifest.json").read_text())
        key = manifest["checks"][0]["detail"]["worst_key"]
        fail_line = next(line for line in res.stdout.splitlines() if line.startswith("[FAIL]"))
        assert fail_line.endswith(f"worst_key {json.dumps(key)}")

    def test_verify_manifest_independent_of_hash_seed(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"command": "verify", "seed": 0,
                                   "checks": ["duality", "sparse_identity"]}))
        manifests = []
        for hash_seed in ("1", "2"):
            out = tmp_path / f"out{hash_seed}"
            res = subprocess.run(
                [sys.executable, "-m", "offset_risk.harness.cli", "verify",
                 "--config", str(cfg), "--out", str(out)],
                capture_output=True, text=True, env={**os.environ, "PYTHONHASHSEED": hash_seed},
            )
            assert res.returncode == 0, res.stderr
            manifests.append((out / "verify_manifest.json").read_bytes())
        assert manifests[0] == manifests[1]
        assert b"worst_key" in manifests[0]

    def test_aggregate_outputs_round_trip(self, tmp_path):
        cfg = tmp_path / "agg.json"
        cfg.write_text(json.dumps({
            "command": "aggregate", "seed": 2, "n_grid": [16, 32], "replicates": 10,
            "estimator": "star",
        }))
        out = tmp_path / "out"
        res = self.run_cli("aggregate", "--config", str(cfg), "--out", str(out),
                           "--format", "csv,json,svg")
        assert res.returncode == 0, res.stderr
        header, rows = read_csv(out / "aggregate_star.csv")
        assert header[:3] == ["n", "replicate", "excess_risk"]
        assert len(rows) == 20
        assert (out / "aggregate_star.svg").exists()
        doc = json.loads((out / "aggregate_star.json").read_text())
        assert doc["provenance"]["seed"] == 2
        assert set(doc["summary"]["rate"]) == {"slope", "intercept", "r_squared", "points"}

    def test_one_grid_point_fits_no_rate(self, tmp_path, capsys):
        cfg = tmp_path / "agg.json"
        cfg.write_text(json.dumps({"command": "aggregate", "n_grid": [64], "replicates": 50}))
        out = tmp_path / "out"
        assert cli.main(["aggregate", "--config", str(cfg), "--out", str(out)]) == 0
        assert "one grid point, no rate fit" in capsys.readouterr().out
        summary = json.loads((out / "aggregate_star.json").read_text())["summary"]
        assert summary["rate"] is None
        assert [entry["n"] for entry in summary["per_n"]] == [64]

    def test_instance_file_flows_through(self, tmp_path):
        instance = {
            "atoms": [{"x": [0.0], "y": 0.5}, {"x": [1.0], "y": -0.5}],
            "probs": [0.5, 0.5],
            "b": 1.0,
            "dictionary": [[0.5, -0.5], [0.2, 0.2], [-0.4, 0.1]],
        }
        ipath = tmp_path / "inst.json"
        ipath.write_text(json.dumps(instance))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "command": "aggregate", "seed": 1, "n_grid": [8, 16], "replicates": 5,
            "estimator": "erm", "instance": str(ipath),
        }))
        res = self.run_cli("aggregate", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert res.returncode == 0, res.stderr

    @pytest.mark.parametrize("doc", [{"gamma": 0}, {"epsilon": -1}, {"step": 0},
                                     {"c1": 0}, {"mirror_map": "hyperbolic"},
                                     {"checks": ["nonsense"]}])
    def test_bad_config_exits_2(self, tmp_path, capsys, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["verify", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert not (tmp_path / "verify_manifest.json").exists()

    @pytest.mark.parametrize("doc", [{"gamma": "0.5"}, {"n_grid": "46"}, {"seed": "3"},
                                     {"replicates": 2.5}, {"checks": "duality"}])
    def test_mistyped_config_exits_2(self, tmp_path, capsys, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["verify", "--config", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and next(iter(doc)) in err
        assert not (tmp_path / "verify_manifest.json").exists()

    @pytest.mark.parametrize("instance", [
        5,
        {"atoms": 3},
        {"atoms": [{"y": 0.5}], "probs": [1.0], "b": 1.0, "dictionary": [[0.0]]},
    ])
    def test_malformed_instance_exits_2(self, tmp_path, capsys, instance):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"instance": instance}))
        assert cli.main(["aggregate", "--config", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "instance" in err
        assert list(tmp_path.iterdir()) == [path]

    def test_nan_in_instance_file_exits_2(self, tmp_path, capsys):
        ipath = tmp_path / "inst.json"
        ipath.write_text('{"atoms": [{"x": [0.0], "y": NaN}], "probs": [1.0], "b": 1.0, '
                         '"dictionary": [[0.0]]}')
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"instance": str(ipath)}))
        assert cli.main(["aggregate", "--config", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "ys must be finite" in err
        assert sorted(tmp_path.iterdir()) == [path, ipath]

    @pytest.mark.parametrize("field_name", ["gamma", "epsilon", "c1", "step"])
    def test_infinite_config_value_exits_2(self, tmp_path, capsys, field_name):
        # JSON's Infinity loads as a float; {"gamma": Infinity} used to end in
        # a bracketing RuntimeError traceback with exit 1.
        path = tmp_path / "cfg.json"
        path.write_text(f'{{"{field_name}": Infinity}}')
        assert cli.main(["complexity", "--config", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and field_name in err
        assert list(tmp_path.iterdir()) == [path]

    def test_bad_format_rejected(self, tmp_path):
        res = self.run_cli("aggregate", "--format", "pdf", "--out", str(tmp_path))
        assert res.returncode == 2

    def test_concentration_exit_codes(self, tmp_path, monkeypatch, capsys):
        argv = ["concentration", "--seed", "3", "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        assert "[ok]" in capsys.readouterr().out

        real_tail = cli.tail_verify
        monkeypatch.setattr(
            cli, "tail_verify",
            lambda *a, **kw: dataclasses.replace(real_tail(*a, **kw), holds=False),
        )
        assert cli.main(argv) == 1
        assert "[VIOLATIONS]" in capsys.readouterr().out

        monkeypatch.setattr(cli, "tail_verify", real_tail)
        real_mgf = cli.mgf_verify
        monkeypatch.setattr(
            cli, "mgf_verify",
            lambda *a, **kw: dataclasses.replace(real_mgf(*a, **kw), violations=(0.1,)),
        )
        assert cli.main(argv) == 1
        assert "[VIOLATIONS]" in capsys.readouterr().out

    def test_degenerate_concentration_setup_exits_2(self, tmp_path, capsys):
        # One dictionary row makes the recentered class zero, and the zero
        # responses make the multipliers zero: eta = 0. This used to end in a
        # ZeroDivisionError traceback with exit code 1, read as [VIOLATIONS].
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n_grid": [8], "instance": {
            "atoms": [{"x": [0.0], "y": 0.0}, {"x": [1.0], "y": 0.0}],
            "probs": [0.5, 0.5], "b": 1.0, "dictionary": [[0.2, 0.3]]}}))
        out = tmp_path / "out"
        assert cli.main(["concentration", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "eta = 0" in err
        assert not out.exists()

    def test_mirror_exit_codes(self, tmp_path, monkeypatch, capsys):
        argv = ["mirror", "--seed", "3", "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        assert "not reached" not in capsys.readouterr().out

        real_mirror = cli.mirror_descent
        # A run that ends before delta falls below epsilon has no t*.
        monkeypatch.setattr(
            cli, "mirror_descent",
            lambda *a, **kw: dataclasses.replace(real_mirror(*a, **kw), t_star=None,
                                                 offset=None),
        )
        assert cli.main(argv) == 1
        assert "t* = not reached" in capsys.readouterr().out

    def test_mirror_reports_a_diverging_run(self, tmp_path, capsys):
        # Step 5 on the default instance overflows the scale guard at t = 10.
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"step": 5.0}))
        out = tmp_path / "out"
        assert cli.main(["mirror", "--config", str(path), "--out", str(out)]) == 1
        line = capsys.readouterr().out
        assert line.startswith("mirror[euclidean]: iterates diverged after t = 10 ")
        assert "t* = not reached" in line
        summary = json.loads((out / "mirror.json").read_text())["summary"]
        assert summary["t_star"] is None and summary["euler_excess"] is None
        assert summary["step"] == 5.0 and summary["offset_holds"] is None
        header, rows = read_csv(out / "mirror.csv")
        assert header[:3] == ["t", "delta", "bregman_to_reference"]
        assert [row[0] for row in rows] == [0.0, 5.0, 10.0]
