"""Acceptance suite: every verification criterion at its stated scale.

Each test runs one registry check at full scale, prints a one-line verdict,
and asserts the pass flag. The same checks back the ``offset-risk verify``
command, so this module and the CLI manifest can never disagree.

Tolerances are pinned in the checks themselves:
  - deterministic inequalities: margins >= -1e-10 (or 1e-8/1e-12 where stated)
  - statistical claims: 3-standard-error or bootstrap-CI slack
  - rate study: log-log slope within [-1.25, -0.80]
  - sparse sweep: ratio bounded by the frozen constant 0.40
"""

from offset_risk.harness import verify
from offset_risk.harness.config import ExperimentConfig
from offset_risk.model import rng_stream

MASTER_SEED = 20240301
CONFIG = ExperimentConfig(command="verify", seed=MASTER_SEED)


def report(result):
    verdict = "PASS" if result.passed else "FAIL"
    print(
        f"[{verdict}] {result.check_id}: statistic={result.statistic:.6g} "
        f"margin={result.margin:.4g} runtime={result.runtime_s:.1f}s"
    )
    assert result.passed, f"{result.check_id} failed: {result.detail}"


class TestAcceptance:
    def test_01_star_offset_condition(self):
        # 1000 random instances, margin >= -1e-10 against every row; zero
        # failures tolerated.
        report(verify.check_star_offset(CONFIG))

    def test_02_self_localization(self):
        # 10000 random setups and samples, exact inequality, zero failures.
        report(verify.check_self_localization(CONFIG))

    def test_03_offset_below_local_fixed_point(self):
        # 50 star-shaped classes at 10000 replicates; at most two
        # statistical misses allowed.
        report(verify.check_offset_vs_local(CONFIG))

    def test_04_sparse_oracle_identity(self):
        # 100 random (features, signs, sparsity) draws: the sparse kernel
        # within relative 1e-8 of the largest per-support dense solve.
        report(verify.check_sparse_identity(CONFIG))

    def test_05_sparse_bound_shape(self):
        # d x k x gamma sweep at n = 64 with 1000 sign draws; ratios below
        # the frozen constant and exact inverse-gamma scaling per draw.
        report(verify.check_sparse_shape(CONFIG))

    def test_06_mgf_bound(self):
        # 10 setups at 100000 replicates, 8-point lambda grid: no bootstrap
        # lower band above the curve.
        report(verify.check_mgf_bound(CONFIG))

    def test_07_tail_form(self):
        # Same 10 setups: exceedance of 2*mean + 1.5 eta log(1/delta) within
        # delta + 3 binomial SE at delta in {0.1, 0.01}.
        report(verify.check_tail_bound(CONFIG))

    def test_08_aggregation_rate(self):
        # Star and midpoint 0.95-quantile slopes in [-1.25, -0.80] over
        # n = 64..4096 at 1000 replicates.
        report(verify.check_aggregation_rate(CONFIG))

    def test_09_mirror_descent_stopping(self):
        # 100 random linear instances, both mirror maps, all three stopping
        # conditions with measured Euler slack; analytic flow within 5*step.
        result = verify.check_mirror_descent(CONFIG)
        report(result)
        # The worst run that steps (t* > 0) rebuilds alone from its key.
        key = result.detail["worst_stepping_key"]
        margin, _, t_star = verify._mirror_row(CONFIG, rng_stream(*key), key[2])
        assert t_star > 0
        assert margin == result.detail["worst_stepping_margin"] >= result.statistic

    def test_10_bernstein_offset_duality(self):
        # 100 instances: margins agree within 1e-12 through the empirical
        # measure.
        report(verify.check_duality(CONFIG))
