import math

import pytest

from wagnersis.errors import Infeasible, PreconditionViolated
from wagnersis.estimator import (
    CostQuery,
    CostReport,
    VARIANT_QUANTIZATION,
    VARIANT_ROUNDING,
    _GRID_BITS,
    _log2_np,
    dilithium_presets,
    estimate,
    heuristic_schedule,
    min_weight,
    success_probability,
)


class TestMinWeight:
    def test_single_sample_needs_no_weight(self):
        assert min_weight(10, 1) == (0, 0.0)

    def test_dilithium_level2_weight(self):
        w, sigma0 = min_weight(1280, 2.0**269.9)
        assert w == 37
        assert sigma0 == pytest.approx(math.sqrt(37 / 1280), rel=1e-12)

    def test_dilithium_level3_weight(self):
        w, _ = min_weight(1536, 2.0**343.0)
        assert w == 47

    def test_defining_inequality_exact(self):
        w, _ = min_weight(100, 2.0**54)
        assert w + math.log2(math.comb(100, w)) >= 54
        assert w - 1 + math.log2(math.comb(100, w - 1)) < 54

    def test_infeasible(self):
        with pytest.raises(Infeasible):
            min_weight(4, 2.0**50)


class TestHeuristicSchedule:
    Q2 = CostQuery(n=1024, m=2304, q=8380417, beta=350209)

    def test_sigma_recurrence(self):
        table = heuristic_schedule(self.Q2, 269.9)
        assert table.sigma(10) / table.sigma0 == pytest.approx(2.0**5, rel=1e-12)

    def test_blocks_increase(self):
        table = heuristic_schedule(self.Q2, 269.9)
        assert all(b2 > b1 for b1, b2 in zip(table.b, table.b[1:]))
        assert all(p2 < p1 for p1, p2 in zip(table.p, table.p[1:]))

    def test_stage_modulus_floor(self):
        assert all(p >= 2 for p in heuristic_schedule(self.Q2, 269.9).p)

    def test_infeasible_when_first_modulus_below_two(self):
        q = CostQuery(n=1, m=2, q=7, beta=3)
        with pytest.raises(Infeasible):
            heuristic_schedule(q, 1.0)


class TestSuccessProbability:
    def test_small_sigma_limit(self):
        q = CostQuery(n=4, m=40, q=10007, beta=5000)
        table = heuristic_schedule(q, 20.0)
        valid = [r for r in range(1, table.max_stages + 1)
                 if table.ell(r, q.n) >= 0]
        rp = min(valid, key=lambda r: table.ell(r, q.n))
        p = success_probability(q, table, rp)
        # sigma stays far below beta here and ell is small: p close to 1
        assert p > 0.2

    def test_formula_identity_with_leftover(self):
        q = CostQuery(n=64, m=128, q=1009, beta=504)
        table = heuristic_schedule(q, 30.0)
        ell = table.ell(1, q.n)
        assert ell > 0
        sigma = table.sigma(1)
        expect = math.erf(q.beta / (sigma * math.sqrt(2))) ** (q.m - ell) \
            * (2 * q.beta / q.q) ** ell
        assert success_probability(q, table, 1) == pytest.approx(expect, rel=1e-12)
        # beta < q/2 is a query invariant, so the min() clamp is a boundary
        # guard: at beta just under q/2 the factor is still 2 beta / q < 1
        assert 2 * q.beta / q.q < 1

    def test_rejects_overcovered_abort(self):
        q = CostQuery(n=4, m=40, q=10007, beta=1000)
        table = heuristic_schedule(q, 30.0)
        bad = next((r for r in range(1, table.max_stages + 1)
                    if table.ell(r, q.n) < 0), None)
        assert bad is not None
        with pytest.raises(PreconditionViolated):
            success_probability(q, table, bad)


class TestEstimate:
    def test_dilithium_level2(self):
        rep = estimate(CostQuery(n=1024, m=2304, q=8380417, beta=350209))
        assert abs(rep.log2N - 269.9) <= 2.0
        assert abs(rep.w - 37) <= 2
        assert abs(rep.r_prime - 40) <= 2
        assert rep.sigma_rprime == pytest.approx(178277.2, abs=50)
        assert rep.ell == pytest.approx(28.9, abs=2)

    def test_monotone_in_beta(self):
        base = dict(n=256, m=640, q=8380417)
        hard = estimate(CostQuery(beta=100_000, **base))
        easy = estimate(CostQuery(beta=300_000, **base))
        assert easy.log2N <= hard.log2N

    def test_quantization_never_worse(self):
        for beta in (350209, 150000):
            qq = CostQuery(n=1024, m=2304, q=8380417, beta=beta,
                           variant=VARIANT_QUANTIZATION)
            qr = CostQuery(n=1024, m=2304, q=8380417, beta=beta,
                           variant=VARIANT_ROUNDING)
            assert estimate(qq).log2N <= estimate(qr).log2N

    def test_stopping_rule(self):
        q = CostQuery(n=1024, m=2304, q=8380417, beta=350209)
        rep = estimate(q)
        # N p > 1/2 at the optimum; one grid step below it is not
        assert _log2_np(q, rep.log2N)[0] > -1.0
        assert _log2_np(q, rep.log2N - _GRID_BITS)[0] <= -1.0

    def test_weight_matches_min_weight_at_optimum(self):
        q = CostQuery(n=1024, m=2304, q=8380417, beta=350209)
        rep = estimate(q)
        w, sigma0 = min_weight(q.m - q.n, 2.0**rep.log2N)
        assert (rep.w, rep.sigma0) == (w, sigma0)

    def test_beta_range_validation(self):
        # both sides of 0 < beta < q/2 fail with the condition in the message
        for beta in (0, -1, 9, 17):
            with pytest.raises(PreconditionViolated,
                               match=rf"^need 0 < beta < q/2, got beta={beta}$"):
                CostQuery(n=4, m=8, q=17, beta=beta)
        for beta in (1, 8):
            assert CostQuery(n=4, m=8, q=17, beta=beta).beta == beta


class TestPresets:
    def test_three_rows_verbatim(self):
        rows = [(p.n, p.m, p.q, p.beta) for p in dilithium_presets()]
        assert rows == [
            (1024, 2304, 8380417, 350209),
            (1536, 3072, 8380417, 724481),
            (2048, 4096, 8380417, 769537),
        ]

    def test_q_over_beta_ratios(self):
        ratios = [round(p.q / p.beta, 1) for p in dilithium_presets()]
        assert ratios == [23.9, 11.6, 10.9]


class TestReportFormats:
    def test_csv_row(self):
        rep = CostReport(log2N=269.9, w=37, sigma0=0.170018, r_prime=40,
                         sigma_rprime=178277.2, ell=28.9,
                         p_success_single=1e-82, variant="quantization",
                         feasible=True)
        assert rep.as_csv_row() == "269.9,37,0.1700,40,178277.2,28.9,quantization"
        assert CostReport.CSV_HEADER.split(",") == [
            "log2N", "w", "sigma0", "r_prime", "sigma_rprime", "ell", "variant"]

    def test_dict_fields(self):
        rep = estimate(CostQuery(n=1024, m=2304, q=8380417, beta=350209))
        d = rep.as_dict()
        assert set(d) >= {"log2N", "w", "sigma0", "r_prime", "sigma_rprime",
                          "ell", "p_success_single", "variant", "feasible"}
