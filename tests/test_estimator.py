import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wagnersis.chain import _offset_width_sq
from wagnersis.errors import Infeasible, PreconditionViolated
from wagnersis.estimator import (
    CostQuery,
    CostReport,
    VARIANT_QUANTIZATION,
    VARIANT_ROUNDING,
    _GRID_BITS,
    _KAPPA,
    _min_weight_log2,
    best_abort,
    dilithium_presets,
    estimate,
    min_weight,
    stage_model,
)


def relaxed(query, log2N):
    """The estimate's initial weight, sigma_0 and relaxed-rule stages at a
    list size."""
    w, sigma0 = _min_weight_log2(query.m - query.n, log2N)
    return w, sigma0, stage_model(query.q, query.n, log2N, sigma0, _KAPPA[query.variant])


def score(query, log2N, stages=None, log2_scale=None):
    """``best_abort`` over the relaxed stages (or a prefix of them) at the
    estimate's pass rate: log2(N p) and the abort point, or log2 p of one
    sample when ``log2_scale`` is 0."""
    _, sigma0, table = relaxed(query, log2N)
    return best_abort(log2N if log2_scale is None else log2_scale, query.beta,
                      table if stages is None else table[:stages], sigma0,
                      query.m - query.n, query.n, min(1.0, 2 * query.beta / query.q))


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
        _, sigma0, stages = relaxed(self.Q2, 269.9)
        # stage 11 injects sigma_10 = 2^5 sigma_0; every stage i injects
        # sigma_{i-1} = 2^((i-1)/2) sigma_0 under the relaxed rule
        assert stages[10][2] / sigma0 == pytest.approx(2.0**5, rel=1e-12)
        assert all(dev == sigma0 * 2.0 ** (i / 2) for i, (_, _, dev) in enumerate(stages))

    def test_blocks_increase(self):
        _, _, stages = relaxed(self.Q2, 269.9)
        b = [bi for _, bi, _ in stages]
        p = [pi for pi, _, _ in stages]
        assert all(b2 > b1 for b1, b2 in zip(b, b[1:]))
        assert all(p2 < p1 for p1, p2 in zip(p, p[1:]))

    def test_stage_modulus_floor(self):
        assert all(p >= 2 for p, _, _ in relaxed(self.Q2, 269.9)[2])

    def test_infeasible_when_first_modulus_below_two(self):
        q = CostQuery(n=1, m=2, q=7, beta=3)
        assert relaxed(q, 1.0)[2] == []
        assert score(q, 1.0) == (-math.inf, None)
        with pytest.raises(Infeasible, match=re.escape("no success up to log2 N = 1.0")):
            estimate(q)


class TestIntegerRule:
    def test_integer_stages(self):
        # whole p in [2, min(q, N)], whole b in [1, rows left], covering n
        stages = stage_model(257, 8, 6, 0.25, _KAPPA[VARIANT_QUANTIZATION], integer=True)
        assert all(type(p) is int and 2 <= p <= 64 for p, _, _ in stages)
        assert all(type(b) is int and b >= 1 for _, b, _ in stages)
        assert sum(b for _, b, _ in stages) == 8

    def test_stage_cap(self):
        stages = stage_model(3, 1000, 1, 0.1, _KAPPA[VARIANT_QUANTIZATION], integer=True)
        assert len(stages) == 64 and all(b == 1 for _, b, _ in stages)

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 40), q=st.integers(3, 10**7), log2N=st.integers(1, 30),
           sigma0=st.floats(0.01, 3.0))
    def test_floored_width_clears_the_stage_width_rule(self, n, q, log2N, sigma0):
        # the guarantee _WIDTH_SLACK > _WIDTH_TOL exists for: every stage
        # width sqrt(2 pi) dev of the integer rule, scaled by (p/q)^2, clears
        # the stage width rule exactly
        kappa = _KAPPA[VARIANT_QUANTIZATION]
        stages = stage_model(q, n, log2N, sigma0, kappa, integer=True)
        for i, (p, b, dev) in enumerate(stages, start=1):
            width_sq = Fraction(dev * math.sqrt(2 * math.pi)) ** 2
            _offset_width_sq(i, p, q, b, width_sq)


class TestSuccessProbability:
    def test_small_sigma_limit(self):
        q = CostQuery(n=4, m=40, q=10007, beta=5000)
        _, _, table = relaxed(q, 20.0)
        covered = [sum(b for _, b, _ in table[:r]) for r in range(1, len(table) + 1)]
        valid = [r for r, c in enumerate(covered, start=1) if q.n - c >= 0]
        rp = min(valid, key=lambda r: q.n - covered[r - 1])
        log2_p, best_r = score(q, 20.0, stages=rp, log2_scale=0.0)
        # sigma stays far below beta here and ell is small: p close to 1
        assert best_r == rp
        assert 2.0 ** log2_p > 0.2

    def test_formula_identity_with_leftover(self):
        q = CostQuery(n=64, m=128, q=1009, beta=504)
        _, sigma0, table = relaxed(q, 30.0)
        ell = q.n - table[0][1]
        assert ell > 0
        sigma = 2.0 ** 0.5 * sigma0
        expect = math.erf(q.beta / (sigma * math.sqrt(2))) ** (q.m - ell) \
            * (2 * q.beta / q.q) ** ell
        log2_p, best_r = score(q, 30.0, stages=1, log2_scale=0.0)
        assert best_r == 1
        assert 2.0 ** log2_p == pytest.approx(expect, rel=1e-12)
        # beta < q/2 is a query invariant, so the min() clamp is a boundary
        # guard: at beta just under q/2 the factor is still 2 beta / q < 1
        assert 2 * q.beta / q.q < 1

    def test_rejects_overcovered_abort(self):
        q = CostQuery(n=4, m=40, q=10007, beta=1000)
        _, _, table = relaxed(q, 30.0)
        bad = next((r for r in range(1, len(table) + 1)
                    if q.n - sum(b for _, b, _ in table[:r]) < 0), None)
        assert bad is not None
        # the scorer never scores an abort point past n rows
        assert score(q, 30.0, stages=bad) == score(q, 30.0, stages=bad - 1)
        assert score(q, 30.0)[1] < bad


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
        k = round(rep.log2N / _GRID_BITS)
        assert rep.log2N == k * _GRID_BITS
        log2_np, rp = score(q, rep.log2N)
        assert log2_np > -1.0 and rp == rep.r_prime
        assert score(q, (k - 1) * _GRID_BITS)[0] <= -1.0

    @pytest.mark.parametrize("query, least", [
        # refused before (the search bracketed from 16 bits, past the pool)
        ((2, 8, 257, 100), 1.0),
        ((12, 17, 257, 62), 2.8),
        # answered above the least point before
        ((28, 47, 17, 4), 9.3),
        ((42, 66, 97, 17), 13.3),
    ])
    def test_least_grid_point(self, query, least):
        q = CostQuery(*query)
        rep = estimate(q)
        assert rep.log2N == pytest.approx(least, abs=1e-9)
        # every grid point from 1 bit up to the answer fails
        k = round(rep.log2N / _GRID_BITS)
        assert score(q, k * _GRID_BITS)[0] > -1.0
        assert all(score(q, j * _GRID_BITS)[0] <= -1.0 for j in range(10, k))

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


@pytest.mark.parametrize("call, error, fragment", [
    pytest.param(lambda: CostQuery(n=4, m=12, q=257, beta=3, variant="sieving"),
                 PreconditionViolated, "unknown variant 'sieving'", id="variant"),
    pytest.param(lambda: CostQuery(n=12, m=12, q=257, beta=3),
                 PreconditionViolated, "1 <= n < m", id="n-below-m"),
    pytest.param(lambda: min_weight(0, 16), PreconditionViolated, "m - n >= 1",
                 id="min-weight-dimension"),
    pytest.param(lambda: min_weight(8, 0), PreconditionViolated, "need at least one sample",
                 id="min-weight-samples"),
    # 2^w C(8, w) peaks at 1792 vectors
    pytest.param(lambda: min_weight(8, 1793), Infeasible, "even weight 8 yields fewer",
                 id="min-weight-pool"),
])
def test_typed_refusals(call, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)):
        call()
