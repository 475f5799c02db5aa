import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_systematic
from wagnersis import solvers
from wagnersis.errors import PreconditionViolated
from wagnersis.solvers import (
    VERDICT_NORM,
    VERDICT_NOT_IN_LATTICE,
    VERDICT_VALID,
    VERDICT_ZERO,
    _norm_bound,
    _norm_limit,
    solve_sis_inf,
    solve_sis_l2,
    verify,
)
from wagnersis.wagner import MODE_HEURISTIC, MODE_PROVABLE, RunStats, Schedule
from wagnersis.zqlin import SisInstance, Solution, int_array, norm_stat, random_instance


class TestVerify:
    def test_valid(self):
        inst = SisInstance.create([[1, 1]], 3, beta=2)
        assert verify(inst, (1, 2)) == VERDICT_VALID

    def test_zero(self):
        inst = SisInstance.create([[1, 1]], 3, beta=2)
        assert verify(inst, (0, 0)) == VERDICT_ZERO

    def test_norm_exceeded_after_membership(self):
        inst = SisInstance.create([[1, 1]], 3, beta=2)
        assert verify(inst, (3, 0)) == VERDICT_NORM  # 3 = 0 mod 3 but 3 > 2

    def test_not_in_lattice_first(self):
        inst = SisInstance.create([[1, 1]], 3, beta=2)
        assert verify(inst, (1, 1)) == VERDICT_NOT_IN_LATTICE
        assert verify(inst, (5, 0, 0)) == VERDICT_NOT_IN_LATTICE  # wrong length

    @pytest.mark.parametrize("x", [[5.9, 0.2, 0, 0, 0, 0], [5.0, 0, 0, 0, 0, 0],
                                   [True, 0, 0, 0, 0, 0], ["5", 0, 0, 0, 0, 0]])
    def test_non_integer_entries_not_in_lattice(self, x):
        # int() truncates the floats and the string to (5, 0, 0, 0, 0, 0),
        # which is in the lattice
        inst = random_instance(2, 6, 5, seed=11)
        assert verify(inst, [5, 0, 0, 0, 0, 0]) == VERDICT_VALID
        assert verify(inst, np.array([5, 0, 0, 0, 0, 0])) == VERDICT_VALID
        assert verify(inst, x) == VERDICT_NOT_IN_LATTICE

    def test_int64_matrix_beyond_int64_modulus(self):
        # A x mod q for an int64 matrix given to the constructor with q >= 2^63
        inst = SisInstance(n=1, m=2, q=2**64 + 13, A=np.array([[5, 1]]))
        assert verify(inst, [1, -5]) == VERDICT_VALID

    def test_l2_norm_kind(self):
        inst = SisInstance.create([[1, 1]], 3, beta=2, norm_kind="l2")
        assert verify(inst, (1, 2)) == VERDICT_NORM  # sqrt(5) > 2
        inst2 = SisInstance.create([[1, 1]], 3, beta=3, norm_kind="l2")
        assert verify(inst2, (1, 2)) == VERDICT_VALID


class TestFilters:
    def test_exact_boundary_comparison(self):
        # the comparison _solve and verify make
        assert norm_stat([4, -4], "linf") <= _norm_limit(4.0, "linf")
        assert norm_stat([5], "linf") > _norm_limit(4.999999999, "linf")
        assert norm_stat([3, 4], "l2") <= _norm_limit(5.0, "l2")
        assert norm_stat([3, 4], "l2") > _norm_limit(4.9999999999, "l2")

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_integer_limits_match_fraction_comparison(self, data):
        # beta at an integer k, or a dyadic rational just either side of it;
        # entries near +-k or small, so the comparisons are tight, and some
        # beyond 2^63
        k = data.draw(st.one_of(st.integers(0, 64), st.integers(2**52, 2**53),
                                st.integers(2**63, 2**70)))
        beta = data.draw(st.one_of(
            st.just(Fraction(k)),
            st.integers(1, 80).map(lambda j: Fraction(k) + Fraction(1, 2**j)),
            st.integers(1, 80).map(lambda j: Fraction(k) - Fraction(1, 2**j)),
            st.sampled_from([math.nextafter(float(k), math.inf),
                             math.nextafter(float(k), -math.inf)])))
        if beta < 0:
            beta = -beta
        if data.draw(st.booleans()) and float(beta) == beta:
            beta = float(beta)
        x = data.draw(st.lists(st.one_of(st.integers(k - 2, k + 2), st.integers(-k - 2, -k + 2),
                                         st.integers(-3, 3), st.integers(-2**70, 2**70)),
                               max_size=4))
        b = Fraction(beta)
        assert (norm_stat(x, "linf") <= _norm_limit(beta, "linf")) == all(abs(v) <= b for v in x)
        assert (norm_stat(x, "l2") <= _norm_limit(beta, "l2")) == (sum(v * v for v in x) <= b * b)

    def test_sisx_rejects_q_multiples(self, monkeypatch):
        # (q, 0, ..., 0) is always in the lattice and short enough in l2 for
        # large beta, but it is 0 mod q and must not count for the x-variant;
        # the solve keeps only rows nonzero mod q, for object rows and for
        # int64 rows at a q past int64, whatever the parity of the first
        # nonzero residue (a row like (2, 0, 0) is kept).
        sched = Schedule(mode=MODE_HEURISTIC, r=1, N=1, p=(2,), b=(1,), s0_sq=Fraction(1))
        for q in (257, 2**64 + 13):
            assert not _nonzero_mod_q([q, 0, 0], q)
            assert _nonzero_mod_q([q, 1, 0], q)
            inst = SisInstance.create([[1, 2, 3]], q)
            for outputs, kept in (
                    (int_array([[q, 0, 0], [0, -2 * q, 0], [2, 0, 0], [q, 1, 0]]),
                     [(2, 0, 0), (q, 1, 0)]),
                    (np.array([[0, 0, 0], [0, -1, 0]]), [(0, -1, 0)])):
                monkeypatch.setattr(solvers, "gaussian_wagner",
                                    lambda *a, **kw: (outputs, RunStats(mode=MODE_HEURISTIC)))
                report = solve_sis_l2(inst, 0.5, 2.0**-10, MODE_HEURISTIC, 0, schedule=sched)
                assert [sol.x for sol in report.solutions] == kept


    @pytest.mark.parametrize("norm_kind", ["linf", "l2"])
    def test_instance_beta_past_the_float_range(self, norm_kind, monkeypatch):
        # an instance beta of 10^400 has no double: the solve compares it
        # with its own bound exactly, reports its own bound, and keeps the
        # rows within it
        inst = SisInstance.create([[1, 2, 3]], 257, beta=10**400, norm_kind=norm_kind)
        outputs = np.array([[0, 0, 0], [1, 1, -1], [1000, 0, 0]])
        monkeypatch.setattr(solvers, "gaussian_wagner",
                            lambda *a, **kw: (outputs, RunStats(mode=MODE_HEURISTIC)))
        sched = Schedule(mode=MODE_HEURISTIC, r=1, N=1, p=(2,), b=(1,), s0_sq=Fraction(1))
        solve = solve_sis_inf if norm_kind == "linf" else solve_sis_l2
        report = solve(inst, 3.0, 2.0**-10, MODE_HEURISTIC, 0, schedule=sched)
        assert report.norm_bound_used == _norm_bound(inst, 3.0, norm_kind)
        assert [sol.x for sol in report.solutions] == [(1, 1, -1)]


def _nonzero_mod_q(x, q: int) -> bool:
    """The l2 solver's requirement on a solution, one row at a time: x is not
    0 modulo q."""
    return any(int(v) % q for v in x)


def _filter_reference(outputs, limits, accept, norm_kind):
    """The solutions a solve keeps from the sampler's rows, one row at a
    time over Python integers."""
    sols = []
    for row in outputs.tolist():
        xs = [int(v) for v in row]
        if accept(xs) and all(norm_stat(xs, kind) <= limit for kind, limit in limits):
            sols.append(Solution.from_vector(xs, norm_kind))
            if len(sols) == 16:
                break
    return sols


class TestSolveFilter:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(m=st.integers(1, 5), norm_kind=st.sampled_from(["linf", "l2"]),
           inst_kind=st.sampled_from(["linf", "l2"]),
           inst_beta=st.sampled_from([None, 3, 2**31, 2**33, 2**64]),
           f=st.sampled_from([0.5, 3.0, 1e-12]), wide=st.booleans(), data=st.data())
    def test_matches_per_row_reference(self, m, norm_kind, inst_kind, inst_beta,
                                       f, wide, data):
        # entries near the limits, squares past int64 (|x| >= 2^32), the
        # int64 ends, object entries past 2^63, and instance betas whose
        # integer limits (2^64, 2^66 or 2^128) pass 2^63
        q = 5
        inst = SisInstance.create([[1] * m], q, beta=inst_beta, norm_kind=inst_kind)
        entry = st.one_of(st.integers(-4, 4), st.sampled_from(
            [q, 2**31, -(2**32), 2**33 + 1, (1 << 63) - 1, -(1 << 63)]),
            st.integers(-(1 << 63), (1 << 63) - 1))
        if wide:
            entry = st.one_of(entry, st.sampled_from([1 << 63, -(1 << 64), 1 << 70]))
        rows = data.draw(st.lists(st.lists(entry, min_size=m, max_size=m), max_size=40))
        outputs = np.array(rows, dtype=object if wide else np.int64).reshape(len(rows), m)
        sched = Schedule(mode=MODE_HEURISTIC, r=1, N=1, p=(2,), b=(1,), s0_sq=Fraction(1))
        solve = solve_sis_inf if norm_kind == "linf" else solve_sis_l2
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solvers, "gaussian_wagner",
                       lambda *a, **kw: (outputs, RunStats(mode=MODE_HEURISTIC)))
            report = solve(inst, f, 2.0**-10, MODE_HEURISTIC, 0, schedule=sched)
        limits = [(norm_kind, _norm_limit(_norm_bound(inst, f, norm_kind), norm_kind))]
        if inst_beta is not None:
            limits.append((inst_kind, _norm_limit(inst.beta, inst_kind)))
        accept = any if norm_kind == "linf" else (lambda xs: _nonzero_mod_q(xs, q))
        assert report.solutions == _filter_reference(outputs, limits, accept, norm_kind)


class TestSolveInf:
    F = 4 * math.sqrt(math.log(20))  # beta = q/4 at m = 20

    def test_heuristic_desk_scale(self):
        wins = 0
        for seed in range(10):
            inst = make_systematic(8, 20, 257, seed=seed, beta=64)
            rep = solve_sis_inf(inst, self.F, 2.0**-10, MODE_HEURISTIC, seed)
            if rep.success:
                wins += 1
                for sol in rep.solutions:
                    assert verify(inst, sol.x) == VERDICT_VALID
        assert wins >= 5

    def test_report_round_trips_json(self):
        inst = make_systematic(8, 20, 257, seed=0)
        rep = solve_sis_inf(inst, self.F, 2.0**-10, MODE_HEURISTIC, 1)
        import json

        doc = json.loads(rep.to_json())
        assert doc["success"] == rep.success
        assert doc["attempts"] == rep.attempts

    def test_provable_epsilon_precondition(self):
        inst = make_systematic(8, 20, 257, seed=0)
        with pytest.raises(PreconditionViolated):
            solve_sis_inf(inst, 4.0, 1 / 20, MODE_PROVABLE, 0)  # eps = 1/m

    @pytest.mark.parametrize("mode", [MODE_PROVABLE, MODE_HEURISTIC])
    @pytest.mark.parametrize("eps", [0.0, -1.0, math.nan])
    def test_epsilon_must_be_positive(self, mode, eps):
        inst = make_systematic(8, 20, 257, seed=0)
        with pytest.raises(PreconditionViolated, match="epsilon > 0"):
            solve_sis_inf(inst, self.F, eps, mode, 0)

    @pytest.mark.parametrize("mode, error", [
        (MODE_HEURISTIC, "is not solve mode"),
        (MODE_PROVABLE, r"q\^\(1-n/m\) >= 6"),
    ])
    def test_schedule_must_match_the_mode(self, mode, error):
        # a provable schedule under a heuristic solve would run the provable
        # sampler and skip every provable precondition
        inst = make_systematic(2, 8, 5, seed=0)
        sched = Schedule(mode=MODE_PROVABLE, r=1, N=12, p=(2,), b=(2,),
                         s0_sq=Fraction(64))
        with pytest.raises(PreconditionViolated, match=error):
            solve_sis_inf(inst, 1.0, 2.0**-10, mode, 3, schedule=sched)

    def test_bound_past_the_float_range(self):
        # beta = (q/f) sqrt(ln m) overflows a double at f = 1e-320: a typed
        # refusal before any limit is formed, with or without a schedule
        inst = make_systematic(2, 8, 257, seed=0)
        sched = Schedule(mode=MODE_HEURISTIC, r=1, N=12, p=(2,), b=(2,), s0_sq=Fraction(64))
        for kw in ({}, {"schedule": sched}):
            with pytest.raises(PreconditionViolated, match="must be a finite double"):
                solve_sis_inf(inst, 1e-320, 2.0**-10, MODE_HEURISTIC, 0, **kw)

    def test_provable_warns_about_asymptotics(self):
        inst = make_systematic(8, 20, 257, seed=0)
        eps = 0.9 / (20 * 257**4)
        with pytest.warns(UserWarning):
            with pytest.raises(Exception):
                # schedule construction fails at this size, after the warning
                solve_sis_inf(inst, 4.0, eps, MODE_PROVABLE, 0)


class TestSolveL2:
    def test_solutions_nonzero_mod_q(self):
        inst = make_systematic(8, 20, 257, seed=2)
        rep = solve_sis_l2(inst, 12.0, 2.0**-10, MODE_HEURISTIC, 3)
        for sol in rep.solutions:
            assert _nonzero_mod_q(sol.x, 257)

    def test_trivial_regime_flagged(self):
        inst = make_systematic(8, 20, 257, seed=2)
        # beta = (q/f) sqrt(m) >= q sqrt(n/12) iff f <= sqrt(12 m / n)
        rep = solve_sis_l2(inst, 2.0, 2.0**-10, MODE_HEURISTIC, 3)
        assert rep.trivial_regime
        rep2 = solve_sis_l2(inst, 12.0, 2.0**-10, MODE_HEURISTIC, 3)
        assert not rep2.trivial_regime


@pytest.mark.parametrize("call, fragment", [
    pytest.param(lambda inst: solve_sis_inf(inst, 4.0, 2.0 ** -10, "greedy", 0),
                 "unknown solve mode 'greedy'", id="solve-mode"),
    pytest.param(lambda inst: solvers.choose_schedule(inst, 4.0, 2.0 ** -10, "greedy"),
                 "unknown solve mode 'greedy'", id="schedule-mode"),
    # eps <= 1/(m q^4), and sqrt(ln(1/eps)) = 26.3 > q / f = 17
    pytest.param(lambda inst: solve_sis_inf(inst, 1.0, 1e-300, MODE_PROVABLE, 0),
                 "q/f >= sqrt(ln(1/eps))", id="provable-q-over-f"),
])
def test_typed_refusals(call, fragment):
    with pytest.raises(PreconditionViolated, match=re.escape(fragment)):
        call(make_systematic(2, 8, 17, seed=0))
