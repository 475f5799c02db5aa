"""Byte-identity pins: over the parameter choosers, the estimator and the
brute-force oracles (every value they return, as its ``repr`` or its typed
error), and over the array sampler's streams (draws and counts), each
hashed together."""

import hashlib
import json
import math
from fractions import Fraction

import numpy as np

from helpers import ScriptedUniforms
from wagnersis import dgauss, estimator, oracles, wagner, zqlin
from wagnersis.errors import WagnerSisError
from wagnersis.rngutil import derive_np_rng, derive_rng

PROVABLE_EPS = 15 * math.exp(-14.96)  # ln(3/eps') = 14.96, a feasible regime


def _record(lines, fn, *args):
    try:
        lines.append(repr(fn(*args)))
    except WagnerSisError as exc:
        lines.append(f"{type(exc).__name__}: {exc}")


def _pin_lines():
    lines = []
    for n, m in ((4, 12), (6, 16), (8, 20), (10, 24), (12, 30)):
        for q in (127, 257, 1021, 65537):
            for ratio in (4.0, 6.92, 12.0, 20.0):
                _record(lines, wagner.choose_heuristic_params, n, m, q, q / ratio)
    for args in ((12, 24, 257, 4.0, PROVABLE_EPS), (16, 32, 257, 4.0, PROVABLE_EPS),
                 (24, 48, 1021, 4.0, PROVABLE_EPS), (8, 16, 257, 4.0, PROVABLE_EPS),
                 (12, 8, 257, 4.0, PROVABLE_EPS), (12, 24, 256, 4.0, PROVABLE_EPS),
                 (12, 12, 13, 2.0, 1e-9), (12, 24, 257, 4.0, 1 / 12),
                 (12, 24, 257, 200.0, PROVABLE_EPS)):
        _record(lines, wagner.choose_provable_params, *args)
    for args in ((12, 257, 4.0), (512, 2 ** 20, 2 ** 5), (32, 65537, 16.0),
                 (16, 64, 64.0)):
        _record(lines, wagner.choose_naive_params, *args)
    for name in sorted(estimator.PRESETS):
        for variant in (estimator.VARIANT_ROUNDING, estimator.VARIANT_QUANTIZATION):
            query = estimator.CostQuery(*estimator.PRESETS[name], variant=variant)
            lines.append(json.dumps(estimator.estimate(query).as_dict(), sort_keys=True))
    A = np.array([[1, 2, 1]])
    for enum, param in ((oracles.enum_z(), dgauss.GaussParam.make(s=2, c=0.3)),
                        (oracles.enum_coset_z(0.5), dgauss.GaussParam.make(s=3, c=0)),
                        (oracles.enum_scaled_zn(1.5, 2),
                         dgauss.GaussParam.make(s=2, c=(0.3, 0.7))),
                        (oracles.enum_qary(A, 3), dgauss.GaussParam.make(s=2, c=0))):
        lines.append(repr(oracles.rho_bruteforce(enum, param, 12.0)))
        lines.append(repr(_pmf_items(oracles.pmf_bruteforce(enum, param, 12.0))))
    lines.append(repr(oracles.rho_bruteforce(oracles.enum_z(),
                                             dgauss.GaussParam.make(s=1.5, c=-0.25))))
    lines.append(repr([
        oracles.eta_scaled_zn_bruteforce(1.0, 3, 2.0 ** -10),
        oracles.eta_scaled_zn_bruteforce(Fraction(5, 2), 2, 2.0 ** -8),
        oracles.eta_qary_bruteforce(A, 3, 2.0 ** -12),
        oracles.eta_qary_bruteforce(np.array([[1, 3, 4], [0, 1, 2]]), 5, 2.0 ** -8),
        oracles.lambda1_inf_bruteforce(np.array([[1, 3, 4, 2, 7], [0, 1, 2, 5, 9]]), 11),
        oracles.lambda1_inf_bruteforce(np.array([[1, 1]]), 5),
    ]))
    return lines


def _pmf_items(pmf):
    """The sorted (key, prob) pairs of a (points, probs) pmf, each point keyed
    as the pinned dict form keyed it: integral floats as ints, one
    coordinate as a scalar, several as a tuple."""
    points, probs = pmf
    keys = [tuple(int(v) if isinstance(v, float) and v.is_integer() else v for v in row)
            for row in points.tolist()]
    return sorted(zip([k[0] if len(k) == 1 else k for k in keys], probs.tolist()))


def test_outputs_match_pin():
    # sha256 computed at commit e33809b, before the success model, the q-ary
    # preconditions and the brute-force oracle bodies each got one home
    digest = hashlib.sha256("\n".join(_pin_lines()).encode()).hexdigest()
    assert digest == \
        "3d382207a59dc864e0925c338e9295adce6c82bd86607b7166f0af3a064f972d"


def _sampler_lines(monkeypatch):
    lines = []

    def draw(s_sq, c_num, c_den, rng, exact_rng):
        out, counts, _ = dgauss._draw_z_array(s_sq, c_num, c_den, rng, exact_rng,
                                              zqlin._max_abs(c_num))
        lines.append(f"{out.dtype} {out.shape} {out.tolist()} {counts}")

    def streams(name):
        return derive_np_rng(9, "pin", name), derive_rng(9, "pin", name, "exact")

    ks = np.random.default_rng(9).integers(-(1 << 40), 1 << 40, 3000)
    # zero centers broadcast past one block, so a block edge falls mid-array
    draw(Fraction(144), np.broadcast_to(np.int64(0), (3, 6000)), 1, *streams("init"))
    # stage-offset centers -p y / q with q = 257
    draw(Fraction(6400, 257), 257 * ks[:2000] + np.arange(2000) % 257, 257,
         *streams("stage"))
    # one entry (k_s = 8 proposals a round) and ~300 entries (4 a round)
    rng, exact_rng = streams("one")
    for c_num in (1, -2, 5):
        draw(Fraction(9), zqlin.int_array([c_num]), 3, rng, exact_rng)
    draw(Fraction(16, 9), 5 * ks[:300] + np.arange(300) % 5, 5, *streams("small"))
    # numerators past int64, and int64 numerators over c_den = 2^62
    draw(Fraction(25), zqlin.int_array([(1 << 64) + 7 * i + i % 7 for i in range(400)]),
         7, *streams("object"))
    draw(Fraction(25), ks[:400] << 20, 1 << 62, *streams("wide-den"))
    # s^2 = 2^60: tail steps j - 1 = M q + r with M > 1
    draw(Fraction(1 << 60), 3 * ks[:1000] + 1, 3, *streams("wide"))
    # a tail offset past int64 (see test_tail_offset_beyond_int64_is_exact):
    # every row's first proposal is a tail proposal that accepts
    s_sq = Fraction(17, 10) * (1 << 124)
    samp = dgauss._ZSampler(s_sq)
    j_min = (1 << 63) - samp.K + (1 << 59)
    u_q = math.floor(math.exp(-samp.rate * j_min) * (1 << 53)) / (1 << 53)
    rng, exact_rng = streams("past")
    draw(s_sq, np.zeros(3, dtype=np.int64), 1,
         ScriptedUniforms(rng, [1 - 2.0 ** -53, 0.0, None, u_q]), exact_rng)
    # the same tail offsets a round after an int64 one, in one block: round 1
    # proposes in the window only and its first row accepts, round 2 gives the
    # two pending rows tail proposals past int64 that accept
    u_first = np.repeat([0.0, 1 - 2.0 ** -53, 1 - 2.0 ** -53], samp.k_s)
    rng, exact_rng = streams("int64-then-past")
    draw(s_sq, np.zeros(3, dtype=np.int64), 1,
         ScriptedUniforms(rng, [0.5, u_first, 1 - 2.0 ** -53, 0.0, None, u_q]), exact_rng)
    # one-proposal rounds (2000 entries) whose tail steps pass the threshold
    # table's J = 2 (c_den = 2713 caps the table at s^2 = 144), so their
    # tail proposals read the formulas
    draw(Fraction(144), 2713 * ks[:2000] + np.arange(2000) % 2713, 2713,
         *streams("past-reach"))
    # one tail proposal whose inversion uniform sits at a step boundary
    # g^(M k) near 1/e, so its step is found by the exact bisection; it is
    # its row's first proposal of k_s, so its step is drawn
    samp = dgauss._ZSampler(Fraction(1 << 60))
    u_sel = np.full(samp.k_s, 0.5)
    u_sel[0] = 1 - 2.0 ** -53
    k = math.floor(1 / (samp.rate * samp.M))
    u_q = math.floor(math.exp(-samp.rate * samp.M * k) * (1 << 53)) / (1 << 53)
    rng, exact_rng = streams("boundary")
    draw(Fraction(1 << 60), zqlin.int_array([1]), 3,
         ScriptedUniforms(rng, [u_sel, None, None, u_q]), exact_rng)
    # forced fallbacks: window selections, accept/reject tests and tail
    # remainders in exact arithmetic, with rows of one and of many proposals
    monkeypatch.setattr(dgauss, "_REL_ERR", 0.3)
    monkeypatch.setattr(dgauss, "_SELECT_MARGIN", 0.02)
    draw(Fraction(9), 3 * ks[:2000] + 1, 3, *streams("fallback"))
    draw(Fraction(9), 3 * ks[:60] - 1, 3, *streams("fallback-small"))
    draw(Fraction(1 << 60), 3 * ks[:200] + 1, 3, *streams("fallback-wide"))
    monkeypatch.undo()
    return lines


def test_array_sampler_streams_match_pin(monkeypatch):
    # sha256 computed at the stream epoch: sampler streams on SFC64, rounds
    # of at most k_s proposals a row, window decisions before tail steps; the
    # "int64-then-past" case was added later and pinned on the code before
    # rounds ended in one scatter, and the "past-reach" case on the code
    # before one-proposal rounds decided window and tail proposals in one
    # table lookup
    digest = hashlib.sha256("\n".join(_sampler_lines(monkeypatch)).encode()).hexdigest()
    assert digest == \
        "3597c55d40144334a5d4e9e399926bc1ed9442a0496d238394ac0396c36e48a5"
