"""Byte-identity pin over the parameter choosers, the estimator and the
brute-force oracles: every value they return, as its ``repr`` (or its typed
error), hashed together."""

import hashlib
import json
import math
from fractions import Fraction

import numpy as np

from wagnersis import dgauss, estimator, wagner, zqlin
from wagnersis.errors import WagnerSisError

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
    for enum, param in ((dgauss.enum_z(), dgauss.GaussParam.make(s=2, c=0.3)),
                        (dgauss.enum_coset_z(0.5), dgauss.GaussParam.make(s=3, c=0)),
                        (dgauss.enum_scaled_zn(1.5, 2),
                         dgauss.GaussParam.make(s=2, c=(0.3, 0.7))),
                        (dgauss.enum_qary(A, 3), dgauss.GaussParam.make(s=2, c=0))):
        lines.append(repr(dgauss.rho_bruteforce(enum, param, 12.0)))
        lines.append(repr(sorted(dgauss.pmf_bruteforce(enum, param, 12.0).items())))
    lines.append(repr(dgauss.rho_bruteforce(dgauss.enum_z(),
                                            dgauss.GaussParam.make(s=1.5, c=-0.25))))
    lines.append(repr([
        dgauss.eta_zn_bruteforce(3, 2.0 ** -10),
        dgauss.eta_scaled_zn_bruteforce(Fraction(5, 2), 2, 2.0 ** -8),
        dgauss.eta_qary_bruteforce(A, 3, 2.0 ** -12),
        dgauss.eta_qary_bruteforce(np.array([[1, 3, 4], [0, 1, 2]]), 5, 2.0 ** -8),
        zqlin.lambda1_inf_bruteforce(np.array([[1, 3, 4, 2, 7], [0, 1, 2, 5, 9]]), 11),
        zqlin.lambda1_inf_bruteforce(np.array([[1, 1]]), 5),
    ]))
    return lines


def test_outputs_match_pin():
    # sha256 computed at commit e33809b, before the success model, the q-ary
    # preconditions and the brute-force oracle bodies each got one home
    digest = hashlib.sha256("\n".join(_pin_lines()).encode()).hexdigest()
    assert digest == \
        "3d382207a59dc864e0925c338e9295adce6c82bd86607b7166f0af3a064f972d"
