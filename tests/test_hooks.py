"""The traced benchmark run wraps library functions by name
(``perfbench/tracing.hook_table``); a rename under ``src/`` would silently
blind its per-layer metrics, so every hook must still resolve, and the runs
the benchmark times must still call their hooks through the namespace the
traced run patches."""

import importlib.util
import math
from pathlib import Path

import pytest

import wagnersis
from wagnersis import wagner

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# The scalar draw loop is gone (draws run in dgauss._draw_z_array); the hook
# waits for the next benchmark change to move it.
STALE_HOOKS = {"wagnersis.wagner._draw_z"}


def _hook_table():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.hook_table(wagnersis)


def test_every_hook_resolves_except_the_known_stale_one():
    missing = {f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in _hook_table()
               if owner.__dict__.get(attr) is None}
    assert missing == STALE_HOOKS


def _naive_run():
    inst, _ = wagnersis.systematic_form(wagnersis.random_instance(12, 30, 257, 1))
    wagnersis.naive_wagner(inst, wagnersis.choose_naive_params(12, 257, 4.0), 7)


def _heuristic_solve():
    inst, _ = wagnersis.systematic_form(wagnersis.random_instance(8, 20, 257, 1))
    wagnersis.solve_sis_inf(inst, 4.0 * math.sqrt(math.log(20)), 2.0 ** -10,
                            wagnersis.MODE_HEURISTIC, 3, threads=1)


# the hooked ``wagner`` names each of the benchmark's run kinds calls, at the
# benchmark's shapes: lift, combine, pairing, completion and final check
HOOKS_CALLED = [
    (_naive_run, {"build_chain", "_lift_batch", "_combine_stage", "pair_indices_disjoint",
                  "centered", "_check_final_membership"}),
    (_heuristic_solve, {"build_chain", "_initial_ternary_sparse", "_lift_batch",
                        "_gaussian_offsets", "_combine_stage", "pair_indices_reuse",
                        "_check_final_membership"}),
]


@pytest.mark.parametrize("run, expected", HOOKS_CALLED, ids=["naive", "heuristic"])
def test_runs_call_their_hooks_through_the_wagner_namespace(monkeypatch, run, expected):
    called = set()
    for owner, attr, _, _ in _hook_table():
        fn = owner.__dict__.get(attr)
        if owner is wagner and fn is not None:
            def spy(*args, _fn=fn, _attr=attr, **kwargs):
                called.add(_attr)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(wagner, attr, spy)
    run()
    assert called == expected
