"""Span tracing for the traced benchmark run, installed from outside the library.

``Tracer.install`` replaces module attributes of ``wagnersis`` at the places
where callers resolve them (a module global is looked up on every call), so
nothing under ``src/`` changes and the untraced run installs nothing.

Layer boundaries become spans ``[name, start, end, parent, op, work]``: the
span that was open when the call began is the parent, and every span of one
op carries that op's number.  ``work`` is the boundary's own count (rows
lifted, pairs formed).  Calls made tens of thousands of times per op (the
exact draw, sampler construction and the exact-arithmetic fallbacks) are not
spans of their own: per-draw spans would take hundreds of megabytes, so each
is counted, with its time, on the span that encloses it.  Spans stay in
memory and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import statistics
import time

# Span record layout.
NAME, START, END, PARENT, OP, WORK, DRAWS, DRAW_S, BUILDS, BUILD_S, FALLBACKS = range(11)


def _rows(args, out):
    return len(args[1])


def _pairs(args, out):
    return len(out)


def hook_table(wagnersis):
    """(owner, attribute, span name or leaf kind, work counter) for every
    boundary the traced run records."""
    from wagnersis import dgauss, estimator, solvers, wagner

    Z = dgauss._ZSampler
    return [
        # calls the benchmark itself makes, through the package namespace
        (wagnersis, "systematic_form", "zqlin.systematic_form", None),
        (wagnersis, "solve_sis_inf", "solvers.solve_sis_inf", None),
        (wagnersis, "gaussian_wagner", "wagner.gaussian_wagner", None),
        (wagnersis, "naive_wagner", "wagner.naive_wagner", None),
        (wagnersis, "choose_naive_params", "wagner.schedule", None),
        # calls inside the library, where the caller's module resolves them
        (solvers, "gaussian_wagner", "wagner.gaussian_wagner", None),
        (solvers, "choose_heuristic_params", "wagner.schedule", None),
        (estimator, "min_weight", "estimator.min_weight", None),
        (wagner, "build_chain", "chain.build_chain", None),
        (wagner, "_initial_gaussian", "wagner.init", None),
        (wagner, "_initial_ternary_sparse", "wagner.init", None),
        (wagner, "_lift_batch", "wagner.lift", _rows),
        (wagner, "_gaussian_offsets", "wagner.offsets", None),
        (wagner, "_combine_stage", "wagner.combine", None),
        (wagner, "pair_indices_disjoint", "wagner.pairing", _pairs),
        (wagner, "pair_indices_reuse", "wagner.pairing", _pairs),
        (wagner, "_check_final_membership", "wagner.final_check", None),
        (wagner, "centered", "zqlin.centered", None),
        (wagner, "_draw_z", "draw", None),
        (Z, "__init__", "build", None),
        (dgauss, "_decide_exact", "fallback", None),
        (Z, "_select_window_exact", "fallback", None),
    ]


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = -1
        self.missing = []
        self._saved = []

    # -- recording -------------------------------------------------------

    def begin_op(self, k: int):
        self.op = k
        self.stack.append(len(self.spans))
        self.spans.append(["op", time.perf_counter(), 0.0, -1, k, 0, 0, 0.0, 0, 0.0, 0])

    def end_op(self):
        self.spans[self.stack.pop()][END] = time.perf_counter()

    def _span(self, name, fn, work):
        spans, stack, perf = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, perf(), 0.0, stack[-1], self.op, 0, 0, 0.0, 0, 0.0, 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = perf()
                stack.pop()
            if work is not None:
                rec[WORK] = work(args, out)
            return out
        return wrapper

    def _leaf(self, kind, fn):
        spans, stack, perf = self.spans, self.stack, time.perf_counter
        if kind == "fallback":
            def counted(*args, **kwargs):
                spans[stack[-1]][FALLBACKS] += 1
                return fn(*args, **kwargs)
            return counted
        count, total = (DRAWS, DRAW_S) if kind == "draw" else (BUILDS, BUILD_S)

        def timed(*args, **kwargs):
            t0 = perf()
            out = fn(*args, **kwargs)
            rec = spans[stack[-1]]
            rec[count] += 1
            rec[total] += perf() - t0
            return out
        return timed

    def install(self, wagnersis):
        for owner, attr, name, work in hook_table(wagnersis):
            fn = owner.__dict__.get(attr)
            if fn is None:
                self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
                continue
            self._saved.append((owner, attr, fn))
            wrapped = self._leaf(name, fn) if "." not in name else self._span(name, fn, work)
            setattr(owner, attr, wrapped)

    def uninstall(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def write(self, path):
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


# -- derived per-layer metrics ------------------------------------------------

def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(spans, op_stats):
    """Per-layer metrics from the spans of the traced ops.

    ``op_stats`` maps op number to that op's ``RunStats`` dictionary (ops
    that failed before returning one are absent).
    """
    ops = [s for s in spans if s[NAME] == "op"]
    n_ops = len(ops)
    op_time = sum(s[END] - s[START] for s in ops)
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    total, self_time, work, pairs_by_op = {}, {}, {}, {}
    draws = draw_s = builds = fallbacks = 0
    for i, s in enumerate(spans):
        name = s[NAME]
        dur = s[END] - s[START]
        total[name] = total.get(name, 0.0) + dur
        self_time[name] = self_time.get(name, 0.0) + dur - child[i] - s[DRAW_S]
        work[name] = work.get(name, 0) + s[WORK]
        draws += s[DRAWS]
        draw_s += s[DRAW_S]
        builds += s[BUILDS]
        fallbacks += s[FALLBACKS]
        if name == "wagner.pairing":
            pairs_by_op[s[OP]] = pairs_by_op.get(s[OP], 0) + s[WORK]

    def per_op_ms(name):
        return 1e3 * _ratio(total.get(name, 0.0), n_ops)

    def share(name):
        return _ratio(total.get(name, 0.0), op_time)

    wagner_self = sum(t for n, t in self_time.items()
                      if n.startswith("wagner.") and n not in ("wagner.pairing", "wagner.lift"))
    init_s, stage_s, formed, kept = [], [], 0, 0
    for k, st in op_stats.items():
        secs, sizes = st["stage_seconds"], st["list_sizes"]
        # RunStats times the initial list as entry 0 only when it has one
        # entry per list size; naive_wagner draws it untimed.
        has_init = len(secs) == len(sizes)
        init_s.append(secs[0] if has_init else 0.0)
        stage_s.append(sum(secs[1:] if has_init else secs))
        formed += pairs_by_op.get(k, 0)
        kept += sum(sizes[1:])
    return {
        "dgauss.draws_per_op": _ratio(draws, n_ops),
        "dgauss.draw_us": 1e6 * _ratio(draw_s, draws),
        "dgauss.self_share": _ratio(draw_s, op_time),
        "dgauss.sampler_builds_per_op": _ratio(builds, n_ops),
        "dgauss.build_share": _ratio(builds, draws),
        "dgauss.exact_fallback_share": _ratio(fallbacks, draws),
        "wagner.init_ms": 1e3 * (statistics.fmean(init_s) if init_s else 0.0),
        "wagner.stage_ms": 1e3 * (statistics.fmean(stage_s) if stage_s else 0.0),
        "wagner.pairing_pairs_per_s": _ratio(work.get("wagner.pairing", 0),
                                             total.get("wagner.pairing", 0.0)),
        "wagner.pairing_share": share("wagner.pairing"),
        "wagner.lift_rows_per_s": _ratio(work.get("wagner.lift", 0),
                                         total.get("wagner.lift", 0.0)),
        "wagner.lift_share": share("wagner.lift"),
        "wagner.rest_share": _ratio(wagner_self, op_time),
        "wagner.curation_drop_share": _ratio(formed - kept, formed),
        "wagner.schedule_ms": per_op_ms("wagner.schedule"),
        "estimator.min_weight_ms": per_op_ms("estimator.min_weight"),
        "chain.build_ms": per_op_ms("chain.build_chain"),
        "zqlin.systematic_form_ms": per_op_ms("zqlin.systematic_form"),
        "zqlin.centered_share": share("zqlin.centered"),
        "solvers.filter_ms": 1e3 * _ratio(self_time.get("solvers.solve_sis_inf", 0.0), n_ops),
    }
