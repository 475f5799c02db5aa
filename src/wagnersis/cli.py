"""Command-line front door.

Instances and solutions travel as JSON documents on stdin/stdout so the
subcommands compose through pipes, e.g.

    wagnersis gen --n 8 --m 20 --q 257 --seed 7 | wagnersis solve --f 6.92

Exit codes: 0 success, 1 solver failure or non-valid verdict, 2 usage error,
3 precondition violation.  The sampler is single-threaded, and a fixed --seed
reproduces output byte for byte.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from .errors import NotInLattice, WagnerSisError
from . import estimator as est
from . import solvers
from .dgauss import GaussParam, sample_zn_rows
from .rngutil import derive_rng
from .zqlin import (
    SisInstance,
    Solution,
    matvec_mod,
    permute_solution_back,
    random_instance,
    systematic_form,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_PRECONDITION = 3


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="64-bit master seed (default 0)")
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                        help="structured output")
    common.add_argument("--stats-out", type=str, default=argparse.SUPPRESS,
                        help="write run statistics JSON to this path")
    top = argparse.ArgumentParser(prog="wagnersis", description=__doc__,
                                  parents=[common], allow_abbrev=False)
    sub = top.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    g = add_parser("gen", help="generate a uniform SIS instance")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--m", type=int, required=True)
    g.add_argument("--q", type=int, required=True)
    g.add_argument("--beta", type=int, default=None)
    g.add_argument("--norm", choices=("linf", "l2"), default="linf")

    s = add_parser("solve", help="solve the SIS instance on stdin")
    s.add_argument("--mode", choices=("provable", "heuristic"), default="heuristic")
    s.add_argument("--f", type=float, required=True,
                   help="norm factor: beta = (q/f) sqrt(ln m) (or sqrt(m) for l2)")
    s.add_argument("--epsilon", type=float, default=2.0 ** -10)
    s.add_argument("--norm", choices=("linf", "l2"), default="linf")
    s.add_argument("--certify-smoothing", action="store_true",
                   help="brute-force the stage smoothing conditions first "
                        "(tiny instances only)")

    p = add_parser("sample", help="draw from the exact integer Gaussian")
    p.add_argument("--width", type=float, required=True, help="width parameter s")
    p.add_argument("--center", type=float, default=0.0)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--dim", type=int, default=1)

    e = add_parser("estimate", help="heuristic attack-cost estimate")
    e.add_argument("--preset", choices=sorted(est.PRESETS), default=None)
    e.add_argument("--n", type=int)
    e.add_argument("--m", type=int)
    e.add_argument("--q", type=int)
    e.add_argument("--beta", type=int)
    e.add_argument("--variant", choices=(est.VARIANT_ROUNDING,
                                         est.VARIANT_QUANTIZATION),
                   default=est.VARIANT_QUANTIZATION)
    e.add_argument("--csv-out", type=str, default=None)

    v = add_parser("verify", help="verify a solution against an instance")
    v.add_argument("--instance", type=str, default=None,
                   help="instance JSON path (default: stdin)")
    xs = v.add_mutually_exclusive_group()
    xs.add_argument("--solution", type=str, default=None,
                    help="solution JSON path (default: stdin after instance)")
    xs.add_argument("--x", type=str, default=None,
                    help="solution vector as comma-separated integers")

    add_parser("selftest", help="run the statistical self-test suite")
    return top


def _read_stdin_docs(count: int):
    text = sys.stdin.read()
    docs = []
    dec = json.JSONDecoder()
    idx = 0
    while len(docs) < count:
        while idx < len(text) and text[idx].isspace():
            idx += 1
        if idx >= len(text):
            break
        doc, end = dec.raw_decode(text, idx)
        docs.append(doc)
        idx = end
    if len(docs) < count:
        raise ValueError(f"expected {count} JSON document(s) on stdin")
    return docs


def _cmd_gen(args) -> int:
    inst = random_instance(args.n, args.m, args.q, args.seed,
                           beta=args.beta, norm_kind=args.norm)
    print(inst.to_json())
    return EXIT_OK


def _cmd_solve(args) -> int:
    (doc,) = _read_stdin_docs(1)
    given = SisInstance.from_json(json.dumps(doc))
    inst, perm = systematic_form(given)
    mode = (solvers.MODE_PROVABLE if args.mode == "provable"
            else solvers.MODE_HEURISTIC)
    schedule = solvers.choose_schedule(inst, args.f, args.epsilon, mode, args.norm)
    if args.certify_smoothing:
        from .wagner import certify_smoothing
        certify_smoothing(inst, schedule)
    solve = solvers.solve_sis_inf if args.norm == "linf" else solvers.solve_sis_l2
    report = solve(inst, args.f, args.epsilon, mode, args.seed, schedule=schedule)
    report.solutions = [_in_given_coordinates(given, perm, sol)
                        for sol in report.solutions]
    if args.stats_out:
        with open(args.stats_out, "w") as fh:
            json.dump(report.stats, fh)
    if args.json:
        print(report.to_json())
    elif report.success:
        best = report.solutions[0]
        print(f"valid solution found: norm {best.norm_value} <= "
              f"{report.norm_bound_used:.4f}; x = {list(best.x)}")
    else:
        bound = f"{args.norm} norm <= {report.norm_bound_used:.4f}"
        if given.beta is not None:
            beta = f"{given.norm_kind} norm <= {given.beta} (the instance's beta)"
            # under the same norm the report already carries the tighter
            # bound; a beta past the float range is never the report's
            same = (given.norm_kind == args.norm and given.beta <= sys.float_info.max
                    and report.norm_bound_used == float(given.beta))
            bound = beta if same else f"{bound} and {beta}"
        print(f"no solution with {bound} among {report.attempts} samples")
    return EXIT_OK if report.success else EXIT_FAIL


def _in_given_coordinates(given: SisInstance, perm, sol: Solution) -> Solution:
    """A solution of the systematic form mapped back to the columns of the
    instance the user supplied, and checked against it."""
    x = permute_solution_back(perm, sol.x)
    verdict = solvers.verify(given, x)
    if verdict != solvers.VERDICT_VALID:
        error = NotInLattice if verdict == solvers.VERDICT_NOT_IN_LATTICE else WagnerSisError
        raise error(f"solution is {verdict} on the input instance")
    return replace(sol, x=x)


def _cmd_sample(args) -> int:
    rng = derive_rng(args.seed, "cli-sample")
    param = GaussParam.make(s=args.width, c=args.center)
    draws = sample_zn_rows(param, args.dim, args.count, rng)
    vals = (draws[:, 0] if args.dim == 1 else draws).tolist()
    if args.json:
        print(json.dumps(vals))
    else:
        for v in vals:
            print(v)
    return EXIT_OK


def _cmd_estimate(args) -> int:
    dims = (args.n, args.m, args.q, args.beta)
    if dims.count(None) != (4 if args.preset else 0):
        raise ValueError("estimate takes --preset or all of --n --m --q --beta, not both")
    n, m, q, beta = est.PRESETS[args.preset] if args.preset else dims
    report = est.estimate(est.CostQuery(n=n, m=m, q=q, beta=beta,
                                        variant=args.variant))
    if args.csv_out:
        with open(args.csv_out, "w") as fh:
            fh.write(report.CSV_HEADER + "\n" + report.as_csv_row() + "\n")
    if args.json:
        print(json.dumps(report.as_dict()))
    else:
        print(f"log2 N = {report.log2N:.1f}  (w={report.w}, r'={report.r_prime}, "
              f"sigma_r'={report.sigma_rprime:.1f}, ell={report.ell:.1f}, "
              f"{report.variant})")
    return EXIT_OK


def _solution_x(doc):
    """The ``x`` list of a solution document, unconverted: ``verify`` judges
    its entries, so none is truncated."""
    if not (isinstance(doc, dict) and isinstance(doc.get("x"), list)):
        raise ValueError("a solution document must be a JSON object with a list x")
    return doc["x"]


def _cmd_verify(args) -> int:
    stdin_docs = []
    if args.instance:
        with open(args.instance) as fh:
            inst = SisInstance.from_json(fh.read())
    else:
        stdin_docs = _read_stdin_docs(1 if (args.solution or args.x) else 2)
        inst = SisInstance.from_json(json.dumps(stdin_docs[0]))
    if args.x is not None:
        x = [int(t) for t in args.x.split(",")]
    elif args.solution:
        with open(args.solution) as fh:
            x = _solution_x(json.load(fh))
    else:
        x = _solution_x(stdin_docs[-1] if not args.instance else _read_stdin_docs(1)[0])
    verdict = solvers.verify(inst, x)
    if args.json:
        print(json.dumps({"verdict": verdict}))
    else:
        print(verdict)
    return EXIT_OK if verdict == solvers.VERDICT_VALID else EXIT_FAIL


def _cmd_selftest(args) -> int:
    failures = 0

    def check(name, ok):
        nonlocal failures
        print(f"[{'PASS' if ok else 'FAIL'}] {name}")
        if not ok:
            failures += 1

    from .oracles import empirical_similarity, enum_z, pmf_bruteforce
    rng = derive_rng(args.seed, "selftest")
    param = GaussParam.make(s=2, c=0.3)
    draws = sample_zn_rows(param, 1, 100_000, rng)
    pmf = pmf_bruteforce(enum_z(), param, radius=40)
    res = empirical_similarity(draws, pmf)
    check("sampler matches brute-force pmf (chi2 p >= 1e-4)", res.chi2_p >= 1e-4)
    check("sampler pointwise log-ratio within noise", res.excess(5.0) <= 1e-3)

    from .wagner import MODE_PROVABLE, Schedule, gaussian_wagner
    inst, _ = systematic_form(random_instance(2, 6, 5, seed=11))
    sched = Schedule(mode=MODE_PROVABLE, r=1, N=30, p=(2,), b=(2,),
                     s0_sq=GaussParam.make(s=8).s_sq)
    out, stats = gaussian_wagner(inst, sched, args.seed)
    check("provable list sizes follow the thirds law",
          stats.list_sizes == [90, 30])
    check("all sampler outputs are lattice members",
          not any(v for row in out for v in matvec_mod(inst.A, row, inst.q)))

    from .wagner import MODE_NAIVE, eq1_norm_bound, naive_wagner
    inst2, _ = systematic_form(random_instance(4, 12, 16, seed=3))
    nsched = Schedule(mode=MODE_NAIVE, r=2, N=16, p=(8, 4), b=(2, 2),
                      s0_sq=None)
    out2, _ = naive_wagner(inst2, nsched, args.seed)
    bound = eq1_norm_bound(nsched, 16)
    ok = all(max(abs(int(v)) for v in row) <= bound for row in out2) if len(out2) else True
    check("rounding-mode outputs obey the norm bound", ok)

    print(f"{'OK' if failures == 0 else f'{failures} failure(s)'}")
    return EXIT_OK if failures == 0 else EXIT_FAIL


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    for name, default in (("seed", 0), ("json", False), ("stats_out", None)):
        if not hasattr(args, name):
            setattr(args, name, default)
    handlers = {
        "gen": _cmd_gen,
        "solve": _cmd_solve,
        "sample": _cmd_sample,
        "estimate": _cmd_estimate,
        "verify": _cmd_verify,
        "selftest": _cmd_selftest,
    }
    try:
        return handlers[args.command](args)
    except WagnerSisError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (ValueError, KeyError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
