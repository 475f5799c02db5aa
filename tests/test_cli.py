import hashlib
import io
import json
import math
from contextlib import redirect_stdout

import pytest

from wagnersis import solvers, wagner
from wagnersis.cli import main
from wagnersis.zqlin import SisInstance, systematic_form

from test_wagner import NAIVE_LADDER


def run_cli(argv, stdin_text=None, monkeypatch=None):
    out = io.StringIO()
    if stdin_text is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    with redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


class TestGen:
    def test_deterministic_bytes(self, monkeypatch):
        c1, o1 = run_cli(["gen", "--n", "4", "--m", "9", "--q", "17", "--seed", "5"])
        c2, o2 = run_cli(["gen", "--n", "4", "--m", "9", "--q", "17", "--seed", "5"])
        assert c1 == c2 == 0 and o1 == o2
        doc = json.loads(o1)
        assert doc["n"] == 4 and doc["m"] == 9 and doc["q"] == 17
        assert all(0 <= v < 17 for row in doc["A"] for v in row)

    def test_modulus_beyond_int64(self):
        q = 2 ** 64 + 13
        argv = ["gen", "--n", "2", "--m", "5", "--q", str(q), "--seed", "1"]
        c1, o1 = run_cli(argv)
        c2, o2 = run_cli(argv)
        assert c1 == c2 == 0 and o1 == o2
        doc = json.loads(o1)
        assert doc["q"] == q
        assert all(0 <= v < q for row in doc["A"] for v in row)


class TestSolvePipe:
    def test_gen_solve_verify_round_trip(self, monkeypatch):
        _, inst_json = run_cli(["gen", "--n", "8", "--m", "20", "--q", "257",
                                "--seed", "7"])
        f = 4 * math.sqrt(math.log(20))
        code, out = run_cli(["solve", "--f", str(f), "--seed", "7", "--json"],
                            stdin_text=inst_json, monkeypatch=monkeypatch)
        assert code == 0
        rep = json.loads(out)
        assert rep["success"] and rep["solutions"]
        sol = rep["solutions"][0]
        code2, out2 = run_cli(
            ["verify", "--x=" + ",".join(str(v) for v in sol["x"])],
            stdin_text=inst_json, monkeypatch=monkeypatch)
        assert code2 == 0 and "Valid" in out2

    def test_instance_beta_is_enforced(self, monkeypatch):
        # beta = (q/f) sqrt(ln m) is about 64 here, but the instance asks for
        # ||x||_inf <= 20; every printed solution must meet the instance's bound.
        _, inst_json = run_cli(["gen", "--n", "8", "--m", "20", "--q", "257",
                                "--seed", "7", "--beta", "20"])
        code, out = run_cli(["solve", "--f", "6.92", "--seed", "7", "--json"],
                            stdin_text=inst_json, monkeypatch=monkeypatch)
        sols = json.loads(out)["solutions"]
        assert code == 0 and sols
        for sol in sols:
            assert max(abs(v) for v in sol["x"]) <= 20
            code, verdict = run_cli(
                ["verify", "--x=" + ",".join(str(v) for v in sol["x"])],
                stdin_text=inst_json, monkeypatch=monkeypatch)
            assert (code, verdict.strip()) == (0, "Valid")

    def test_reported_bound_is_the_enforced_one(self, monkeypatch):
        # the instance's beta = 20 is tighter than (q/f) sqrt(ln m) = 64.28
        _, inst_json = run_cli(["gen", "--n", "8", "--m", "20", "--q", "257",
                                "--seed", "7", "--beta", "20"])
        argv = ["solve", "--f", "6.92", "--seed", "7"]
        code, out = run_cli(argv + ["--json"], stdin_text=inst_json,
                            monkeypatch=monkeypatch)
        assert code == 0 and json.loads(out)["norm_bound_used"] == 20
        code, out = run_cli(argv, stdin_text=inst_json, monkeypatch=monkeypatch)
        assert code == 0 and "<= 20.0000;" in out

    def test_no_solution_message_names_the_instance_beta(self, monkeypatch):
        _, inst_json = run_cli(["gen", "--n", "8", "--m", "20", "--q", "257",
                                "--seed", "7", "--beta", "5"])
        code, out = run_cli(["solve", "--f", "6.92", "--seed", "7"],
                            stdin_text=inst_json, monkeypatch=monkeypatch)
        assert code == 1
        assert "linf norm <= 5 (the instance's beta)" in out

    def test_provable_mode_precondition_exit_code(self, monkeypatch):
        _, inst_json = run_cli(["gen", "--n", "8", "--m", "20", "--q", "257",
                                "--seed", "7"])
        code, _ = run_cli(["solve", "--mode", "provable", "--f", "4",
                           "--epsilon", "0.001", "--seed", "1"],
                          stdin_text=inst_json, monkeypatch=monkeypatch)
        assert code == 3

    @pytest.mark.parametrize("f", ["0", "-1", "inf", "nan"])
    def test_norm_factor_must_be_finite_and_positive(self, f, monkeypatch, capsys):
        _, inst_json = run_cli(["gen", "--n", "4", "--m", "10", "--q", "17"])
        code, _ = run_cli(["solve", "--f", f], stdin_text=inst_json,
                          monkeypatch=monkeypatch)
        assert code == 3
        assert "f must be finite and > 0" in capsys.readouterr().err

    def test_stats_out(self, monkeypatch, tmp_path):
        _, inst_json = run_cli(["gen", "--n", "8", "--m", "20", "--q", "257",
                                "--seed", "3"])
        stats_path = tmp_path / "stats.json"
        f = 4 * math.sqrt(math.log(20))
        run_cli(["solve", "--f", str(f), "--seed", "3",
                 "--stats-out", str(stats_path)],
                stdin_text=inst_json, monkeypatch=monkeypatch)
        doc = json.loads(stats_path.read_text())
        assert doc["mode"] == "heuristic-gaussian"
        assert doc["list_sizes"][0] > 0


class TestVerify:
    def test_zero_vector_exit_one(self, monkeypatch, tmp_path):
        _, inst_json = run_cli(["gen", "--n", "2", "--m", "4", "--q", "5",
                                "--seed", "1"])
        path = tmp_path / "inst.json"
        path.write_text(inst_json)
        code, out = run_cli(["verify", "--instance", str(path),
                             "--x", "0,0,0,0"])
        assert code == 1
        assert "ZeroVector" in out

    def test_json_verdict(self, monkeypatch, tmp_path):
        _, inst_json = run_cli(["gen", "--n", "2", "--m", "4", "--q", "5",
                                "--seed", "1"])
        path = tmp_path / "inst.json"
        path.write_text(inst_json)
        code, out = run_cli(["verify", "--instance", str(path),
                             "--x", "0,0,0,0", "--json"])
        assert json.loads(out) == {"verdict": "ZeroVector"}


class TestInstanceDocuments:
    """Instance documents that are not what they declare are rejected, not
    coerced: x = (1, 1) would verify against [[1, 6]] mod 7."""

    @pytest.mark.parametrize("A", ["[[1, 6.9]]", '[[1, "6"]]', "[[6, true]]"])
    def test_non_integer_entries(self, A, monkeypatch):
        doc = f'{{"n": 1, "m": 2, "q": 7, "A": {A}}}'
        code, out = run_cli(["verify", "--x", "1,1"], stdin_text=doc,
                            monkeypatch=monkeypatch)
        assert code == 3 and "Valid" not in out

    @pytest.mark.parametrize("q", ["7.0", '"abc"'])
    def test_non_integer_modulus(self, q, monkeypatch):
        doc = f'{{"n": 1, "m": 2, "q": {q}, "A": [[1, 6]]}}'
        code, out = run_cli(["verify", "--x", "1,1"], stdin_text=doc,
                            monkeypatch=monkeypatch)
        assert code == 3 and "Valid" not in out

    def test_infinite_beta(self, monkeypatch):
        doc = '{"n": 1, "m": 2, "q": 7, "beta": 1e400, "A": [[1, 6]]}'
        code, _ = run_cli(["verify", "--x", "1,1"], stdin_text=doc,
                          monkeypatch=monkeypatch)
        assert code == 3

    def test_non_object_document_is_a_usage_error(self, monkeypatch):
        code, _ = run_cli(["verify", "--x", "1,1"], stdin_text="[1, 2]",
                          monkeypatch=monkeypatch)
        assert code == 2


class TestEstimate:
    def test_preset_json(self, monkeypatch):
        code, out = run_cli(["estimate", "--preset", "dilithium2",
                             "--variant", "quantization", "--json"])
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["log2N"] - 269.9) <= 2.0

    def test_explicit_dims_and_csv(self, monkeypatch, tmp_path):
        csv_path = tmp_path / "est.csv"
        code, _ = run_cli(["estimate", "--n", "1024", "--m", "2304",
                           "--q", "8380417", "--beta", "350209",
                           "--csv-out", str(csv_path)])
        assert code == 0
        header, row = csv_path.read_text().strip().split("\n")
        assert header == "log2N,w,sigma0,r_prime,sigma_rprime,ell,variant"
        assert row.startswith("269.9,37,0.1700,40,")

    def test_missing_dims_usage_error(self, monkeypatch):
        code, _ = run_cli(["estimate", "--n", "4"])
        assert code == 2

    def test_deterministic_output(self, monkeypatch):
        args = ["estimate", "--preset", "shine", "--json"]
        assert run_cli(list(args)) == run_cli(list(args))


class TestSample:
    def test_scalar_and_vector(self, monkeypatch):
        code, out = run_cli(["sample", "--width", "3", "--center", "0.5",
                             "--count", "5", "--seed", "2", "--json"])
        assert code == 0
        vals = json.loads(out)
        assert len(vals) == 5 and all(isinstance(v, int) for v in vals)
        code, out = run_cli(["sample", "--width", "3", "--dim", "3",
                             "--count", "2", "--seed", "2", "--json"])
        assert len(json.loads(out)) == 2

    def test_draws_past_int64_are_exact(self):
        # center 2^63 - 1024 at s = 2000: draws past 2^63 print as integers,
        # never as int64 values wrapped to near -2^63
        center = 9223372036854774784
        code, out = run_cli(["sample", "--width", "2000", "--center", str(center),
                             "--count", "400", "--seed", "1", "--json"])
        vals = json.loads(out)
        assert code == 0 and len(vals) == 400
        assert all(abs(v - center) < 40_000 for v in vals)
        assert any(v >= 2**63 for v in vals)

    def test_width_too_small_exit_code(self, monkeypatch):
        code, _ = run_cli(["sample", "--width", "0.1"])
        assert code == 3

    @pytest.mark.parametrize("argv, message", [
        (["--width", "inf"], "width must be finite"),
        (["--width", "nan"], "width must be finite"),
        (["--width", "3", "--center", "inf"], "center must be finite"),
        (["--width", "3", "--center=-inf"], "center must be finite"),
        # finite, but its window 2 max(2, ceil(0.75 s)) + 1 is far beyond 2^63
        (["--width", "1e200"], "2^63"),
        # squaring s must not turn a negative width into a usable one
        (["--width", "-2", "--count", "2"], "width must satisfy s > 0"),
        (["--width", "3", "--dim", "0"], "need n >= 1"),
        (["--width", "3", "--count", "-1"], "rows >= 0"),
    ])
    def test_unusable_width_or_center_exit_code(self, argv, message, capsys):
        code, _ = run_cli(["sample", *argv])
        assert code == 3
        assert message in capsys.readouterr().err


class TestSelftest:
    def test_selftest_passes(self, monkeypatch):
        code, out = run_cli(["selftest", "--seed", "0"])
        assert code == 0
        assert "[FAIL]" not in out

    def test_off_lattice_output_fails(self, monkeypatch):
        run = wagner.gaussian_wagner

        def off_lattice(*args, **kwargs):
            out, stats = run(*args, **kwargs)
            out = out.copy()
            out[0, 0] += 1
            return out, stats

        monkeypatch.setattr(wagner, "gaussian_wagner", off_lattice)
        code, out = run_cli(["selftest", "--seed", "0"])
        assert "[FAIL] all sampler outputs are lattice members" in out
        assert code == 1


class TestDeterminismAndCertify:
    def test_solve_byte_identical_per_seed(self, monkeypatch):
        _, inst_json = run_cli(["gen", "--n", "8", "--m", "20", "--q", "257",
                                "--seed", "11"])
        f = 4 * math.sqrt(math.log(20))
        argv = ["solve", "--f", str(f), "--seed", "11", "--threads", "1",
                "--json"]
        c1, o1 = run_cli(list(argv), stdin_text=inst_json, monkeypatch=monkeypatch)
        c2, o2 = run_cli(list(argv), stdin_text=inst_json, monkeypatch=monkeypatch)
        assert (c1, o1) == (c2, o2)

    # sha256 of stdout, computed when the sampler's window became
    # K = max(2, ceil(0.75 s)) and its tail steps exact inversions: a change
    # to any seeded stream fails here
    @pytest.mark.parametrize("argv, digest", [
        (["sample", "--width", "3", "--center", "0.5", "--count", "400",
          "--seed", "1", "--json"],
         "10ab2fa47d0e3b7de5856e53f07f4c23fa4ba9c361cf77bb656aac3bd7673794"),
        (["sample", "--width", "2.2", "--center", "-7.25", "--count", "400",
          "--dim", "3", "--seed", "4", "--json"],
         "f9ef9055ef1a48fe5eeb4b36470aff22632e73ef403cf0c83aba164874600c53"),
    ], ids=["scalar", "dim3"])
    def test_sample_stream_pinned(self, argv, digest):
        code, out = run_cli(argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_solve_stream_pinned(self, monkeypatch):
        # sha256 of stdout, computed when the stage offsets moved to the
        # array sampler and RunStats gained its sampler counts
        _, inst_json = run_cli(["gen", "--n", "8", "--m", "20", "--q", "257",
                                "--seed", "11"])
        f = 4 * math.sqrt(math.log(20))
        code, out = run_cli(["solve", "--f", str(f), "--seed", "11", "--json"],
                            stdin_text=inst_json, monkeypatch=monkeypatch)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "beba6b19becb759193b21a1bf5f3996c8a6051f1adac916fa3d29e1e4cf802ac"

    def test_certify_smoothing_refuses_large_instances(self, monkeypatch):
        # certification brute-forces dual lattices; desk instances exceed the
        # enumeration budget and must fail with the precondition exit code
        _, inst_json = run_cli(["gen", "--n", "8", "--m", "20", "--q", "257",
                                "--seed", "11"])
        f = 4 * math.sqrt(math.log(20))
        code, _ = run_cli(["solve", "--f", str(f), "--seed", "11",
                           "--certify-smoothing"],
                          stdin_text=inst_json, monkeypatch=monkeypatch)
        assert code == 3

    def test_certified_schedule_is_the_solved_one_l2(self, monkeypatch):
        # The l2 solver picks its schedule from beta = (q/f) sqrt(m); the
        # certificate must be about that schedule, not an linf re-derivation.
        certified, solved = [], []
        monkeypatch.setattr(wagner, "certify_smoothing",
                            lambda inst, sched: certified.append(sched))
        run_sampler = solvers.gaussian_wagner

        def recording(inst, sched, rng, **kw):
            solved.append(sched)
            return run_sampler(inst, sched, rng, **kw)

        monkeypatch.setattr(solvers, "gaussian_wagner", recording)
        _, inst_json = run_cli(["gen", "--n", "8", "--m", "20", "--q", "257",
                                "--seed", "11"])
        run_cli(["solve", "--f", "20", "--norm", "l2", "--seed", "11",
                 "--certify-smoothing"],
                stdin_text=inst_json, monkeypatch=monkeypatch)
        assert len(solved) == 1 and certified == solved
        beta = (257 / 20) * math.sqrt(20)
        assert solved[0] == wagner.choose_heuristic_params(8, 20, 257, beta)

    def test_threads_other_than_one_exit_code(self, monkeypatch):
        _, inst_json = run_cli(["gen", "--n", "8", "--m", "20", "--q", "257",
                                "--seed", "11"])
        f = 4 * math.sqrt(math.log(20))
        code, out = run_cli(["solve", "--f", str(f), "--seed", "11",
                             "--threads", "2"],
                            stdin_text=inst_json, monkeypatch=monkeypatch)
        assert code == 3 and out == ""


class TestModulusLadder:
    def test_solve(self, monkeypatch):
        # exit 0 with solutions that verify against the instance on stdin, or
        # a typed failure (exit 1 or 3); verified solutions at one modulus or more
        solved = 0
        for q in NAIVE_LADDER:
            _, inst_json = run_cli(["gen", "--n", "2", "--m", "12", "--q", str(q),
                                    "--seed", "1"])
            code, out = run_cli(["solve", "--f", "4", "--seed", "3", "--json"],
                                stdin_text=inst_json, monkeypatch=monkeypatch)
            assert code in (0, 1, 3)
            if code == 0:
                given = SisInstance.from_json(inst_json)
                sols = json.loads(out)["solutions"]
                assert sols
                assert all(solvers.verify(given, sol["x"]) == solvers.VERDICT_VALID
                           for sol in sols)
                solved += 1
        assert solved >= 1


class TestSolvePermutation:
    def test_solutions_verify_against_the_input_instance(self, monkeypatch):
        # Seed 0 is not systematic as generated: reaching [A' | I] swaps
        # columns 0 and 12, so solutions must be mapped back before printing.
        _, inst_json = run_cli(["gen", "--n", "8", "--m", "20", "--q", "257",
                                "--seed", "0"])
        _, perm = systematic_form(SisInstance.from_json(inst_json))
        assert perm != tuple(range(20))
        f = 4 * math.sqrt(math.log(20))
        code, out = run_cli(["solve", "--f", str(f), "--seed", "0", "--json"],
                            stdin_text=inst_json, monkeypatch=monkeypatch)
        assert code == 0
        sols = json.loads(out)["solutions"]
        assert sols
        for sol in sols:
            code, verdict = run_cli(
                ["verify", "--x=" + ",".join(str(v) for v in sol["x"])],
                stdin_text=inst_json, monkeypatch=monkeypatch)
            assert (code, verdict.strip()) == (0, "Valid")

