import hashlib
import io
import json
import math
from contextlib import redirect_stdout

import numpy as np
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

    def test_stream_pinned(self):
        # sha256 of stdout, computed while every stream was Philox: the
        # instance stream is a public contract that the samplers' generator
        # does not move
        code, out = run_cli(["gen", "--n", "8", "--m", "20", "--q", "257", "--seed", "11"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "19cedf3729c007918aba7c421bfb2ba6361e1328456d12de2e1e7eae3c0ef033"

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

    @pytest.mark.parametrize("beta, text", [
        (21, "21 (the instance's beta)"),
        (64 / 3, "6004799503160661/281474976710656 (the instance's beta)"),
        (10 ** 400, "55.6025 and linf norm <= 1" + "0" * 400 + " (the instance's beta)"),
    ], ids=["int", "float", "past-the-float-range"])
    def test_no_solution_message_at_any_instance_beta(self, beta, text, monkeypatch):
        # a run with no rows: the message names the instance's beta alone
        # when the report's bound is its float, and both bounds otherwise,
        # even for a beta with no float (exit 1, no traceback)
        _, inst_json = run_cli(["gen", "--n", "8", "--m", "20", "--q", "257", "--seed", "0"])
        doc = dict(json.loads(inst_json), beta=beta)
        monkeypatch.setattr(solvers, "gaussian_wagner", lambda *a, **kw: (
            np.empty((0, 20), dtype=np.int64), wagner.RunStats(mode=wagner.MODE_HEURISTIC)))
        code, out = run_cli(["solve", "--f", "8"], stdin_text=json.dumps(doc),
                            monkeypatch=monkeypatch)
        assert code == 1
        assert out == f"no solution with linf norm <= {text} among 0 samples\n"

    def test_provable_mode_precondition_exit_code(self, monkeypatch):
        _, inst_json = run_cli(["gen", "--n", "8", "--m", "20", "--q", "257",
                                "--seed", "7"])
        code, _ = run_cli(["solve", "--mode", "provable", "--f", "4",
                           "--epsilon", "0.001", "--seed", "1"],
                          stdin_text=inst_json, monkeypatch=monkeypatch)
        assert code == 3

    @pytest.mark.parametrize("mode", ["provable", "heuristic"])
    @pytest.mark.parametrize("eps", ["0", "-1", "nan", "2"])
    def test_invalid_epsilon_is_a_precondition_violation(self, mode, eps, monkeypatch,
                                                         capsys):
        _, inst_json = run_cli(["gen", "--n", "8", "--m", "20", "--q", "257",
                                "--seed", "3"])
        code, _ = run_cli(["solve", "--mode", mode, "--f", str(4 * math.sqrt(math.log(20))),
                           "--epsilon", eps], stdin_text=inst_json, monkeypatch=monkeypatch)
        assert code == 3
        assert "epsilon" in capsys.readouterr().err

    def test_invalid_epsilon_is_named_before_the_heuristic_ladder(self, monkeypatch,
                                                                  capsys):
        # 2 x 8 mod 257 has no pool of same-weight ternary vectors for the
        # ladder's first N, so a ladder walked first would report that instead
        # of epsilon
        _, inst_json = run_cli(["gen", "--n", "2", "--m", "8", "--q", "257",
                                "--seed", "3"])
        code, _ = run_cli(["solve", "--f", "4", "--epsilon", "0"], stdin_text=inst_json,
                          monkeypatch=monkeypatch)
        err = capsys.readouterr().err
        assert code == 3
        assert "epsilon" in err and "ternary vectors" not in err

    @pytest.mark.parametrize("f", ["0", "-1", "inf", "nan"])
    def test_norm_factor_must_be_finite_and_positive(self, f, monkeypatch, capsys):
        _, inst_json = run_cli(["gen", "--n", "4", "--m", "10", "--q", "17"])
        code, _ = run_cli(["solve", "--f", f], stdin_text=inst_json,
                          monkeypatch=monkeypatch)
        assert code == 3
        assert "f must be finite and > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("norm", ["linf", "l2"])
    def test_modulus_past_the_float_range(self, norm, monkeypatch, capsys):
        # beta = (q/f) sqrt(...) has no double at q = 2^1279 - 1: a typed
        # refusal, with nothing on stdout
        _, inst_json = run_cli(["gen", "--n", "2", "--m", "6", "--q", str(2**1279 - 1)])
        capsys.readouterr()
        code, out = run_cli(["solve", "--f", "4", "--norm", norm], stdin_text=inst_json,
                            monkeypatch=monkeypatch)
        assert (code, out) == (3, "")
        assert capsys.readouterr().err.startswith("precondition violated: beta = (q/f) sqrt")

    @pytest.mark.parametrize("verdict", [solvers.VERDICT_NOT_IN_LATTICE,
                                         solvers.VERDICT_NORM])
    def test_solution_failing_the_input_instance_is_not_printed(self, verdict, monkeypatch,
                                                               capsys):
        # a solution that does not verify on the instance the user gave is
        # refused with the precondition exit code, never printed
        _, inst_json = run_cli(["gen", "--n", "8", "--m", "20", "--q", "257",
                                "--seed", "0"])
        monkeypatch.setattr(solvers, "verify", lambda inst, x: verdict)
        code, out = run_cli(["solve", "--f", str(4 * math.sqrt(math.log(20))), "--seed", "0",
                             "--json"], stdin_text=inst_json, monkeypatch=monkeypatch)
        assert (code, out) == (3, "")
        assert capsys.readouterr().err == \
            f"precondition violated: solution is {verdict} on the input instance\n"

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

    # (5, 0, 0, 0, 0, 0) is in this lattice, so truncating x with int()
    # made [5.7, 0.4, 0, 0, 0, 0] verify
    INSTANCE = ('{"n": 2, "m": 6, "q": 5, "beta": null, "norm": "linf", '
                '"A": [[1, 1, 1, 1, 2, 1], [0, 0, 4, 3, 2, 1]]}')

    @pytest.mark.parametrize("x", ["[5.7, 0.4, 0, 0, 0, 0]", "[5.0, 0, 0, 0, 0, 0]",
                                   '["5", 0, 0, 0, 0, 0]'])
    def test_non_integer_entries_on_stdin(self, x, monkeypatch):
        code, out = run_cli(["verify"], stdin_text=self.INSTANCE + f'{{"x": {x}}}',
                            monkeypatch=monkeypatch)
        assert code == 1 and out == "NotInLattice\n"
        code, out = run_cli(["verify"], stdin_text=self.INSTANCE + '{"x": [5, 0, 0, 0, 0, 0]}',
                            monkeypatch=monkeypatch)
        assert code == 0 and out == "Valid\n"

    def test_non_integer_entries_in_solution_document(self, monkeypatch, tmp_path):
        path = tmp_path / "sol.json"
        path.write_text('{"x": [5.7, 0.4, 0, 0, 0, 0], "norm": 5}')
        code, out = run_cli(["verify", "--solution", str(path)],
                            stdin_text=self.INSTANCE, monkeypatch=monkeypatch)
        assert code == 1 and out == "NotInLattice\n"

    def test_x_with_solution_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "sol.json"
        path.write_text('{"x": [5, 0, 0, 0, 0, 0]}')
        with pytest.raises(SystemExit) as exc:
            run_cli(["verify", "--x", "0,0,0,0,0,0", "--solution", str(path)])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", ['{"x": 5}', '{"x": "500000"}', "[5, 0, 0, 0, 0, 0]"])
    def test_malformed_solution_is_a_usage_error(self, doc, monkeypatch, tmp_path):
        code, out = run_cli(["verify"], stdin_text=self.INSTANCE + doc,
                            monkeypatch=monkeypatch)
        assert code == 2 and out == ""
        path = tmp_path / "sol.json"
        path.write_text(doc)
        code, out = run_cli(["verify", "--solution", str(path)],
                            stdin_text=self.INSTANCE, monkeypatch=monkeypatch)
        assert code == 2 and out == ""


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

    @pytest.mark.parametrize("beta", ["0", "9"])
    def test_beta_out_of_range_names_the_bound(self, beta, capsys):
        code, _ = run_cli(["estimate", "--n", "4", "--m", "8", "--q", "17",
                           "--beta", beta])
        assert code == 3
        assert capsys.readouterr().err == \
            f"precondition violated: need 0 < beta < q/2, got beta={beta}\n"

    def test_modulus_past_the_float_range(self, capsys):
        code, out = run_cli(["estimate", "--n", "2", "--m", "6", "--q", str(2**1279 - 1),
                             "--beta", "5"])
        assert (code, out) == (3, "")
        assert capsys.readouterr().err == \
            "precondition violated: q must be below the float range (2^1024)\n"

    def test_least_point_at_one_bit(self):
        # the model succeeds at 1 bit, and m - n = 6 coordinates hold at most
        # 2^7.9 same-weight ternary vectors: the search must start low
        code, out = run_cli(["estimate", "--n", "2", "--m", "8", "--q", "257",
                             "--beta", "100"])
        assert code == 0 and out.startswith("log2 N = 1.0 ")

    def test_missing_dims_usage_error(self, monkeypatch):
        code, _ = run_cli(["estimate", "--n", "4"])
        assert code == 2

    @pytest.mark.parametrize("dims", [["--n", "4", "--m", "8", "--q", "3", "--beta", "1"],
                                      ["--beta", "1"]])
    def test_preset_with_explicit_dims_is_a_usage_error(self, dims, capsys):
        code, out = run_cli(["estimate", "--preset", "shine", *dims])
        assert code == 2 and out == ""
        assert "not both" in capsys.readouterr().err

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

    @pytest.mark.parametrize("argv", [["--count", "1000000000000"],
                                      ["--dim", "1000000000000", "--count", "0"]])
    def test_memory_budget_exit_code(self, argv, capsys):
        # refused before any allocation: rows x n int64 entries past 8 GiB
        code, out = run_cli(["sample", "--width", "3", *argv])
        assert code == 3 and out == ""
        assert "memory budget" in capsys.readouterr().err

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
        argv = ["solve", "--f", str(f), "--seed", "11", "--json"]
        c1, o1 = run_cli(list(argv), stdin_text=inst_json, monkeypatch=monkeypatch)
        c2, o2 = run_cli(list(argv), stdin_text=inst_json, monkeypatch=monkeypatch)
        assert (c1, o1) == (c2, o2)

    # sha256 of stdout, computed at the inversion epoch (sampler streams on
    # SFC64; centers 1/2 and 1/4 are inverted from a CDT, one uniform a
    # draw): a change to any seeded stream fails here
    @pytest.mark.parametrize("argv, digest", [
        (["sample", "--width", "3", "--center", "0.5", "--count", "400",
          "--seed", "1", "--json"],
         "5de4e4733823827950d83f88083fc401b21f8aed87b3dc4f15329045bd3354b0"),
        (["sample", "--width", "2.2", "--center", "-7.25", "--count", "400",
          "--dim", "3", "--seed", "4", "--json"],
         "180b88babc18becb7aad863ca46ce7066de96266c8979b454b1ee8f1013f130a"),
    ], ids=["scalar", "dim3"])
    def test_sample_stream_pinned(self, argv, digest):
        code, out = run_cli(argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_solve_stream_pinned(self, monkeypatch):
        # sha256 of stdout, computed at the inversion epoch (sampler streams
        # on SFC64, every stage offset inverted from a CDT)
        _, inst_json = run_cli(["gen", "--n", "8", "--m", "20", "--q", "257",
                                "--seed", "11"])
        f = 4 * math.sqrt(math.log(20))
        code, out = run_cli(["solve", "--f", str(f), "--seed", "11", "--json"],
                            stdin_text=inst_json, monkeypatch=monkeypatch)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "92b7bc53331bec68d2db7b4f3faf088a41977a29f70255aadddf5c50fcf7071a"

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

    def test_threads_flag_is_a_usage_error(self):
        # the sampler is single-threaded, and the CLI has no --threads flag
        for threads in ("1", "2"):
            with pytest.raises(SystemExit) as exc:
                run_cli(["solve", "--f", "4", "--seed", "11", "--threads", threads])
            assert exc.value.code == 2


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

