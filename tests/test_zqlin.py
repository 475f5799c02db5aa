import hashlib
import json
import math
from itertools import chain
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from wagnersis.errors import (
    BadDimensions,
    BudgetExceeded,
    DimensionMismatch,
    NonInvertiblePivot,
    RankDeficient,
)
from wagnersis.oracles import lambda1_inf_bruteforce, lambda1_inf_lower_bound
from wagnersis.rngutil import derive_instance_rng
from wagnersis.zqlin import (
    _INT64_SAFE,
    SisInstance,
    Solution,
    centered,
    int_lincomb,
    int_matmul,
    matvec_mod,
    permute_solution_back,
    random_instance,
    residue,
    systematic_form,
)


def _systematic_reference(A, q, q_prime):
    """Row reduction of A to [A' | I_n] over Python integers, one entry at a
    time: the pivot search, column swaps and errors ``systematic_form``
    specifies.  Returns (rows, cols)."""
    M = [[int(v) for v in row] for row in A]
    n, m = len(M), len(M[0])
    cols, off = list(range(m)), m - n
    for i in range(n):
        target = off + i
        used = range(off, off + i)
        others = (j for j in range(m) if j not in used and j != target)
        for pivot_col in chain((target,), others):
            try:
                inv = pow(M[i][pivot_col], -1, q)
            except ValueError:
                continue
            break
        else:
            if any(M[i][j] % q for j in range(m) if j not in used) and not q_prime:
                raise NonInvertiblePivot(
                    f"row {i}: nonzero entries but no unit pivot mod composite q={q}")
            raise RankDeficient(f"row {i} lies in the span of earlier rows mod {q}")
        if pivot_col != target:
            for row in M:
                row[pivot_col], row[target] = row[target], row[pivot_col]
            cols[pivot_col], cols[target] = cols[target], cols[pivot_col]
        M[i] = [(v * inv) % q for v in M[i]]
        for r in range(n):
            if r != i and M[r][target] % q:
                f = M[r][target] % q
                M[r] = [(M[r][j] - f * M[i][j]) % q for j in range(m)]
    return M, tuple(cols)


class TestSystematicForm:
    # sha256 of json.dumps([A.tolist(), list(perm)]) of the output, computed
    # with the Python-integer elimination: the benchmark shapes mod 257, a
    # composite q, two object-path moduli (2^31 + 11 and 2^64 + 13) and a
    # mod-2 instance whose pivot search swaps columns
    @pytest.mark.parametrize("n, m, q, seed, digest", [
        (8, 20, 257, 1, "519c28b237fbd73fa54aa001d0a07be0c464bcd2fbf229440b78a74f0e01ca82"),
        (8, 20, 257, 6917529027641081861,
         "14b26d0ae3bb79e1cb10992dcfd7e0737be78d99a45e7c8ed0d9824f5ede9f98"),
        (12, 30, 257, 1, "d82e497933e21d4b97325bcf8595816739caad042bfa3d76ec1862ffc4e9eba4"),
        (12, 30, 257, 6917529027641081861,
         "e9450eb1b18a50a499e26f88ebdfa39065368c65ea38335ee38bf9095de38371"),
        (4, 10, 1000, 0, "5dc051535932228b8db2fdda0afe190e1ff2bd9ce23b87356aff147d8392406e"),
        (4, 10, 2147483659, 0,
         "af0f461c76c1ffc6bbbaf899f770d3a2d8f0562613640a7a324ad152e7adf02c"),
        (4, 10, 2**64 + 13, 0,
         "7c87127a8dcae298488ebe6f331db340238eb28e77014339353377490e84a400"),
        (6, 12, 2, 0, "957d7396b247a7af7e6e717dcfcdf53bb79879f870e71f7bbb33d9ef6b193edb"),
    ])
    def test_output_pinned(self, n, m, q, seed, digest):
        out, perm = systematic_form(random_instance(n, m, q, seed))
        doc = [[[int(v) for v in row] for row in out.A.tolist()], list(perm)]
        assert hashlib.sha256(json.dumps(doc).encode()).hexdigest() == digest
        if q in (2, 1000):  # these pins cover the column swaps
            assert perm != tuple(range(m))

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(n=st.integers(1, 4), extra=st.integers(0, 3),
           q=st.sampled_from([2, 3, 4, 6, 12, 257, 1000, (1 << 31) - 1,
                              (1 << 31) + 11, 2**64 + 13]),
           data=st.data())
    def test_matches_python_integer_elimination(self, n, extra, q, data):
        # small entries make zero pivots, non-units and dependent rows common
        entry = st.one_of(st.integers(0, min(q - 1, 3)), st.integers(0, q - 1))
        inst = SisInstance.create(_matrix(data, n, n + extra, entry), q)
        try:
            expect = _systematic_reference(inst.A, q, inst.q_prime)
        except (RankDeficient, NonInvertiblePivot) as err:
            with pytest.raises(type(err)) as got:
                systematic_form(inst)
            assert str(got.value) == str(err)
            return
        out, perm = systematic_form(inst)
        assert out.A.dtype == inst.A.dtype
        assert [[int(v) for v in row] for row in out.A.tolist()] == expect[0]
        assert perm == expect[1]

    def test_already_systematic_unchanged(self):
        inst = SisInstance.create([[2, 1, 0], [3, 0, 1]], 5)
        out, perm = systematic_form(inst)
        assert perm == (0, 1, 2)
        assert [[int(v) for v in row] for row in out.A] == [[2, 1, 0], [3, 0, 1]]

    def test_proportional_rows_rank_deficient(self):
        inst = SisInstance.create([[1, 2], [2, 4]], 5)
        with pytest.raises(RankDeficient):
            systematic_form(inst)

    def test_column_swap_permutation(self):
        inst = SisInstance.create([[0, 1], [1, 0]], 7)
        out, perm = systematic_form(inst)
        assert out.systematic
        assert [[int(v) for v in row] for row in out.A] == [[1, 0], [0, 1]]
        assert perm == (1, 0)

    def test_composite_modulus_non_unit_pivot(self):
        # Row of zero divisors only: 2 and 4 are not units mod 8.
        inst = SisInstance.create([[2, 4]], 8)
        with pytest.raises(NonInvertiblePivot):
            systematic_form(inst)

    def test_solution_set_preserved_up_to_permutation(self):
        for seed in range(10):
            inst = random_instance(3, 7, 13, seed=seed)
            sys_inst, perm = systematic_form(inst)
            rng = np.random.default_rng(seed)
            z = rng.integers(-5, 6, size=sys_inst.m - sys_inst.n)
            syn = matvec_mod(sys_inst.a_prime, [int(v) for v in z], 13)
            y = list(int(v) for v in z) + [(-int(s)) % 13 for s in syn]
            assert not any(int(v) for v in matvec_mod(sys_inst.A, y, 13))
            x = permute_solution_back(perm, y)
            assert not any(int(v) for v in matvec_mod(inst.A, list(x), 13))


class TestMatvecMod:
    def test_small(self):
        assert list(matvec_mod(np.array([[1, 1]]), [1, 2], 3)) == [0]

    def test_identity(self):
        assert list(matvec_mod(np.eye(3, dtype=np.int64), [5, 6, 7], 5)) == [0, 1, 2]

    def test_big_integer_oracle(self):
        q = 8380417
        x = [10**9, 10**9]
        a = [[4, 4]]
        expected = (4 * 10**9 + 4 * 10**9) % q  # pure-python big ints
        got = matvec_mod(np.array(a, dtype=np.int64), x, q)
        assert list(got) == [expected]

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            matvec_mod(np.array([[1, 2]]), [1, 2, 3], 7)

    def test_matches_python_reference_on_randoms(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n, m, q = 3, 5, int(rng.integers(2, 10**7))
            A = rng.integers(0, q, size=(n, m))
            x = [int(v) for v in rng.integers(-10**8, 10**8, size=m)]
            ref = [sum(int(A[i, j]) * x[j] for j in range(m)) % q for i in range(n)]
            assert list(int(v) for v in matvec_mod(A, x, q)) == ref


class TestRandomInstance:
    def test_deterministic(self):
        a = random_instance(2, 4, 5, seed=123)
        b = random_instance(2, 4, 5, seed=123)
        assert np.array_equal(np.asarray(a.A), np.asarray(b.A))

    def test_bad_dimensions(self):
        with pytest.raises(BadDimensions):
            random_instance(3, 2, 5, seed=0)

    def test_modulus_beyond_int64(self):
        q = 2 ** 64 + 13
        a = random_instance(4, 9, q, seed=1)
        assert a.A.dtype == object
        assert all(0 <= int(v) < q for v in a.A.flat)
        assert np.array_equal(a.A, random_instance(4, 9, q, seed=1).A)
        assert not np.array_equal(a.A, random_instance(4, 9, q, seed=2).A)
        # entries beyond 2^63 occur: the draw covers all of [0, q)
        assert any(int(v) >= 1 << 63 for v in a.A.flat)

    def test_instance_pinned_between_2_62_and_2_63(self):
        # drawn vectorised since the per-entry draw gives the same stream
        assert random_instance(2, 4, (1 << 62) + 7, seed=5).A.tolist() == [
            [2841358078700360161, 3829753090711543447, 1069563306211825940,
             3709932285398049752],
            [3523117236739605770, 3099561703807989914, 1838832977960621695,
             1311965129186973397]]

    # sha256 of json.dumps(A.tolist()), computed while every stream was
    # Philox: the instances (and so the benchmark's inputs, at these shapes)
    # must not move when the samplers' generator does
    @pytest.mark.parametrize("n, m, q, seed, digest", [
        (8, 20, 257, 1, "ee89f249b42d394f0d0f43fbb30558031984092af2a0c25f0408933e743ab675"),
        (8, 20, 257, 6917529027641081861,
         "5f476afa6e92c7368ab0555ced6e511276ef3f7e7cbd5b0a1a3e8742807098d8"),
        (12, 30, 257, 1, "1dc55a2305a13ba59c2817c3afb182cc987509096cdff7ce5a3116a0067463e8"),
        (12, 30, 257, 6917529027641081861,
         "ae1796e9556b2b9af20077e77d87d17600ca9d4fa576a3dcf86f8d9d9b76b251"),
        (2, 8, 5, 1, "f7fcbe4dbd2c334c85260111f2492273e7fddd9d10b9703cb0bd547e98094ac2"),
        (2, 8, 5, 6917529027641081861,
         "5cd57564f87a0e6719274465e79950a3278dad5aef31063ac6ce9a4f93c36191"),
    ])
    def test_instance_stream_pinned(self, n, m, q, seed, digest):
        A = random_instance(n, m, q, seed).A
        assert hashlib.sha256(json.dumps(A.tolist()).encode()).hexdigest() == digest

    def test_object_branch_below_2_63_is_numpy_draw(self):
        q = (1 << 63) - 25
        rng = derive_instance_rng(3, 2, 5, q)
        expect = [[int(rng.integers(0, q)) for _ in range(5)] for _ in range(2)]
        assert random_instance(2, 5, q, seed=3).A.tolist() == expect

    def test_entry_frequencies(self):
        # Each entry position should be uniform on [0, 5) across seeds.
        trials = 100_000
        counts = np.zeros((2, 4, 5), dtype=np.int64)
        for seed in range(trials):
            A = np.asarray(random_instance(2, 4, 5, seed=seed).A)
            for v in range(5):
                counts[:, :, v] += A == v
        freq = counts / trials
        sigma = np.sqrt(0.2 * 0.8 / trials)
        assert np.all(np.abs(freq - 0.2) < 3.6 * sigma), freq


class TestLambda1Bruteforce:
    def test_row_of_ones(self):
        assert lambda1_inf_bruteforce(np.array([[1, 1]]), 5) == 1

    def test_identity(self):
        assert lambda1_inf_bruteforce(np.eye(2, dtype=np.int64), 3) == 1

    def test_single_entry(self):
        # s = 3 gives 2*3 = 6 = 1 mod 5.
        assert lambda1_inf_bruteforce(np.array([[2]]), 5) == 1

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            lambda1_inf_bruteforce(np.zeros((8, 8), dtype=np.int64) + 1, 257)

    def test_range_invariants(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            A = rng.integers(0, 17, size=(2, 5))
            val = lambda1_inf_bruteforce(A, 17)
            assert 1 <= val <= 17 // 2

    def test_lower_bound_lemma_fraction(self):
        # Nontrivial regime: the bound exceeds 1 so violations are possible.
        n, m, q, trials = 2, 8, 17, 200
        bound = lambda1_inf_lower_bound(n, m, q)
        assert bound > 1
        bad = 0
        for seed in range(trials):
            A = np.asarray(random_instance(n, m, q, seed=seed).A)
            if lambda1_inf_bruteforce(A, q) <= bound:
                bad += 1
        sigma = (trials * 2.0**-n * (1 - 2.0**-n)) ** 0.5
        assert bad <= trials * 2.0**-n + 3 * sigma


class TestInstanceModel:
    def test_entry_range_enforced(self):
        bad = np.array([[5, 0]], dtype=np.int64)
        bad.setflags(write=False)
        with pytest.raises(BadDimensions):
            SisInstance(n=1, m=2, q=5, A=bad)
        # the convenience constructor normalizes instead
        assert [[int(v) for v in r] for r in SisInstance.create([[5, 0]], 5).A] \
            == [[0, 0]]

    @pytest.mark.parametrize("entry", [6.9, 6.0, "6", True])
    def test_non_integer_entries_rejected(self, entry):
        with pytest.raises(BadDimensions):
            SisInstance.create([[1, entry]], 7)
        with pytest.raises(BadDimensions):
            SisInstance(n=1, m=2, q=7, A=np.array([[1, entry]], dtype=object))

    @pytest.mark.parametrize("rows", [[1, 2], [[1], [1, 2]]])
    def test_non_matrix_rejected(self, rows):
        # q beyond int64 takes the Python-integer branch, which walks the rows
        with pytest.raises(BadDimensions):
            SisInstance.create(rows, 2**64 + 13)

    def test_prime_flag(self):
        assert SisInstance.create([[1, 0]], 7).q_prime
        assert not SisInstance.create([[1, 0]], 8).q_prime

    def test_json_round_trip(self):
        inst = random_instance(2, 4, 11, seed=9, beta=3, norm_kind="l2")
        back = SisInstance.from_json(inst.to_json())
        assert back.n == inst.n and back.m == inst.m and back.q == inst.q
        assert back.beta == inst.beta and back.norm_kind == "l2"
        assert np.array_equal(np.asarray(back.A), np.asarray(inst.A))

    def test_solution_json(self):
        sol = Solution.from_vector([1, -2, 0], "linf")
        assert sol.norm_value == 2

    def test_centered(self):
        assert centered(4, 5) == -1
        assert centered(3, 6) == 3
        assert centered(4, 6) == -2
        arr = centered(np.array([0, 1, 2, 3, 4]), 5)
        assert list(arr) == [0, 1, 2, -2, -1]

    @settings(max_examples=300, deadline=None)
    @given(q=st.one_of(st.integers((1 << 62) - 1000, (1 << 62) + 1000),
                       st.integers((1 << 62) - 1000, (1 << 63) - 1)),
           data=st.data())
    def test_array_branch_matches_scalar_near_int64_limit(self, q, data):
        # 2 r wraps int64 for residues r >= 2^62; the array branch must not
        edges = st.sampled_from([q // 2, q // 2 + 1, q - 1, -1, -q // 2, 1 - (1 << 63)])
        vs = data.draw(st.lists(st.one_of(edges, st.integers(-(1 << 63), (1 << 63) - 1)),
                                min_size=1, max_size=8))
        expect = [centered(v, q) for v in vs]
        for dtype in (np.int64, object):
            got = centered(np.array(vs, dtype=dtype), q)
            assert [int(v) for v in got] == expect


_INT64_EDGES = [(1 << 62) - 1, -((1 << 62) - 1), -(1 << 62), 0, -1,
                (1 << 63) - 1, -(1 << 63)]


class TestResidue:
    @settings(max_examples=400, deadline=None)
    @given(q=st.one_of(st.sampled_from([1, 2, 3, 257, (1 << 62) - 1, 1 << 62]),
                       st.integers(1, 1 << 62)),
           data=st.data())
    def test_matches_python_mod(self, q, data):
        # int64 entries at the edges of the 2^62 bound and of the type itself,
        # and object entries past 2^63: Python % entry by entry, in v's type
        vs = data.draw(st.lists(st.one_of(st.sampled_from(_INT64_EDGES),
                                          st.integers(-(1 << 63), (1 << 63) - 1)),
                                min_size=1, max_size=8))
        big = data.draw(st.lists(st.integers(-(1 << 80), 1 << 80), min_size=1, max_size=8))
        for v in (np.array(vs, dtype=np.int64), np.array(vs + big, dtype=object)):
            got = residue(v, q)
            assert got.dtype == v.dtype
            assert [int(r) for r in got] == [int(x) % q for x in v]

    def test_shape_and_scalars(self):
        v = np.arange(-6, 6, dtype=np.int64).reshape(3, 4)
        assert residue(v, 5).tolist() == (v % 5).tolist()
        assert residue(v, np.int64(5)).tolist() == (v % 5).tolist()
        assert residue(-7, 3) == 2

    def test_no_other_array_reduction_in_the_library(self):
        # one reduction per concept: np.mod and np.remainder stay out of src/
        src = Path(__file__).resolve().parents[1] / "src" / "wagnersis"
        found = [f"{path.name}:{i}" for path in sorted(src.glob("*.py"))
                 for i, line in enumerate(path.read_text().splitlines(), 1)
                 if "np.mod(" in line or "np.remainder(" in line]
        assert not found, f"reduce mod q with zqlin.residue: {found}"


def _matmul_reference(X, A):
    """X @ A.T over Python integers, one entry at a time."""
    return [[sum(int(x) * int(a) for x, a in zip(xrow, arow)) for arow in A]
            for xrow in X]


def _matrix(data, rows, cols, elements):
    return [[data.draw(elements) for _ in range(cols)] for _ in range(rows)]


_SIGNED = [np.int8, np.int16, np.int32, np.int64]
# a bound from the caller, in place of the one read from the data: none, and
# either side of 2^62
_CALLER_BOUNDS = [None, _INT64_SAFE - 1, _INT64_SAFE]


class TestIntMatmul:
    @settings(max_examples=600, deadline=None)
    @given(k=st.integers(1, 6), max_a=st.integers(1, 1 << 31),
           rows=st.integers(1, 3), b=st.integers(1, 3),
           delta=st.integers(-2, 2), x_type=st.sampled_from(_SIGNED),
           a_type=st.sampled_from(_SIGNED), caller=st.sampled_from(_CALLER_BOUNDS),
           data=st.data())
    def test_exact_on_both_sides_of_the_int64_guard(self, k, max_a, rows, b, delta,
                                                    x_type, a_type, caller, data):
        # Operands of every signed type, mixed or not.  max|X| puts
        # k max|A| max|X| within a few steps of 2^62 where X's type holds it
        # (at its largest value otherwise), and entries at +-max hit the
        # worst-case partial sums.  A caller's bound, at least that one,
        # decides the tier in its place: 2^62 - 1 gives int64, 2^62 Python
        # integers.
        max_a = min(max_a, int(np.iinfo(a_type).max))
        max_x = min(max(1, (_INT64_SAFE - 1) // (k * max_a) + delta),
                    int(np.iinfo(x_type).max))
        assume(caller is None or k * max_a * max_x <= caller)
        xs = st.one_of(st.sampled_from([max_x, -max_x]), st.integers(-max_x, max_x))
        as_ = st.one_of(st.sampled_from([max_a, -max_a]), st.integers(-max_a, max_a))
        X = _matrix(data, rows, k, xs)
        A = _matrix(data, b, k, as_)
        X[0][0], A[0][0] = max_x, max_a
        got = int_matmul(np.array(X, dtype=x_type), np.array(A, dtype=a_type), caller)
        bound = k * max_a * max_x if caller is None else caller
        assert got.dtype == (np.int64 if bound < _INT64_SAFE else object)
        assert got.tolist() == _matmul_reference(X, A)

    @pytest.mark.parametrize("limit", [1 << 24, 1 << 53], ids=["2^24", "2^53"])
    @settings(max_examples=300, deadline=None)
    @given(k=st.sampled_from([1, 3, 5]), max_a=st.integers(1, 1 << 31),
           rows=st.integers(1, 3), b=st.integers(1, 3), step=st.integers(-1, 2),
           sign=st.sampled_from([1, -1]), x_type=st.sampled_from(_SIGNED),
           a_type=st.sampled_from(_SIGNED), data=st.data())
    def test_exact_on_both_sides_of_the_float_guards(self, limit, k, max_a, rows, b, step,
                                                      sign, x_type, a_type, data):
        # The float32 tier's twin of the 2^62 test, at its limit 2^24 and at
        # 2^53, float64's, which the int64 tier spans.  k, max|A| and max|X|
        # are odd, and the first rows sit at +max and sign * max, so the
        # product holds +-k max|A| max|X|, an odd integer: past the limit no
        # float of that width holds it, and a float product taken there
        # returns a wrong sum.  max|X| is the largest odd value whose bound is below the limit,
        # moved by `step` odd steps (at the type's largest value, also odd, if
        # X's type cannot reach it).
        max_a = min(max_a | 1, int(np.iinfo(a_type).max))
        below = (limit - 1) // (k * max_a)
        max_x = min(max(1, below - 1 + below % 2 + 2 * step), int(np.iinfo(x_type).max))
        xs = st.one_of(st.sampled_from([max_x, -max_x]), st.integers(-max_x, max_x))
        as_ = st.one_of(st.sampled_from([max_a, -max_a]), st.integers(-max_a, max_a))
        X = _matrix(data, rows, k, xs)
        A = _matrix(data, b, k, as_)
        X[0], A[0] = [max_x] * k, [sign * max_a] * k
        got = int_matmul(np.array(X, dtype=x_type), np.array(A, dtype=a_type))
        assert got.dtype == np.int64
        assert got.tolist() == _matmul_reference(X, A)

    def test_odd_sum_past_float32(self):
        # 1 + 2^24 has no float32 value (float32 gives 16777216); the bound
        # 2 * 1 * 2^24 puts the product in int64
        assert int_matmul(np.array([[1, 2**24]]), np.array([[1, 1]])).tolist() == [[16777217]]

    @pytest.mark.parametrize("X, A, tier", [
        *[(np.array([[x]]), np.array([[1]]), tier) for x, tier in [
            (2**24 - 1, np.float32), (2**24, np.int64),
            (2**62 - 1, np.int64), (2**62, None)]],
        # int8 and int16 heads, whose bound is read in their own type, on
        # either side of 2^62: they go to int64 or to Python integers,
        # exactly (bound = x * a)
        *[(np.array([[x]], dtype=x_type), np.array([[a]]), tier)
          for x_type, x in [(np.int8, 127), (np.int16, 32767)]
          for a, tier in [((2**62 - 1) // x, np.int64), (-(-2**62 // x), None)]],
        # the asymmetric ends of the narrow types, whose magnitude the type
        # itself cannot hold, on either side of 2^24 (bound = |x| * a)
        *[(np.array([[x]], dtype=x_type), np.array([[a]]), tier)
          for x_type, x in [(np.int8, -128), (np.int16, -32768)]
          for a, tier in [(2**24 // -x - 1, np.float32), (2**24 // -x, np.int64)]],
        # both operands narrow: k columns of -128 against -32768, bound k 2^22
        *[(np.full((1, k), -128, dtype=np.int8), np.full((1, k), -32768, dtype=np.int16),
           tier) for k, tier in [(3, np.float32), (4, np.int64)]],
        # a lift at the naive-rounding benchmark's shape: int16 heads of
        # magnitude 128 against 18 columns of A' entries below q = 257,
        # bound 18 * 256 * 128 < 2^24
        (np.full((4, 18), -128, dtype=np.int16), np.full((2, 18), 256), np.float32),
    ], ids=["2^24-1", "2^24", "2^62-1", "2^62", "int8-2^62-1", "int8-2^62",
            "int16-2^62-1", "int16-2^62", "int8-min-below-2^24", "int8-min-at-2^24",
            "int16-min-below-2^24", "int16-min-at-2^24", "int8-int16-min-below-2^24",
            "int8-int16-min-at-2^24", "lift-shape"])
    def test_tier_edges(self, X, A, tier, monkeypatch):
        # np.matmul runs in the narrowest exact type on either side of each
        # limit and every numeric tier returns int64; past 2^62 no numeric
        # product runs
        operand_types = []
        matmul = np.matmul

        def spy(a, b, *args, **kwargs):
            operand_types.append((np.asarray(a).dtype, np.asarray(b).dtype))
            return matmul(a, b, *args, **kwargs)

        monkeypatch.setattr(np, "matmul", spy)
        got = int_matmul(X, A)
        monkeypatch.undo()
        assert operand_types == ([] if tier is None else [(np.dtype(tier),) * 2])
        assert got.dtype == (object if tier is None else np.int64)
        assert got.tolist() == _matmul_reference(X.tolist(), A.tolist())

    def test_narrow_product_does_not_wrap(self):
        # 2 * 300 * 300 = 180000 overflows int16: the product is int64
        X = np.array([[300, 300]], dtype=np.int16)
        got = int_matmul(X, X)
        assert got.dtype == np.int64 and got.tolist() == [[180000]]

    @pytest.mark.parametrize("a, b", [
        (2**61 - 1, -(2**61 - 1)), (2**61, 0), (-(2**61), 5), (2**63 - 1, 2**63 - 1),
        (-(2**63), -(2**63)), (7, -3)])
    def test_add_on_both_sides_of_the_int64_guard(self, a, b):
        # the sum form of the rule: int64 exactly when 2 max(|a|, |b|) < 2^62
        got = int_lincomb([(1, np.array([a, b], dtype=np.int64)),
                           (1, np.array([b, a], dtype=np.int64))])
        assert got.dtype == (np.int64 if 2 * max(abs(a), abs(b)) < _INT64_SAFE else object)
        assert got.tolist() == [a + b, a + b]

    @settings(max_examples=200, deadline=None)
    @given(q=st.integers(1 << 31, 1 << 80), k=st.integers(1, 5),
           rows=st.integers(1, 3), b=st.integers(1, 3), data=st.data())
    def test_object_operands_for_wide_moduli(self, q, k, rows, b, data):
        A = _matrix(data, b, k, st.integers(0, q - 1))
        X = _matrix(data, rows, k, st.integers(-q, q))
        ref = _matmul_reference(X, A)
        A_obj = np.array(A, dtype=object)
        assert int_matmul(np.array(X, dtype=object), A_obj).tolist() == ref
        assert [int(v) for v in matvec_mod(A_obj, X[0], q)] == [v % q for v in ref[0]]


_SHAPES = [(3,), (2, 3), (2, 1)]


@st.composite
def _lincomb_terms(draw):
    """1 to 3 terms (c, a) of every signed type and broadcastable shapes.
    The last coefficient puts the bound sum |c| max(1, max|a|) within two
    steps of 2^62, on either side, a step being the last term's max(1,
    max|a|); entries at +-max|a| hit the worst-case partial sums."""
    k = draw(st.integers(1, 3))
    terms, bound = [], 0
    for i in range(k):
        dtype = draw(st.sampled_from(_SIGNED))
        cap = int(np.iinfo(dtype).max)
        if i < k - 1:  # earlier terms keep the bound below 2^61
            cap = min(cap, 1 << 40)
        max_a = draw(st.one_of(st.sampled_from([0, 1, cap]), st.integers(0, cap)))
        if i < k - 1:
            c = draw(st.integers(-(1 << 20), 1 << 20))
        else:
            c = max(1, (_INT64_SAFE - 1 - bound) // max(1, max_a)
                    + draw(st.integers(-2, 2)))
            c *= draw(st.sampled_from([1, -1]))
        bound += abs(c) * max(1, max_a)
        elems = st.one_of(st.sampled_from([max_a, -max_a]), st.integers(-max_a, max_a))
        shape = draw(st.sampled_from(_SHAPES))
        vals = [draw(elems) for _ in range(math.prod(shape))]
        vals[0] = max_a
        terms.append((c, np.array(vals, dtype=dtype).reshape(shape)))
    return terms


def _lincomb_reference(terms):
    """The elementwise sum over Python integers, one entry at a time."""
    shape = np.broadcast_shapes(*(np.shape(a) for _, a in terms))
    cols = [[int(c) * int(v) for v in np.broadcast_to(np.array(a, dtype=object), shape).flat]
            for c, a in terms]
    return np.array([sum(col) for col in zip(*cols)], dtype=object).reshape(shape).tolist()


class TestIntLincomb:
    @settings(max_examples=600, deadline=None)
    @given(terms=_lincomb_terms(), caller=st.sampled_from(_CALLER_BOUNDS))
    # a scalar term, with 10 * 32767 formed in int64 where int16 would wrap,
    # and a coefficient past int64 on an all-zero array
    @example(terms=[(2 * 5, np.array([0, 300, -32767], dtype=np.int16)), (61, 1)],
             caller=None)
    @example(terms=[(1 << 64, np.zeros(3, dtype=np.int64))], caller=None)
    # small terms under a caller's bound on either side of 2^62
    @example(terms=[(3, np.array([5, -7])), (1, np.array([2**40]))], caller=_INT64_SAFE - 1)
    @example(terms=[(3, np.array([5, -7])), (1, np.array([2**40]))], caller=_INT64_SAFE)
    def test_exact_on_both_sides_of_the_int64_guard(self, terms, caller):
        # a caller's bound, at least the data's, decides in its place
        bound = sum(abs(c) * max(1, max(map(abs, np.ravel(a).tolist()), default=0))
                    for c, a in terms)
        assume(caller is None or bound <= caller)
        got = int_lincomb(terms, caller)
        if caller is not None:
            bound = caller
        assert got.dtype == (np.int64 if bound < _INT64_SAFE else object)
        assert got.tolist() == _lincomb_reference(terms)

    @settings(max_examples=200, deadline=None)
    @given(terms=_lincomb_terms())
    # one unit term, in int64 (returned as is before the copy) and as objects
    @example(terms=[(1, np.arange(3, dtype=np.int64))])
    @example(terms=[(1, np.array([1 << 70], dtype=object))])
    @example(terms=[(1, np.arange(3, dtype=np.int64)), (1, np.zeros(1, dtype=np.int64))])
    def test_result_never_aliases_a_term(self, terms):
        # callers write into the result: it is never one of their arrays
        got = int_lincomb(terms)
        assert not any(np.shares_memory(got, a) for _, a in terms)

