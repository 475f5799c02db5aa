import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wagnersis.errors import (
    BadDimensions,
    BudgetExceeded,
    DimensionMismatch,
    NonInvertiblePivot,
    RankDeficient,
)
from wagnersis.rngutil import derive_np_rng
from wagnersis.zqlin import (
    _INT64_SAFE,
    SisInstance,
    Solution,
    centered,
    int_add,
    int_matmul,
    lambda1_inf_bruteforce,
    matvec_mod,
    permute_solution_back,
    random_instance,
    systematic_form,
)


class TestSystematicForm:
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

    def test_object_branch_below_2_63_is_numpy_draw(self):
        q = (1 << 63) - 25
        rng = derive_np_rng(3, "instance", 2, 5, q)
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
            lambda1_inf_bruteforce(np.zeros((8, 8), dtype=np.int64) + 1, 257,
                                   budget=1000)

    def test_range_invariants(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            A = rng.integers(0, 17, size=(2, 5))
            val = lambda1_inf_bruteforce(A, 17)
            assert 1 <= val <= 17 // 2

    def test_lower_bound_lemma_fraction(self):
        # Nontrivial regime: the bound exceeds 1 so violations are possible.
        from wagnersis.dgauss import lambda1_inf_lower_bound

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
        back = Solution.from_json(sol.to_json())
        assert back.x == (1, -2, 0)

    def test_centered(self):
        assert centered(4, 5) == -1
        assert centered(3, 6) == 3
        assert centered(4, 6) == -2
        arr = centered(np.array([0, 1, 2, 3, 4]), 5)
        assert list(arr) == [0, 1, 2, -2, -1]


def _matmul_reference(X, A):
    """X @ A.T over Python integers, one entry at a time."""
    return [[sum(int(x) * int(a) for x, a in zip(xrow, arow)) for arow in A]
            for xrow in X]


def _matrix(data, rows, cols, elements):
    return [[data.draw(elements) for _ in range(cols)] for _ in range(rows)]


class TestIntMatmul:
    @settings(max_examples=300, deadline=None)
    @given(k=st.integers(1, 6), max_a=st.integers(1, 1 << 31),
           rows=st.integers(1, 3), b=st.integers(1, 3),
           delta=st.integers(-2, 2), data=st.data())
    def test_exact_on_both_sides_of_the_int64_guard(self, k, max_a, rows, b,
                                                    delta, data):
        # max|X| puts k max|A| max|X| within a few steps of 2^62, and entries
        # at +-max hit the worst-case partial sums.
        max_x = max(1, (_INT64_SAFE - 1) // (k * max_a) + delta)
        xs = st.one_of(st.sampled_from([max_x, -max_x]), st.integers(-max_x, max_x))
        as_ = st.one_of(st.sampled_from([max_a, -max_a]), st.integers(-max_a, max_a))
        X = _matrix(data, rows, k, xs)
        A = _matrix(data, b, k, as_)
        X[0][0], A[0][0] = max_x, max_a
        got = int_matmul(np.array(X, dtype=np.int64), np.array(A, dtype=np.int64))
        assert got.dtype == (np.int64 if k * max_a * max_x < _INT64_SAFE else object)
        assert got.tolist() == _matmul_reference(X, A)

    @pytest.mark.parametrize("a, b", [
        (2**61 - 1, -(2**61 - 1)), (2**61, 0), (-(2**61), 5), (2**63 - 1, 2**63 - 1),
        (-(2**63), -(2**63)), (7, -3)])
    def test_add_on_both_sides_of_the_int64_guard(self, a, b):
        # the sum form of the rule: int64 exactly when 2 max(|a|, |b|) < 2^62
        got = int_add(np.array([a, b], dtype=np.int64), np.array([b, a], dtype=np.int64))
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

