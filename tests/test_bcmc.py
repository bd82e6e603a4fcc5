import itertools
import tracemalloc

import numpy as np
import pytest

from orderpv import GroupedDataset, make_bcmc_test, subsample_pvalues
from orderpv.bcmc import (
    _STACK_BYTES,
    BinaryMatrix,
    ChainConfig,
    _advance,
    _serial_pvalue_rng,
    checkerboard_score,
    generate_null_matrix,
    serial_pvalue,
)
from orderpv.rngs import stream

from oracles import (
    advance_reference,
    checkerboard_score_bruteforce,
    checkerboard_score_int64,
    enumerate_margin_class,
    gale_ryser_feasible,
)

PERM_MARGINS = ([1, 1, 1], [1, 1, 1])
BLOCK_MARGINS = ([2, 2, 2, 2, 2, 2], [3, 3, 3, 3])


def state_key(entries):
    return np.asarray(entries, dtype=np.int8).tobytes()


class TestBinaryMatrix:
    def test_holds_entries_and_shape(self):
        mat = BinaryMatrix([[1, 0, 1], [0, 1, 1]])
        assert mat.entries.dtype == np.int8
        assert mat.entries.sum(axis=1).tolist() == [2, 2]
        assert mat.entries.sum(axis=0).tolist() == [1, 1, 2]
        assert mat.shape == (2, 3)

    def test_entries_are_read_only(self):
        mat = BinaryMatrix([[1, 0], [0, 1]])
        with pytest.raises(ValueError):
            mat.entries[0, 0] = 0

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            BinaryMatrix([[0, 2], [1, 0]])
        with pytest.raises(ValueError):
            BinaryMatrix([[0.5, 1], [1, 0]])
        with pytest.raises(ValueError):
            BinaryMatrix(np.zeros((0, 3)))
        with pytest.raises(ValueError):
            BinaryMatrix([1, 0, 1])
        with pytest.raises(ValueError):
            BinaryMatrix([[np.nan, 1], [1, 0]])

    def test_wrapping_a_binary_matrix_shares_its_entries(self):
        mat = BinaryMatrix([[1, 0], [0, 1]])
        assert BinaryMatrix(mat).entries is mat.entries

    def test_does_not_touch_the_input(self):
        entries = np.eye(3, dtype=np.int8)
        mat = BinaryMatrix(entries)
        assert entries.flags.writeable and mat.entries is not entries


class TestSwapStep:
    def test_two_by_two_identity_always_flips(self):
        # the only other state with margins (1,1)/(1,1) is the anti-identity
        for seed in range(5):
            work = np.eye(2, dtype=np.int8)
            _advance(work, 1, np.random.default_rng(seed))
            assert work.tolist() == [[0, 1], [1, 0]]
            assert work.sum(axis=1).tolist() == [1, 1]

    def test_all_ones_never_moves(self):
        work = np.ones((3, 4), dtype=np.int8)
        rng = np.random.default_rng(8)
        for _ in range(200):
            _advance(work, 1, rng)
            assert np.all(work == 1)

    def test_rejects_degenerate_shapes(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            _advance(np.array([[1, 0, 1]], dtype=np.int8), 1, rng)
        with pytest.raises(ValueError):
            _advance(np.array([[1], [0]], dtype=np.int8), 1, rng)

    def test_margins_conserved_over_many_steps(self):
        mat = generate_null_matrix([3] * 8, [4] * 6, burn_in=0, seed=0)
        work = np.array(mat.entries)
        _advance(work, 10_000, np.random.default_rng(13))
        assert work.sum(axis=1).tolist() == mat.entries.sum(axis=1).tolist()
        assert work.sum(axis=0).tolist() == mat.entries.sum(axis=0).tolist()
        assert np.isin(work, (0, 1)).all()

    def test_long_run_frequencies_uniform_on_permutation_class(self):
        states = {state_key(m): i for i, m in enumerate(enumerate_margin_class(*PERM_MARGINS))}
        assert len(states) == 6
        work = np.eye(3, dtype=np.int8)
        rng = np.random.default_rng(99)
        visits = np.zeros(6, dtype=np.int64)
        thin, blocks = 25, 8_000  # thinning keeps the binomial error bar honest
        for _ in range(blocks):
            _advance(work, thin, rng)
            visits[states[state_key(work)]] += 1
        freq = visits / blocks
        se = np.sqrt((1 / 6) * (5 / 6) / blocks)
        assert np.all(np.abs(freq - 1 / 6) <= 3 * se)

    def test_single_step_transitions_are_symmetric(self):
        # empirical one-step matrix on the 6-state class, row by row
        members = enumerate_margin_class(*PERM_MARGINS)
        index = {state_key(m): i for i, m in enumerate(members)}
        trials = 4000
        counts = np.zeros((6, 6), dtype=np.int64)
        for i, start in enumerate(members):
            for t in range(trials):
                work = start.copy()
                _advance(work, 1, stream(1234 + i, t))
                counts[i, index[state_key(work)]] += 1
        phat = counts / trials
        for i in range(6):
            for j in range(i + 1, 6):
                se = np.sqrt((phat[i, j] * (1 - phat[i, j]) + phat[j, i] * (1 - phat[j, i])) / trials)
                assert abs(phat[i, j] - phat[j, i]) <= 4 * max(se, 1e-3)


def layouts(entries):
    """`entries` as an int8 C array, a Fortran array and a strided view."""
    entries = np.asarray(entries, dtype=np.int8)
    r, c = entries.shape
    strided = np.full((2 * r, 3 * c), 7, dtype=np.int8)[::2, 1::3]
    strided[...] = entries
    return [entries.copy(), np.asfortranarray(entries), strided]


class TestAdvanceMatchesReference:
    """`_advance` against the numpy-indexed loop in `oracles`, state by state.

    The reference scores every state on its own, as a stack of one; the
    chain stacks states, so these tests also show the stacking is exact.
    """

    @staticmethod
    def run(advance, work, steps, seed):
        """Each step's state, each scored state and the generator state."""
        rng = np.random.default_rng(seed)
        states, scored = [], []

        def record_states(stack):  # a state's value is its bytes
            values = [state.tobytes() for state in stack]
            scored.extend(values)
            return values

        advance(work, steps, rng, record_states, trace=states)
        return states, scored, rng.bit_generator.state

    def test_every_state_on_random_small_matrices(self):
        picker = np.random.default_rng(5)
        for i in range(200):
            r, c = int(picker.integers(2, 7)), int(picker.integers(2, 7))
            entries = picker.random((r, c)) < picker.random()
            steps, seed = int(picker.integers(1, 300)), int(picker.integers(2**32))
            work, ref = layouts(entries)[i % 3], layouts(entries)[i % 3]
            got = self.run(_advance, work, steps, seed)
            want = self.run(advance_reference, ref, steps, seed)
            assert got == want, i
            assert np.array_equal(work, ref)
            if i % 3 == 2:  # cells outside the strided view are untouched
                assert np.count_nonzero(work.base == 7) == work.base.size - work.size

    @staticmethod
    def run_scored(mat, steps, seed):
        """Count, trace, final state and generator state of both chains."""
        observed = checkerboard_score(mat)
        results = []
        for advance in (_advance, advance_reference):
            work, rng, trace = np.array(mat.entries), np.random.default_rng(seed), []
            count = advance(work, steps, rng, checkerboard_score, observed, trace)
            results.append((count, trace, work.tobytes(), rng.bit_generator.state))
        return results

    def test_count_and_trace_across_blocks(self):
        mat = generate_null_matrix([3] * 8, [4] * 6, burn_in=0, seed=0)
        got, want = self.run_scored(mat, 2 * 8192 + 5, 77)
        assert got == want

    def test_count_and_trace_across_stack_flushes(self):
        # a 40x20 state is 800 bytes, so a stack holds 40 of the ~1000
        # states of this chain
        mat = generate_null_matrix([6] * 40, [12] * 20, seed=3)
        got, want = self.run_scored(mat, 10_000, 78)
        assert got == want
        assert len(set(got[1])) > _STACK_BYTES // mat.entries.size

    @pytest.mark.parametrize("shape", [(300, 4), (4, 300)])
    def test_every_state_and_count_on_long_rows_and_columns(self, shape):
        # the row indices of 300x4 and the column indices of 4x300 go above
        # 256, past Python's cached small ints, through the row views
        entries = np.random.default_rng(80).random(shape) < 0.15
        for i, (work, ref) in enumerate(zip(layouts(entries), layouts(entries))):
            got = self.run(_advance, work, 10_000, 81 + i)
            want = self.run(advance_reference, ref, 10_000, 81 + i)
            assert got == want, i
            assert len(set(got[0])) > 100
            assert np.array_equal(work, ref)
        got, want = self.run_scored(BinaryMatrix(entries), 10_000, 84)
        assert got == want

    def test_count_and_trace_when_one_state_exceeds_the_stack(self):
        mat = generate_null_matrix([100] * 200, [100] * 200, burn_in=500, seed=1)
        assert mat.entries.size > _STACK_BYTES
        got, want = self.run_scored(mat, 200, 79)
        assert got == want
        assert len(set(got[1])) > 2


class TestStackedStatistic:
    """The chain scores its states in stacks of bounded size."""

    @staticmethod
    def recording(calls):
        def statistic(stack):
            calls.append(stack.shape)
            return checkerboard_score(stack)
        return statistic

    def test_stack_bytes_are_bounded(self):
        mat = generate_null_matrix([6] * 40, [12] * 20, seed=3)
        calls = []
        p = serial_pvalue(mat, ChainConfig(length=10_000, statistic=self.recording(calls), seed=4))
        assert p == serial_pvalue(mat, ChainConfig(length=10_000, seed=4))
        assert calls[0] == (1, 40, 20)  # the observed state
        assert all(np.prod(shape) <= _STACK_BYTES for shape in calls)
        # about 1000 accepted swaps, scored in a few dozen calls
        assert sum(shape[0] for shape in calls) > 500
        assert len(calls) <= 40

    def test_a_state_beyond_the_bound_goes_alone(self):
        mat = generate_null_matrix([100] * 200, [100] * 200, burn_in=0, seed=1)
        calls = []
        serial_pvalue(mat, ChainConfig(length=50, statistic=self.recording(calls), seed=2))
        assert len(calls) > 3
        assert set(calls) == {(1, 200, 200)}

    def test_chain_length_does_not_grow_the_stack(self):
        mat = generate_null_matrix(*BLOCK_MARGINS, burn_in=100, seed=2)
        calls = []
        serial_pvalue(mat, ChainConfig(length=50_000, statistic=self.recording(calls), seed=3))
        assert max(np.prod(shape) for shape in calls) <= _STACK_BYTES
        assert len(calls) > 2

    def test_traced_peak_of_a_scored_chain_is_bounded(self):
        # 1.14 MB with the 2-D memoryview loop and 1.22 MB with the row
        # views; precomputed flat index lists r1 * c + c1 hold int objects
        # above 256 and take it to about 1.9 MB
        mat = generate_null_matrix([6] * 40, [12] * 20, seed=3)
        observed = checkerboard_score(mat)
        work = np.array(mat.entries)
        tracemalloc.start()
        try:
            _advance(work, 10_000, np.random.default_rng(5), checkerboard_score, observed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_500_000


class TestChainPins:
    """Chain outputs recorded before the swap loop and the statistic were sped up."""

    NULL_ROWS = (
        "00000010011001000101", "10000110001000010010", "00001110000001001100",
        "00000010000000111101", "10001010010001001000", "01110000100000100001",
        "01110010100000010000", "10001011100001000000", "00101000100110000100",
        "00101001000000000111", "01001100000001000011", "01000100000111100000",
        "11001000001000001010", "00010001001010100010", "00010000001100110010",
        "00101100000101010000", "00000110110100100000", "00000001000000011111",
        "10111000110000000000", "01010001000011000010", "00010000101011010000",
        "10001000000010001110", "01000000010010001101", "10010010000100110000",
        "01000100110010100000", "00110001001110000000", "11100000010000001100",
        "10000100001100000101", "00000011010000101100", "00010101000001011000",
        "01000000001100001011", "00101001111000000000", "00000001110001010001",
        "01000010100000000111", "00110110001010000000", "10100101000100000010",
        "00010000110110010000", "10100000000100111000", "00000101001010100001",
        "11001000010001100000",
    )

    @pytest.fixture(scope="class")
    def null_matrix(self):
        return generate_null_matrix([6] * 40, [12] * 20, seed=3)

    def test_null_matrix_entries(self, null_matrix):
        rows = tuple("".join(map(str, row)) for row in null_matrix.entries.tolist())
        assert rows == self.NULL_ROWS

    def test_serial_pvalues(self, null_matrix):
        block = generate_null_matrix(*BLOCK_MARGINS, burn_in=100, seed=2)
        for mat, length, counts in (
            (null_matrix, 2000, [1578, 1357, 442, 1083, 1360]),
            (block, 200, [2, 9, 10, 10, 11]),
        ):
            for seed, count in enumerate(counts):
                assert serial_pvalue(mat, ChainConfig(length=length, seed=seed)) == count / length

    def test_trace(self, null_matrix):
        p, trace = serial_pvalue(null_matrix, ChainConfig(length=64, seed=5), return_trace=True)
        # the score is an integer sum over the 20 * 19 ordered column pairs
        sums = [30372] * 23 + [30356] * 4 + [30340] * 37
        assert p == 1.0
        assert np.array_equal(trace, np.asarray(sums) / 380)

    def test_subsample_pvalues(self):
        # the paper's application: one serial p-value per subsampled pick
        data = GroupedDataset([
            [[1, 0, 1, 0], [0, 1, 1, 0]],
            [[1, 1, 0, 0]],
            [[0, 0, 1, 1], [1, 0, 0, 1], [0, 1, 0, 1]],
            [[1, 0, 0, 0], [0, 1, 1, 1]],
            [[0, 1, 0, 0]],
            [[1, 1, 1, 0], [0, 0, 0, 1]],
        ])
        counts = (
            [50, 50, 43, 50, 50, 50, 49, 42, 50, 50, 50, 50, 50, 49, 50, 50, 50, 50, 50, 37,
             50, 50, 50, 50, 50, 50, 50, 50, 50, 49, 50, 50, 34, 40, 46, 50, 43, 50, 50, 50],
            [42, 50, 50, 36, 50, 50, 46, 50, 50, 40, 50, 50, 50, 50, 50, 50, 50, 46, 46, 50,
             50, 50, 50, 50, 49, 50, 50, 50, 50, 50, 50, 48, 50, 50, 50, 50, 50, 50, 50, 50],
            [42, 48, 50, 50, 50, 50, 50, 50, 50, 50, 46, 50, 49, 50, 50, 50, 45, 48, 50, 50,
             50, 50, 49, 46, 50, 32, 48, 50, 50, 47, 41, 43, 50, 50, 50, 50, 50, 48, 50, 42],
        )
        for seed, want in enumerate(counts):
            values = subsample_pvalues(data, make_bcmc_test(50), 40, seed)
            assert values.tolist() == [count / 50 for count in want]


class TestStatistics:
    def test_checkerboard_score_matches_bruteforce(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            entries = (rng.random((7, 4)) < 0.5).astype(int)
            mat = BinaryMatrix(entries)
            assert checkerboard_score(mat) == checkerboard_score_bruteforce(entries)

    def test_checkerboard_score_equals_int64_formula(self):
        # the float64 overlap product must give the very same float
        rng = np.random.default_rng(2024)
        inputs = (np.asarray, lambda e: e.astype(int), lambda e: e.astype(int).tolist(), BinaryMatrix)
        for i in range(500):
            r, c = int(rng.integers(1, 61)), int(rng.integers(2, 61))
            entries = rng.random((r, c)) < rng.random()
            entries[:, rng.random(c) < 0.1] = False  # all-zero columns
            entries[:, rng.random(c) < 0.1] = True  # all-one columns
            expected = checkerboard_score_int64(entries)
            assert checkerboard_score(inputs[i % 4](entries)) == expected, (i, r, c)

    def test_checkerboard_score_of_a_stack_is_per_matrix(self):
        # each score equals the matrix's own, whatever stack it is in
        rng = np.random.default_rng(31)
        for r, c in ((6, 4), (40, 20), (1, 2), (13, 7)):
            stack = rng.random((25, r, c)) < rng.random()
            scores = checkerboard_score(stack.astype(np.int8))
            assert scores.shape == (25,)
            assert scores.tolist() == [checkerboard_score_int64(m) for m in stack]
            assert checkerboard_score(stack[3:4]).tolist() == [scores[3]]
        assert checkerboard_score(np.zeros((0, 3, 3), dtype=np.int8)).shape == (0,)

    def test_checkerboard_score_of_wide_and_large_matrices(self):
        rng = np.random.default_rng(47)
        for r, c in ((2, 3), (3, 40), (5, 300), (20, 21)):
            stack = rng.random((6, r, c)) < rng.random()
            scores = checkerboard_score(stack.astype(np.int8))
            assert scores.tolist() == [checkerboard_score_int64(m) for m in stack], (r, c)
        entries = rng.random((300, 300)) < 0.4
        assert checkerboard_score(entries) == checkerboard_score_int64(entries)

    def test_checkerboard_score_varies_across_class(self):
        scores = {round(checkerboard_score(m), 9) for m in enumerate_margin_class(*BLOCK_MARGINS)}
        assert len(scores) > 1


class TestSerialPvalue:
    def test_length_one_is_always_one(self):
        mat = BinaryMatrix(np.eye(2, dtype=int))
        assert serial_pvalue(mat, ChainConfig(length=1, seed=3)) == 1.0

    def test_constant_statistic_gives_one(self):
        mat = BinaryMatrix(np.ones((3, 3), dtype=int))  # singleton class
        cfg = ChainConfig(length=50, statistic=checkerboard_score, seed=9)
        assert serial_pvalue(mat, cfg) == 1.0

    def test_default_statistic_has_power(self):
        # on a null matrix the default must rank the observed state inside
        # the chain; a statistic fixed by the margins would always give 1
        mat = generate_null_matrix([6] * 40, [12] * 20, seed=3)
        for seed in range(3):
            p = serial_pvalue(mat, ChainConfig(length=2000, seed=seed))
            explicit = ChainConfig(length=2000, statistic=checkerboard_score, seed=seed)
            assert p == serial_pvalue(mat, explicit)
            assert p < 1.0

    def test_output_is_multiple_of_one_over_length(self):
        mat = generate_null_matrix(*BLOCK_MARGINS, burn_in=200, seed=21)
        for seed in range(5):
            cfg = ChainConfig(length=40, statistic=checkerboard_score, seed=seed)
            p = serial_pvalue(mat, cfg)
            assert 0.0 < p <= 1.0
            assert round(p * 40, 9) == int(round(p * 40))

    def test_deterministic_given_seed(self):
        mat = generate_null_matrix(*BLOCK_MARGINS, burn_in=100, seed=2)
        cfg = ChainConfig(length=500, statistic=checkerboard_score, seed=37)
        assert serial_pvalue(mat, cfg) == serial_pvalue(mat, cfg)

    def test_trace_has_chain_layout(self):
        mat = generate_null_matrix(*BLOCK_MARGINS, burn_in=100, seed=4)
        cfg = ChainConfig(length=64, statistic=checkerboard_score, seed=5)
        p, trace = serial_pvalue(mat, cfg, return_trace=True)
        assert trace.shape == (64,)
        observed = checkerboard_score(mat)
        assert observed in trace
        assert p == np.mean(trace >= observed)

    def test_null_validity_on_enumerated_class(self):
        members = enumerate_margin_class(*BLOCK_MARGINS)
        picker = np.random.default_rng(123)
        reps = 1500
        ps = np.empty(reps)
        for i in range(reps):
            start = members[picker.integers(len(members))]
            ps[i] = _serial_pvalue_rng(start, 200, checkerboard_score, stream(888, i))
        for alpha in (0.05, 0.1, 0.25):
            se = np.sqrt(alpha * (1 - alpha) / reps)
            assert (ps <= alpha).mean() <= alpha + 3 * se

    def test_propagates_degenerate_shape(self):
        mat = BinaryMatrix([[1, 0, 1]])
        with pytest.raises(ValueError):
            serial_pvalue(mat, ChainConfig(length=100, seed=0))
        # the rule holds at every chain length, for plain arrays too
        for entries in ([[1, 0, 1]], [[1], [0], [1]], [[1]]):
            for length in (1, 2, 100):
                for mat in (entries, BinaryMatrix(entries)):
                    with pytest.raises(ValueError, match="at least 2 rows and 2 columns"):
                        serial_pvalue(mat, ChainConfig(length=length, seed=0))

    def test_accepts_any_binary_array_like(self):
        entries = np.eye(2, dtype=int)
        cfg = ChainConfig(length=1, seed=3)
        assert serial_pvalue(entries, cfg) == serial_pvalue(BinaryMatrix(entries), cfg) == 1.0
        mat = generate_null_matrix(*BLOCK_MARGINS, burn_in=100, seed=2)
        cfg = ChainConfig(length=300, seed=7)
        expected = serial_pvalue(mat, cfg)
        for convert in (np.asarray, lambda e: e.astype(int), lambda e: e.astype(bool),
                        lambda e: e.astype(float).tolist(), np.asfortranarray):
            assert serial_pvalue(convert(mat.entries), cfg) == expected

    def test_rejects_non_binary_array(self):
        cfg = ChainConfig(length=10, seed=0)
        other_dtypes = (np.array([["0", "1"], ["1", "0"]]), np.array([[0, "a"], [1, 0]], dtype=object),
                        np.array([[0, 2], [1, 0]], dtype=object), np.array([[np.nan, 1.0], [1.0, 0.0]]),
                        np.array([[0, 1j], [1, 0]]), np.array([[0, -1], [1, 0]], dtype=np.int64))
        for bad in ([[0, 2], [1, 0]], [[0.5, 1], [1, 0]], np.zeros((0, 3)), [1, 0, 1], *other_dtypes):
            with pytest.raises(ValueError, match="entries must be"):
                serial_pvalue(bad, cfg)

    def test_custom_statistic_receives_int8(self):
        seen = set()

        def statistic(stack):
            seen.add((type(stack), stack.dtype, stack.shape[1:]))
            return stack[:, 0].sum(axis=1).astype(float)

        mat = [[1, 0, 1], [0, 1, 0], [1, 1, 0]]
        serial_pvalue(mat, ChainConfig(length=20, statistic=statistic, seed=1))
        assert seen == {(np.ndarray, np.dtype(np.int8), (3, 3))}

    def test_rejects_non_integral_length_and_seed(self):
        for length in (2.5, 0, float("nan"), float("inf"), "5"):
            with pytest.raises(ValueError, match="chain length"):
                ChainConfig(length=length)
        for seed in (1.9, 1.5, np.float64(0.5), float("nan")):
            with pytest.raises(ValueError, match="seed"):
                ChainConfig(length=5, seed=seed)
        cfg = ChainConfig(length=np.int64(5), seed=np.int64(3))
        assert (cfg.length, cfg.seed) == (5, 3) and type(cfg.length) is int
        assert serial_pvalue(np.eye(2), cfg) == serial_pvalue(np.eye(2), ChainConfig(5, seed=3))

    def test_seed_is_checked_once_and_stored_as_int(self):
        cfg = ChainConfig(length=5, seed=np.uint64(2**64 - 1))
        assert type(cfg.seed) is int and cfg.seed == 2**64 - 1
        with pytest.raises(ValueError):
            ChainConfig(length=5, seed=-1)


class TestGenerateNullMatrix:
    def test_two_by_two_permutation(self):
        mat = generate_null_matrix([1, 1], [1, 1], burn_in=50, seed=11)
        assert mat.entries.tolist() in ([[1, 0], [0, 1]], [[0, 1], [1, 0]])

    def test_unique_single_row(self):
        mat = generate_null_matrix([3], [1, 1, 1], burn_in=100, seed=0)
        assert mat.entries.tolist() == [[1, 1, 1]]

    def test_margins_always_match(self):
        rows, cols = [4, 3, 2, 2, 1], [3, 3, 2, 2, 1, 1]
        mat = generate_null_matrix(rows, cols, burn_in=500, seed=6)
        assert mat.entries.sum(axis=1).tolist() == rows
        assert mat.entries.sum(axis=0).tolist() == cols

    def test_rejects_infeasible_margins(self):
        with pytest.raises(ValueError):
            generate_null_matrix([3, 1], [2, 2], burn_in=0, seed=0)
        with pytest.raises(ValueError):
            generate_null_matrix([2, 1], [1, 1], burn_in=0, seed=0)
        with pytest.raises(ValueError):
            generate_null_matrix([-1, 1], [0, 0], burn_in=0, seed=0)

    def test_feasibility_matches_gale_ryser_up_to_4x4(self):
        # every margin pair with equal totals up to 4x4; unequal totals are
        # refused by the total check before the greedy build runs
        checked = 0
        for r, c in itertools.product(range(1, 5), repeat=2):
            by_total = {}
            for cols in itertools.product(range(r + 1), repeat=c):
                by_total.setdefault(sum(cols), []).append(cols)
            for rows in itertools.product(range(c + 1), repeat=r):
                for cols in by_total.get(sum(rows), []):
                    checked += 1
                    try:
                        mat = generate_null_matrix(rows, cols, burn_in=0, seed=0)
                    except ValueError:
                        assert not gale_ryser_feasible(rows, cols), (rows, cols)
                    else:
                        assert gale_ryser_feasible(rows, cols), (rows, cols)
                        assert mat.entries.sum(axis=1).tolist() == list(rows)
                        assert mat.entries.sum(axis=0).tolist() == list(cols)
        assert checked == 47_084

    @pytest.mark.parametrize("burn_in", [0, 5])
    def test_seed_checked_at_entry(self, burn_in):
        for seed in (-1, 2**64):
            with pytest.raises(ValueError, match="seed"):
                generate_null_matrix([1, 1], [1, 1], burn_in=burn_in, seed=seed)

    def test_rejects_non_integral_seed(self):
        for seed in (1.5, np.float64(2.5), "3"):
            with pytest.raises(ValueError, match="seed"):
                generate_null_matrix([1, 1], [1, 1], burn_in=5, seed=seed)
        want = generate_null_matrix([2, 1, 1], [1, 2, 1], burn_in=5, seed=7).entries
        for seed in (7, np.int64(7), np.uint64(7), 7.0):
            got = generate_null_matrix([2, 1, 1], [1, 2, 1], burn_in=5, seed=seed).entries
            assert np.array_equal(got, want)

    def test_burned_in_draws_cover_class_uniformly(self):
        states = {state_key(m): i for i, m in enumerate(enumerate_margin_class(*PERM_MARGINS))}
        draws = 900
        visits = np.zeros(6, dtype=np.int64)
        for seed in range(draws):
            mat = generate_null_matrix(*PERM_MARGINS, burn_in=2_000, seed=seed)
            visits[states[state_key(mat.entries)]] += 1
        freq = visits / draws
        se = np.sqrt((1 / 6) * (5 / 6) / draws)
        assert np.all(np.abs(freq - 1 / 6) <= 3.5 * se)
