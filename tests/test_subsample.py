import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from orderpv import subsample
from orderpv.combine import combine_pvalues
from orderpv.correction import solve_combiner
from orderpv.rngs import CHUNK, blocks, stream
from orderpv.subsample import (
    MAX_BINS,
    MAX_BLOCK_BYTES,
    MAX_REPETITIONS,
    RANK_SUM_MAX_GROUPS,
    GroupedDataset,
    _rank_sum_cdf,
    make_bcmc_test,
    pick_one_per_group,
    rank_sum_test,
    run_pipeline,
    subsample_pvalues,
)

from oracles import (
    rank_sum_bruteforce,
    rank_sum_lexsort,
    rank_sum_null_cdf_bruteforce,
    subsample_rank_sum_law,
)


def constant_test(value):
    return lambda picks, rng: np.full(len(picks), value)


def shifted_uniform_groups(rng, sizes):
    """Uniform marginals with strong within-group dependence (common shift)."""
    groups = []
    for size in sizes:
        shift = rng.random()
        groups.append(((shift + 0.1 * rng.random(size)) % 1.0).tolist())
    return GroupedDataset(groups)


class TestGroupedDataset:
    def test_shape_accessors(self):
        data = GroupedDataset([[1, 2], [3], [4, 5, 6]])
        assert data.m == 3
        assert data.sizes == [2, 1, 3]
        assert data.total == 6

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            GroupedDataset([])
        with pytest.raises(ValueError):
            GroupedDataset([[1], []])

    def test_array_of_groups_is_read_as_its_list(self):
        rows = [[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]]
        listed, array = GroupedDataset(rows), GroupedDataset(np.array(rows))
        assert (array.m, array.sizes, array.total) == (listed.m, listed.sizes, listed.total)
        assert np.array_equal(subsample_pvalues(array, rank_sum_test, 50, seed=3),
                              subsample_pvalues(listed, rank_sum_test, 50, seed=3))
        for empty in ([], np.empty((0, 2))):
            with pytest.raises(ValueError, match="need at least one group"):
                GroupedDataset(empty)

    def test_rejects_observations_that_cannot_be_stacked(self):
        with pytest.raises(ValueError, match="group 1"):
            GroupedDataset([[np.zeros(4, np.int8)], [np.ones(5, np.int8)]])
        with pytest.raises(ValueError, match="group 0"):
            GroupedDataset([[np.zeros(4, np.int8), np.ones(5, np.int8)], [np.zeros(4, np.int8)]])

    def test_rejects_text_or_object_group_next_to_numeric(self):
        for groups, bad in (
            ([["a"], [1]], 1),
            ([[1.5], [2], ["b"]], 2),
            ([[b"a"], [0.5]], 1),
            ([[None], [1]], 1),
            ([["a"], [b"a"]], 1),
        ):
            with pytest.raises(ValueError, match=f"group {bad}: observations of dtype"):
                GroupedDataset(groups)

    def test_changing_groups_afterwards_changes_nothing(self):
        data = GroupedDataset([[0.1, 0.2], [0.3]])
        data.groups[0] = [5.0]
        data.groups.append([0.7, 0.8, 0.9])
        assert (data.m, data.sizes, data.total) == (2, [2, 1], 3)
        picks = pick_one_per_group(data, np.random.default_rng(0), 1000)
        assert picks.shape == (1000, 2)
        assert set(picks[:, 0]) == {0.1, 0.2} and set(picks[:, 1]) == {0.3}
        with pytest.raises(AttributeError):
            data.groups = [[1.0]]

    def test_numeric_kinds_and_equal_text_kinds_mix(self):
        assert GroupedDataset([[True], [2], [3.5]])._stacked.tolist() == [1.0, 2.0, 3.5]
        assert GroupedDataset([["a"], ["bc"]])._stacked.tolist() == ["a", "bc"]


class TestPickOnePerGroup:
    def test_singleton_groups_are_deterministic(self):
        data = GroupedDataset([[10], [20], [30]])
        picks = pick_one_per_group(data, np.random.default_rng(0), 5)
        assert picks.shape == (5, 3)
        assert np.all(picks == [10, 20, 30])

    def test_single_group_uniform(self):
        data = GroupedDataset([["a", "b"]])
        rng = np.random.default_rng(1)
        hits = np.count_nonzero(pick_one_per_group(data, rng, 100_000)[:, 0] == "a")
        se = np.sqrt(0.25 / 100_000)
        assert abs(hits / 100_000 - 0.5) <= 3 * se

    def test_joint_uniform_over_cells(self):
        data = GroupedDataset([[0, 1], [0, 1, 2]])
        rng = np.random.default_rng(2)
        counts = np.zeros((2, 3))
        draws = 60_000
        picks = pick_one_per_group(data, rng, draws)
        np.add.at(counts, (picks[:, 0], picks[:, 1]), 1)
        freq = counts / draws
        se = np.sqrt((1 / 6) * (5 / 6) / draws)
        assert np.all(np.abs(freq - 1 / 6) <= 3 * se)


class TestSubsamplePvalues:
    def test_singleton_groups_give_identical_values(self):
        data = GroupedDataset([[0.2], [0.8], [0.5], [0.9]])
        values = subsample_pvalues(data, rank_sum_test, 12, seed=5)
        assert np.all(values == values[0])

    def test_constant_one_combines_to_one(self):
        data = GroupedDataset([[1, 2], [3, 4]])
        result = run_pipeline(data, constant_test(1.0), n=9, seed=1)
        assert np.all(result.sample == 1.0)
        assert result.summary == 1.0

    def test_bit_reproducible_and_schedule_independent(self):
        rng = np.random.default_rng(3)
        data = shifted_uniform_groups(rng, [3, 1, 4, 2, 5, 2])
        one = subsample_pvalues(data, rank_sum_test, 64, seed=99)
        two = subsample_pvalues(data, rank_sum_test, 64, seed=99)
        assert np.array_equal(one, two)

    def test_exchangeable_given_data(self):
        # seed-paired: a statistic of the sample vs the same statistic after
        # a fixed permutation must match in distribution across seeds
        rng = np.random.default_rng(8)
        data = shifted_uniform_groups(rng, [2, 3, 2, 4, 3, 2])
        perm = np.random.default_rng(0).permutation(30)
        stat, stat_perm = [], []
        for seed in range(400):
            sample = subsample_pvalues(data, rank_sum_test, 30, seed=seed)
            stat.append(sample[:15].mean())
            stat_perm.append(sample[perm][:15].mean())
        diff = np.mean(stat) - np.mean(stat_perm)
        spread = np.std(np.asarray(stat) - np.asarray(stat_perm)) / np.sqrt(400)
        assert abs(diff) <= 4 * max(spread, 1e-4)

    def test_bad_base_test_aborts(self):
        data = GroupedDataset([[1], [2]])
        with pytest.raises(ValueError):
            subsample_pvalues(data, constant_test(1.7), 5, seed=0)
        with pytest.raises(ValueError):
            subsample_pvalues(data, constant_test(float("nan")), 5, seed=0)

    def test_rejects_bad_seed(self):
        data = GroupedDataset([[1, 2], [3]])
        for seed in (-1, 2**64):
            with pytest.raises(ValueError, match="seed"):
                subsample_pvalues(data, constant_test(0.5), 5, seed=seed)

    def test_rejects_non_integral_seed(self):
        data = GroupedDataset([[1, 2], [3]])
        for seed in (1.5, np.float64(0.5), "2"):
            with pytest.raises(ValueError, match="seed"):
                stream(seed, 0)
            with pytest.raises(ValueError, match="seed"):
                subsample_pvalues(data, constant_test(0.5), 5, seed=seed)
        draws = stream(3, 1).random(4)
        for seed in (np.int64(3), np.uint64(3), 3.0):
            assert np.array_equal(stream(seed, 1).random(4), draws)

    def test_repetition_count_is_bounded_before_allocating(self, monkeypatch):
        # the limit is lowered, so that without the check the run would
        # allocate a small sample and then call the base test, which fails
        def never_called(picks, rng):
            raise AssertionError("the base test ran")

        assert MAX_REPETITIONS == 2**27  # 1 GiB of float64
        monkeypatch.setattr(subsample, "MAX_REPETITIONS", 10)
        data = GroupedDataset([[1, 2], [3]])
        with pytest.raises(ValueError, match="MAX_REPETITIONS = 10 "):
            subsample_pvalues(data, never_called, 11, seed=0)
        with pytest.raises(ValueError, match="MAX_REPETITIONS"):
            run_pipeline(data, never_called, 11, seed=0)
        assert subsample_pvalues(data, constant_test(0.5), 10, seed=0).shape == (10,)

    def test_block_bytes_are_bounded_before_drawing(self, monkeypatch):
        # the limit is lowered, so that without the check the run would draw
        # a few small picks and then call the base test, which fails
        def never_called(picks, rng):
            raise AssertionError("the base test ran")

        assert MAX_BLOCK_BYTES == 2**30
        scores = GroupedDataset([[1.5, 2.5], [3.5]])  # 2 x (8 + 8) bytes a repetition
        rows = GroupedDataset([[[0, 1, 1]], [[1, 0, 0]]])  # 2 x (8 + 3 * 8) bytes
        for data, row in ((scores, 32), (rows, 64)):
            monkeypatch.setattr(subsample, "MAX_BLOCK_BYTES", 10 * row)
            with pytest.raises(ValueError, match=f"MAX_BLOCK_BYTES = {10 * row};"):
                subsample_pvalues(data, never_called, 11, seed=0)
            with pytest.raises(ValueError, match="MAX_BLOCK_BYTES"):
                run_pipeline(data, never_called, 11, seed=0)
            assert subsample_pvalues(data, constant_test(0.5), 10, seed=0).shape == (10,)
        # the block, not the run, is bounded: at most CHUNK repetitions
        monkeypatch.setattr(subsample, "MAX_BLOCK_BYTES", CHUNK * 32)
        sample = subsample_pvalues(scores, constant_test(0.5), 2 * CHUNK + 1, seed=0)
        assert sample.size == 2 * CHUNK + 1

    def test_bins_are_checked_before_drawing(self):
        def never_called(picks, rng):
            raise AssertionError("the base test ran")

        assert MAX_BINS == 2**20
        data = GroupedDataset([[1, 2], [3]])
        with pytest.raises(ValueError, match=f"MAX_BINS = {MAX_BINS} "):
            run_pipeline(data, never_called, 10, seed=0, bins=MAX_BINS + 1)
        for bins in (2.5, 0, -1, float("nan"), "20"):
            with pytest.raises(ValueError, match="bins must be an integer >= 1"):
                run_pipeline(data, never_called, 10, seed=0, bins=bins)
        result = run_pipeline(data, constant_test(0.5), 10, seed=0, bins=MAX_BINS)
        assert result.bin_counts.size == MAX_BINS and result.bin_counts.sum() == 10
        assert run_pipeline(data, constant_test(0.5), 10, seed=0, bins=2.0).bin_counts.size == 2

    def test_k_is_checked_before_drawing(self):
        def never_called(picks, rng):
            raise AssertionError("the base test ran")

        data = GroupedDataset([[1, 2], [3]])
        for k in (11, 0, 2.5):
            with pytest.raises(ValueError, match=rf"k must be an integer in \[1, 10\], got {k!r}"):
                run_pipeline(data, never_called, 10, k=k, seed=0)
        assert run_pipeline(data, constant_test(0.5), 10, k=10, seed=0).combined.k == 10

    def test_blocks_are_chunks_on_keyed_streams(self):
        for total in (1, CHUNK, CHUNK + 1, 3 * CHUNK - 5):
            layout = list(blocks(7, total))
            starts = range(0, total, CHUNK)
            assert [(start, length) for start, length, _ in layout] == [
                (start, min(CHUNK, total - start)) for start in starts]
            for b, (_, _, rng) in enumerate(layout):
                assert np.array_equal(rng.random(3), stream(7, b).random(3))

    def test_bad_test_output_names_shape_or_repetition(self):
        data = GroupedDataset([[1, 2], [3]])
        with pytest.raises(ValueError, match=r"shape \(\)"):
            subsample_pvalues(data, lambda picks, rng: 0.5, 5, seed=0)
        with pytest.raises(ValueError, match=r"shape \(6,\)"):
            subsample_pvalues(data, lambda picks, rng: np.full(len(picks) + 1, 0.5), 5, seed=0)
        with pytest.raises(ValueError, match=r"shape \(5, 1\)"):
            subsample_pvalues(data, lambda picks, rng: np.full((len(picks), 1), 0.5), 5, seed=0)
        # one bad value in the second block is reported by its global index
        for bad in (float("nan"), 1.7):
            def test(picks, rng, bad=bad):
                p = np.full(len(picks), 0.5)
                if len(picks) == 3:
                    p[1] = bad
                return p

            with pytest.raises(ValueError, match=f"repetition {CHUNK + 1},"):
                subsample_pvalues(data, test, CHUNK + 3, seed=0)

    def test_one_test_call_per_block(self):
        rng = np.random.default_rng(4)
        data = shifted_uniform_groups(rng, [3, 1, 4, 2, 5, 2])
        shapes = []

        def recording_test(picks, rng):
            shapes.append(picks.shape)
            return rank_sum_test(picks, rng)

        longer = subsample_pvalues(data, recording_test, CHUNK + 3, seed=21)
        assert shapes == [(CHUNK, 6), (3, 6)]
        assert np.array_equal(longer[:CHUNK], subsample_pvalues(data, rank_sum_test, CHUNK, seed=21))


PREMISE_SIZES = [2, 3, 1, 4, 2, 3, 2, 2, 3, 1, 2, 3]  # acceptance 10's design, 10 368 picks


def premise_groups(seed, tied):
    """Groups of PREMISE_SIZES spread over [0, 1], or on the integers 0..3 (ties) when `tied`."""
    rng = np.random.default_rng(seed)
    if tied:
        return [rng.integers(0, 4, size).astype(float).tolist() for size in PREMISE_SIZES]
    return [rng.random(size).tolist() for size in PREMISE_SIZES]


def atom_index(atoms, values):
    """The index of the atom each value sits on; checks that every value sits on one."""
    right = np.clip(np.searchsorted(atoms, values), 1, len(atoms) - 1)
    place = np.where(values - atoms[right - 1] < atoms[right] - values, right - 1, right)
    assert np.abs(values - atoms[place]).max() <= 1e-12
    return place


class TestPremise:
    """The theorem's premise: given the data, the n p-values are i.i.d. with law F_data."""

    def test_law_oracle_matches_enumerated_tie_breaks(self):
        # every pick and every ordering of the tie-break keys, on a tiny tied dataset
        groups = [[0.0, 1.0], [1.0, 2.0, 0.0], [1.0], [2.0, 1.0]]
        m1 = len(groups) // 2
        cdf = rank_sum_null_cdf_bruteforce(m1, len(groups))
        law = {}
        picks = list(itertools.product(*groups))
        orders = list(itertools.permutations(range(len(groups))))
        for row in picks:
            for keys in orders:
                value = cdf[rank_sum_bruteforce(row, keys, m1)]
                law[value] = law.get(value, 0.0) + 1.0 / (len(picks) * len(orders))
        atoms, masses = subsample_rank_sum_law(groups)
        assert np.allclose(atoms, sorted(law), rtol=0.0, atol=1e-15)
        assert np.allclose(masses, [law[a] for a in sorted(law)], rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("seed,tied", [(1, False), (2, True)])
    def test_draws_follow_the_exact_law(self, seed, tied):
        draws, least = 200_000, 5.0
        atoms, masses = subsample_rank_sum_law(premise_groups(seed, tied))
        assert len(atoms) >= 20 and masses.sum() == pytest.approx(1.0, abs=1e-12)
        values = subsample_pvalues(GroupedDataset(premise_groups(seed, tied)), rank_sum_test,
                                   draws, seed=seed)
        place = atom_index(atoms, values)
        # chi-square over the atoms in order, pooled until each cell expects `least` draws
        observed, expected = [], []
        o = e = 0.0
        for count, mass in zip(np.bincount(place, minlength=len(atoms)), masses):
            o, e = o + count, e + draws * mass
            if e >= least:
                observed.append(o)
                expected.append(e)
                o = e = 0.0
        observed[-1] += o
        expected[-1] += e
        observed, expected = np.array(observed), np.array(expected)
        chi2 = ((observed - expected) ** 2 / expected).sum()
        assert stats.chi2.sf(chi2, len(observed) - 1) >= stats.norm.cdf(-3.0)

    @pytest.mark.parametrize("seed,tied", [(1, False), (2, True)])
    def test_blocks_are_independent(self, seed, tied):
        # equal positions of blocks 0/1 and 2/3 are pairs of independent
        # draws: 2-d chi-square against the product of the exact marginals,
        # with F_data's atoms pooled into about 6 cells of near-equal mass
        atoms, masses = subsample_rank_sum_law(premise_groups(seed, tied))
        middle = np.cumsum(masses) - masses / 2
        _, cell = np.unique(np.minimum(6 * middle, 5).astype(int), return_inverse=True)
        mass = np.bincount(cell, masses)
        assert len(mass) >= 5
        values = subsample_pvalues(GroupedDataset(premise_groups(seed, tied)), rank_sum_test,
                                   4 * CHUNK, seed=seed)
        cells = cell[atom_index(atoms, values)].reshape(2, 2, CHUNK)
        pairs = len(mass) * cells[:, 0] + cells[:, 1]
        observed = np.bincount(pairs.ravel(), minlength=len(mass) ** 2)
        expected = 2 * CHUNK * np.outer(mass, mass).ravel()
        chi2 = ((observed - expected) ** 2 / expected).sum()
        assert stats.chi2.sf(chi2, len(mass) ** 2 - 1) >= stats.norm.cdf(-3.0)


class TestRankSumTest:
    @pytest.mark.parametrize("m1,m", [(1, 2), (2, 4), (3, 6), (4, 8), (3, 7)])
    def test_cdf_matches_bruteforce(self, m1, m):
        assert np.allclose(_rank_sum_cdf(m1, m), rank_sum_null_cdf_bruteforce(m1, m))

    def test_uniform_inputs_give_valid_pvalues(self):
        rng = np.random.default_rng(10)
        reps = 20_000
        ps = rank_sum_test(rng.random((reps, 8)), rng)
        for alpha in (0.05, 0.2, 0.5):
            se = np.sqrt(alpha * (1 - alpha) / reps)
            assert (ps <= alpha).mean() <= alpha + 3 * se

    def test_ties_are_randomized_but_valid(self):
        rng = np.random.default_rng(11)
        reps = 20_000
        ps = rank_sum_test(np.full((reps, 6), 0.5), rng)
        for alpha in (0.1, 0.3):
            se = np.sqrt(alpha * (1 - alpha) / reps)
            assert (ps <= alpha).mean() <= alpha + 3 * se

    def test_detects_shifted_first_half(self):
        rng = np.random.default_rng(12)
        picks = np.concatenate([rng.random((200, 4)) * 0.2, 0.8 + rng.random((200, 4)) * 0.2], axis=1)
        ps = rank_sum_test(picks, rng)
        assert np.median(ps) < 0.05

    def test_rejects_short_input(self):
        with pytest.raises(ValueError):
            rank_sum_test([[0.5]], np.random.default_rng(0))
        with pytest.raises(ValueError, match="shape"):
            rank_sum_test([0.5, 0.2], np.random.default_rng(0))

    def test_batch_matches_rowwise_bruteforce_with_ties(self):
        rows, m = 5000, 9
        x = np.random.default_rng(17).integers(0, 3, size=(rows, m)).astype(float)
        ps = rank_sum_test(x, np.random.default_rng(18))
        # the same generator state gives the tie-break draws the test used
        tiebreak = np.random.default_rng(18).random(x.shape)
        cdf = _rank_sum_cdf(m // 2, m)
        expected = [cdf[rank_sum_bruteforce(x[i], tiebreak[i], m // 2)] for i in range(rows)]
        # the CDF rises strictly on the support, so equal values are equal rank sums
        assert np.array_equal(ps, expected)

    def test_largest_rank_sum_gives_exactly_one(self):
        # from m = 57 on, rounding in the CDF table's running sum can put its
        # top entries above 1; every first-half group here outranks the rest
        m = 57
        groups = [[m - j, m - j + 0.5] for j in range(m)]
        assert rank_sum_test([[g[0] for g in groups]], np.random.default_rng(0))[0] == 1.0
        result = run_pipeline(GroupedDataset(groups), rank_sum_test, n=5, seed=1)
        assert np.all(result.sample == 1.0)

    def test_rejects_too_many_groups(self):
        m = RANK_SUM_MAX_GROUPS + 1
        with pytest.raises(ValueError, match=str(RANK_SUM_MAX_GROUPS)):
            rank_sum_test(np.arange(m, dtype=float)[None, :], np.random.default_rng(0))

    @staticmethod
    def _rows(kind, b, m):
        rng = np.random.default_rng([b, m])
        if kind == "continuous":
            return rng.random((b, m))
        if kind == "integer ties":
            return rng.integers(0, 3, (b, m)).astype(float)
        if kind == "all equal":
            return np.full((b, m), 0.25)
        # signed zeros compare equal; NaN ranks above +inf
        return rng.choice([0.0, -0.0, np.inf, -np.inf, np.nan, 0.5], (b, m))

    @pytest.mark.parametrize("kind", ["continuous", "integer ties", "all equal", "specials"])
    @pytest.mark.parametrize("b", [1, 200, CHUNK])
    @pytest.mark.parametrize("m", [2, 3, 12, 57, 200])
    def test_equals_lexsort_oracle_bit_for_bit(self, kind, b, m):
        # at b = CHUNK, m >= 12 spans several pieces, the last one short
        x = self._rows(kind, b, m)
        rng, ref = np.random.default_rng(1), np.random.default_rng(1)
        ps = rank_sum_test(x, rng)
        assert ps.tobytes() == rank_sum_lexsort(x, ref).tobytes()
        assert rng.random() == ref.random()

    @pytest.mark.parametrize("piece", [1, 7, 100])
    def test_piece_size_changes_nothing(self, piece, monkeypatch):
        # pieces of one row, of fewer values than a row, and ragged ones
        monkeypatch.setattr(subsample, "_RANK_SUM_PIECE", piece)
        for kind in ("integer ties", "specials"):
            x = self._rows(kind, 200, 12)
            rng, ref = np.random.default_rng(2), np.random.default_rng(2)
            assert rank_sum_test(x, rng).tobytes() == rank_sum_lexsort(x, ref).tobytes()
            assert rng.random() == ref.random()

    def test_scratch_does_not_grow_with_the_block(self):
        x = np.random.default_rng(3).random((CHUNK, RANK_SUM_MAX_GROUPS))
        rank_sum_test(x[:1], np.random.default_rng(0))  # builds the cached CDF table
        rng = np.random.default_rng(4)
        tracemalloc.start()
        try:
            rank_sum_test(x, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a whole-block lexsort holds about 53 MB at this shape, the pieces under 3 MB
        assert peak <= 8 * 2**20, peak


class TestRunPipeline:
    def test_single_repetition_is_identity(self):
        rng = np.random.default_rng(13)
        data = shifted_uniform_groups(rng, [2, 2, 3, 1])
        result = run_pipeline(data, rank_sum_test, n=1, k=1, seed=7)
        assert result.summary == pytest.approx(result.sample[0], abs=1e-15)

    def test_histogram_covers_unit_interval(self):
        rng = np.random.default_rng(14)
        data = shifted_uniform_groups(rng, [3, 2, 2, 4])
        result = run_pipeline(data, rank_sum_test, n=200, seed=3, bins=20)
        assert result.bin_edges[0] == 0.0 and result.bin_edges[-1] == 1.0
        assert result.bin_counts.sum() == 200
        assert len(result.quartiles) == 3
        assert result.maximum == result.sample.max()

    def test_default_k_is_left_median(self):
        rng = np.random.default_rng(15)
        data = shifted_uniform_groups(rng, [2, 3, 2, 2])
        result = run_pipeline(data, rank_sum_test, n=11, seed=2)
        assert result.combined.k == 6

    @pytest.mark.parametrize("n,k", [(1, None), (1, 1), (1, 1.0), (199, None), (199, 100),
                                     (199, 100.0), (200, None), (200, 100), (200, 100.0)])
    def test_combined_equals_combine_pvalues(self, n, k):
        # the order statistic is read from the report's sort, not partitioned
        data = shifted_uniform_groups(np.random.default_rng(16), [2, 3, 1, 4, 2, 3])
        result = run_pipeline(data, rank_sum_test, n=n, k=k, seed=5)
        assert result.combined == combine_pvalues(result.sample, k)
        assert type(result.combined.k) is int and type(result.combined.order_stat) is float

    def test_end_to_end_null_validity_small(self):
        # outer Monte Carlo over dataset draws; conservative base test keeps
        # the summary's CDF at or below the diagonal
        outer = 1500
        n, k = 50, 25
        solve_combiner(n, k)
        summaries = np.empty(outer)
        for i in range(outer):
            gen = np.random.default_rng(10_000 + i)
            data = shifted_uniform_groups(gen, [2, 3, 1, 4, 2, 3, 2, 2])
            result = run_pipeline(data, rank_sum_test, n=n, k=k, seed=20_000 + i)
            summaries[i] = result.summary
        for alpha in (0.05, 0.1, 0.25):
            se = np.sqrt(alpha * (1 - alpha) / outer)
            assert (summaries <= alpha).mean() <= alpha + 3 * se


@st.composite
def samples_and_bins(draw):
    """A sample in [0, 1] rich in ties and bin edges, and a bin count."""
    bins = draw(st.sampled_from([1, 2, 3, 20, 1000]))
    edges = np.linspace(0.0, 1.0, bins + 1)
    # the edges, 0.0 and 1.0 among them, j / bins, which may differ from the
    # edge j * (1 / bins) by an ulp, and the floats on either side of each edge
    on_edges = sorted({float(v) for v in np.concatenate([
        edges, np.arange(bins + 1) / bins,
        np.nextafter(edges, 0.0), np.nextafter(edges, 1.0)])})
    value = st.one_of(st.sampled_from(on_edges), st.floats(0.0, 1.0))
    return np.array(draw(st.lists(value, min_size=1, max_size=60))), bins


@settings(max_examples=300, deadline=None)
@given(samples_and_bins())
def test_report_equals_numpy_exactly(sample_and_bins):
    sample, bins = sample_and_bins
    data = GroupedDataset([[0.0], [1.0]])
    result = run_pipeline(data, lambda picks, rng: sample, n=sample.size, bins=bins)
    counts, edges = np.histogram(sample, bins, range=(0.0, 1.0))
    assert np.array_equal(result.sample, sample)
    assert result.quartiles == tuple(map(float, np.quantile(sample, [0.25, 0.5, 0.75])))
    assert result.maximum == sample.max()
    assert result.bin_edges.dtype == edges.dtype and np.array_equal(result.bin_edges, edges)
    assert result.bin_counts.dtype == counts.dtype and np.array_equal(result.bin_counts, counts)


class TestBcmcBaseTest:
    def test_runs_on_binary_rows(self):
        rng = np.random.default_rng(16)
        groups = [[(rng.random(5) < 0.5).astype(int) for _ in range(3)] for _ in range(6)]
        data = GroupedDataset(groups)
        test = make_bcmc_test(chain_length=50)
        values = subsample_pvalues(data, test, 8, seed=4)
        assert np.all((values > 0) & (values <= 1))
        assert np.array_equal(values, subsample_pvalues(data, test, 8, seed=4))

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            make_bcmc_test(chain_length=0)

    def test_rejects_non_integral_length(self):
        for length in (2.5, 0.5, float("nan"), "50"):
            with pytest.raises(ValueError, match="chain length"):
                make_bcmc_test(chain_length=length)
        data = GroupedDataset([[[1, 0], [0, 1]], [[1, 0]], [[0, 1], [1, 1]]])
        want = subsample_pvalues(data, make_bcmc_test(5), 6, seed=2)
        got = subsample_pvalues(data, make_bcmc_test(np.int64(5)), 6, seed=2)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("chain_length", [1, 100])
    @pytest.mark.parametrize("groups", [
        [[[1, 0, 1]]],  # one group: each pick is 1x3
        [[[1]], [[0]], [[1]]],  # one column: each pick is 3x1
    ])
    def test_rejects_picks_below_two_by_two(self, groups, chain_length):
        test = make_bcmc_test(chain_length=chain_length)
        with pytest.raises(ValueError, match="at least 2 rows and 2 columns"):
            subsample_pvalues(GroupedDataset(groups), test, 3, seed=0)

    def test_rejects_non_binary_pick(self):
        test = make_bcmc_test(chain_length=10)
        for bad in (2, 0.5, np.nan):
            data = GroupedDataset([[[1, 0]], [[0, bad]], [[1, 1]]])
            with pytest.raises(ValueError, match="0/1"):
                subsample_pvalues(data, test, 3, seed=0)
        with pytest.raises(ValueError, match="3-d"):  # scalar observations
            subsample_pvalues(GroupedDataset([[1], [0]]), test, 3, seed=0)

    def test_statistic_gets_int8_picks(self):
        # every pick of a block reaches the statistic as int8, whatever
        # dtype the observations had
        seen = set()

        def statistic(stack):
            seen.add((type(stack), stack.dtype, stack.shape[1:]))
            return stack[:, 0].sum(axis=1).astype(float)

        data = GroupedDataset([[[1, 0, 1], [0, 1, 1]], [[1, 1, 0]], [[0.0, 1.0, 0.0]]])
        values = subsample_pvalues(data, make_bcmc_test(5, statistic), 20, seed=1)
        assert np.all((values > 0) & (values <= 1))
        assert seen == {(np.ndarray, np.dtype(np.int8), (3, 3))}
