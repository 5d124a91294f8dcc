import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from biasedcube import cube
from biasedcube.cube import BiasWeights, DenseFunction, Spectrum


RNG = np.random.default_rng(101)


def rand_fn(n):
    return DenseFunction(n, RNG.random(1 << n))


def coordinatewise_by_passes(values, n, kernels):
    """Reference for apply_coordinatewise: one 2x2 update per coordinate."""
    c = np.array(values, dtype=np.float64)
    for i, (a, b, cc, d) in enumerate(kernels):
        v = c.reshape(-1, 2, 1 << i)
        f0 = v[:, 0, :].copy()
        f1 = v[:, 1, :].copy()
        v[:, 0, :] = a * f0 + b * f1
        v[:, 1, :] = cc * f0 + d * f1
    return c


class TestBasics:
    def test_table_length_enforced(self):
        with pytest.raises(ValueError):
            DenseFunction(3, [0.0] * 7)

    def test_boolean_flag_enforced(self):
        with pytest.raises(ValueError):
            DenseFunction(1, [0.5, 1.0], boolean=True)

    def test_bounded_flag_enforced(self):
        with pytest.raises(ValueError):
            DenseFunction(1, [1.5, 1.0], bounded=True)

    def test_max_n_rejected(self):
        with pytest.raises(ValueError):
            cube._check_n(25)

    def test_weights_sum_to_one(self):
        for p in (0.1, 0.5, 0.83):
            total = float(np.sum(BiasWeights(9, p).table()))
            assert abs(total - 1.0) < 1e-12

    def test_bias_rejected(self):
        with pytest.raises(ValueError):
            cube.transform(rand_fn(3), 1.0)


class TestLevelTables:
    @pytest.mark.parametrize("n", range(1, 23))
    def test_level_table_is_the_popcount_gather(self, n):
        # both sides of the crossover: plain gather below it, row copies from it
        levels = RNG.random(n + 1)
        want = levels[cube.popcounts(n)]
        got = cube._level_table(levels, n)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        flags = RNG.random(n + 1) < 0.5
        assert np.array_equal(cube._level_table(flags, n), flags[cube.popcounts(n)])

    @pytest.mark.parametrize("n", [4, cube._ROW_COPY_MIN_N - 1, cube._ROW_COPY_MIN_N, 16])
    def test_level_powers_and_weights_are_gathers(self, n):
        j = np.arange(n + 1)
        pc = cube.popcounts(n)
        assert np.array_equal(cube.level_powers(0.37, n), (0.37 ** j)[pc])
        assert np.array_equal(BiasWeights(n, 0.3).table(), (0.3 ** j * 0.7 ** (n - j))[pc])


class TestTransform:
    def test_dictator_half(self):
        # oracle: chi(0)=1, chi(1)=-1 at p=1/2, so x_1 = 1/2 - chi/2
        s = cube.transform(DenseFunction.dictator(1, 1), 0.5)
        assert abs(s.coeffs[0] - 0.5) < 1e-12
        assert abs(s.coeffs[1] + 0.5) < 1e-12

    def test_constant_degree_zero(self):
        s = cube.transform(DenseFunction.constant(4, 0.7), 0.3)
        assert abs(s.coeffs[0] - 0.7) < 1e-12
        assert float(np.max(np.abs(s.coeffs[1:]))) < 1e-12

    def test_dictator_quarter_bias(self):
        s = cube.transform(DenseFunction.dictator(1, 1), 0.25)
        assert abs(s.coeffs[1] + math.sqrt(0.25 * 0.75)) < 1e-9

    def test_butterfly_matches_direct_oracle(self):
        for n in (2, 5, 8):
            f = rand_fn(n)
            for p in (0.2, 0.5, 0.8):
                direct = cube.transform_direct(f, p)
                fast = cube.transform(f, p)
                assert float(np.max(np.abs(direct.coeffs - fast.coeffs))) < 1e-9

    def test_inverse_of_explicit_coeffs(self):
        s = Spectrum(1, 0.5, [0.5, -0.5])
        f = cube.inverse_transform(s)
        assert np.allclose(f.values, [0.0, 1.0], atol=1e-12)

    def test_constant_coeff_inverse(self):
        s = Spectrum(2, 0.4, [0.7, 0, 0, 0])
        assert np.allclose(cube.inverse_transform(s).values, 0.7)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 8), st.sampled_from([0.2, 0.5, 0.8]),
           st.integers(0, 2 ** 31 - 1))
    def test_round_trip_property(self, n, p, seed):
        f = DenseFunction(n, np.random.default_rng(seed).random(1 << n))
        back = cube.inverse_transform(cube.transform(f, p))
        assert float(np.max(np.abs(back.values - f.values))) < 1e-10


def tribes(n):
    """OR of ANDs over consecutive blocks of 3 coordinates (the last may be short)."""
    x = np.arange(1 << n)
    blocks = [((1 << min(3, n - lo)) - 1) << lo for lo in range(0, n, 3)]
    return DenseFunction(n, np.any([(x & b) == b for b in blocks], axis=0).astype(float),
                         boolean=True)


class TestPartSpectra:
    # its own generator, so the module's RNG stream stays as the other tests had it
    rng = np.random.default_rng(211)

    def rand_fn(self, n):
        return DenseFunction(n, self.rng.random(1 << n))

    @staticmethod
    def assert_rows_match(f, J, p):
        rows = cube.part_spectra(f, J, p)
        Js = sorted(set(J))
        assert rows.shape == (1 << len(Js), 1 << (f.n - len(Js)))
        for b, row in enumerate(rows):
            a = cube.mask_of(c for idx, c in enumerate(Js) if b >> idx & 1)
            if len(Js) == f.n:
                want = f.values[a:a + 1]
            else:
                want = cube.transform(cube.restrict(f, J, a), p).coeffs
            assert float(np.max(np.abs(row - want))) <= 1e-12, (f.n, J, b)

    def test_rows_are_restricted_spectra(self):
        # symmetric inputs, where rounding decides decompose's exact ties,
        # and random ones, which tell every coordinate apart
        for n in range(1, 13):
            pc = cube.popcounts(n)
            fs = [DenseFunction(n, (pc > n // 2).astype(float)),
                  DenseFunction(n, (pc % 2).astype(float)), tribes(n), self.rand_fn(n)]
            Js = [(), tuple(range(1, n + 1)), (n, 1, n)]
            Js += [tuple(int(c) for c in self.rng.choice(np.arange(1, n + 1),
                                                         int(self.rng.integers(1, n + 1)),
                                                         replace=False)) for _ in range(2)]
            for f in fs:
                for J in Js:
                    self.assert_rows_match(f, J, (0.3, 0.5, 0.7)[n % 3])

    def test_transform_is_the_kernel_pass(self):
        for n in (1, 4, 9):
            f = self.rand_fn(n)
            for p in (0.2, 0.5):
                r = math.sqrt(p * (1.0 - p))
                want = cube.apply_coordinatewise(f.values, n, [(1.0 - p, p, r, -r)] * n)
                assert np.array_equal(cube.transform(f, p).coeffs, want)
                assert np.array_equal(cube.part_spectra(f, (), p), want[None, :])

    def test_every_coordinate_fixed_copies_the_table(self):
        f = self.rand_fn(4)
        rows = cube.part_spectra(f, [4, 2, 3, 1], 0.3)
        assert np.array_equal(rows[:, 0], f.values)
        rows[:] = 0.0
        assert np.all(f.values != 0.0)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            cube.part_spectra(self.rand_fn(3), [4], 0.5)
        with pytest.raises(ValueError):
            cube.part_spectra(self.rand_fn(3), [0], 0.5)
        with pytest.raises(ValueError):
            cube.part_spectra(self.rand_fn(3), [1], 1.0)


class TestCoordinatewise:
    IDENTITY = (1.0, 0.0, 0.0, 1.0)
    SINGULAR = (0.0, 0.0, 0.0, 1.0)

    def test_matches_one_pass_per_coordinate(self):
        for n in range(1, 13):
            x = RNG.normal(size=1 << n)
            random = [tuple(RNG.uniform(-1.0, 1.0, 4)) for _ in range(n)]
            mixed = [random[i] if i % 3 == 0 else self.IDENTITY for i in range(n)]
            singular = [self.SINGULAR if i % 2 else random[i] for i in range(n)]
            for kernels in (random, mixed, singular, [self.IDENTITY] * n):
                ref = coordinatewise_by_passes(x, n, kernels)
                out = cube.apply_coordinatewise(x, n, kernels)
                scale = max(1.0, float(np.max(np.abs(ref))))
                assert float(np.max(np.abs(out - ref))) <= 1e-12 * scale, (n, kernels)

    def test_input_untouched(self):
        x = RNG.random(1 << 6)
        before = x.copy()
        cube.apply_coordinatewise(x, 6, [(0.3, 0.7, 0.5, -0.5)] * 6)
        assert np.array_equal(x, before)

    def test_popcounts_cached_read_only(self):
        for n in (1, 7, 8, 9, 16, 17):
            pc = cube.popcounts(n)
            assert pc is cube.popcounts(n)
            assert pc.dtype == np.uint8 and not pc.flags.writeable
            assert pc.tolist() == [bin(x).count("1") for x in range(1 << n)]
        with pytest.raises(ValueError):
            cube.popcounts(5)[3] = 0


class TestInnerProducts:
    def test_dictator_self(self):
        f = DenseFunction.dictator(4, 1)
        assert abs(cube.inner_product(f, f, 0.3) - 0.3) < 1e-12

    def test_expectation_is_ip_with_one(self):
        f = rand_fn(5)
        one = DenseFunction.constant(5, 1.0)
        assert abs(cube.expectation(f, 0.6) - cube.inner_product(f, one, 0.6)) < 1e-12

    def test_independent_dictators(self):
        f = DenseFunction.dictator(2, 1)
        g = DenseFunction.dictator(2, 2)
        assert abs(cube.inner_product(f, g, 0.5) - 0.25) < 1e-12

    def test_parseval_both(self):
        for _ in range(10):
            n = int(RNG.integers(2, 9))
            p = float(RNG.choice([0.2, 0.5, 0.8]))
            f, g = rand_fn(n), rand_fn(n)
            sf, sg = cube.transform(f, p), cube.transform(g, p)
            assert abs(float(np.sum(sf.coeffs ** 2))
                       - cube.inner_product(f, f, p)) < 1e-9
            assert abs(float(np.dot(sf.coeffs, sg.coeffs))
                       - cube.inner_product(f, g, p)) < 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            cube.inner_product(rand_fn(3), rand_fn(4), 0.5)


class TestCharacters:
    def test_singleton_values(self):
        for p in (0.25, 0.5, 0.7):
            tab = cube.character_table(1, 1, p)
            assert abs(tab[0] - math.sqrt(p / (1 - p))) < 1e-12
            assert abs(tab[1] + math.sqrt((1 - p) / p)) < 1e-12

    def test_orthonormality(self):
        n, p = 4, 0.35
        w = BiasWeights(n, p).table()
        C = np.stack([cube.character_table(n, S, p) for S in range(1 << n)])
        gram = (C * w) @ C.T
        assert float(np.max(np.abs(gram - np.eye(1 << n)))) < 1e-10


def trace_sums_by_loop(points, weights, Js):
    """Reference for trace_sums: one Python pass over the points per J."""
    out = np.zeros((len(Js), 1 << len(Js[0])))
    for t, J in enumerate(Js):
        for x, w in zip(points, weights):
            a = sum(1 << idx for idx, c in enumerate(J) if int(x) >> (c - 1) & 1)
            out[t, a] += w
    return out


class TestTraceSums:
    def test_matches_loop(self):
        rng = np.random.default_rng(7)
        for n, size in ((1, 1), (4, 2), (6, 3), (9, 4)):
            points = rng.integers(0, 1 << n, 50)
            weights = rng.random(50)
            Js = [list(rng.permutation(np.arange(1, n + 1))[:size]) for _ in range(5)]
            assert np.allclose(cube.trace_sums(points, weights, Js),
                               trace_sums_by_loop(points, weights, Js), atol=1e-12)

    def test_rows_split_over_many_bincounts(self):
        # 132 ordered pairs over 2^12 points take several chunks of rows
        n = 12
        points = np.arange(1 << n)
        weights = np.random.default_rng(8).random(1 << n)
        Js = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1) if a != b]
        want = [np.bincount((points >> (a - 1) & 1) | (points >> (b - 1) & 1) << 1,
                            weights, minlength=4) for a, b in Js]
        assert np.allclose(cube.trace_sums(points, weights, Js), want, atol=1e-12)

    def test_empty_j_is_the_total(self):
        points = np.arange(16)
        counts = cube.trace_sums(points, None, [()])
        assert counts.shape == (1, 1) and counts[0, 0] == 16
        assert counts.dtype.kind == "i"
        assert cube.trace_sums(points, np.full(16, 0.25), [[]])[0, 0] == 4.0

    def test_unsorted_j_orders_the_bits(self):
        points = np.array([0b0001, 0b0010, 0b0011, 0b1000])
        # bit 0 of a holds coordinate 4, bit 1 holds coordinate 1
        assert cube.trace_sums(points, None, [(4, 1)]).tolist() == [[1, 1, 2, 0]]
        assert cube.trace_sums(points, None, [(1, 4)]).tolist() == [[1, 2, 1, 0]]

    def test_object_masks_above_62_bits(self):
        from biasedcube.families import SetFamily
        F = SetFamily.star(66, 2)
        points = np.array(sorted(F.members), dtype=object)
        # every member holds 1; exactly one of the 65 also holds 66
        assert cube.trace_sums(points, None, [(1, 66)]).tolist() == [[0, 64, 0, 1]]

    def test_no_points(self):
        empty = np.array([], dtype=np.int64)
        assert cube.trace_sums(empty, None, [(1, 2)]).tolist() == [[0, 0, 0, 0]]


class TestRestrictAverage:
    def test_xor_restriction(self):
        f = DenseFunction.from_predicate(2, lambda x: bin(x).count("1") % 2 == 1)
        r = cube.restrict(f, [1], {1: 1})
        assert np.allclose(r.values, [1.0, 0.0])

    def test_empty_restriction(self):
        f = rand_fn(4)
        assert cube.restrict(f, [], {}) == f

    def test_matches_pointwise_definition(self):
        rng = np.random.default_rng(77)
        for _ in range(60):
            n = int(rng.integers(2, 9))
            J = sorted(rng.choice(np.arange(1, n + 1), int(rng.integers(0, n)),
                                  replace=False).tolist())
            a = {c: int(rng.integers(2)) for c in J}
            f = rand_fn(n)
            rest = [c for c in range(1, n + 1) if c not in J]
            fixed = cube.mask_of(c for c in J if a[c])
            want = [f.values[fixed | cube.mask_of(rest[j] for j in range(len(rest)) if y >> j & 1)]
                    for y in range(1 << len(rest))]
            assert np.array_equal(cube.restrict(f, J, a).values, want)
            assert cube.restrict(f, J, fixed) == cube.restrict(f, J, a)

    def test_result_owns_its_table(self):
        f = rand_fn(4)
        before = f.values.copy()
        cube.restrict(f, [4], {4: 0}).values[:] = -1.0  # a contiguous block of f
        assert np.array_equal(f.values, before)

    def test_and_restriction_zero(self):
        f = DenseFunction.from_predicate(2, lambda x: x == 3)
        r = cube.restrict(f, [2], {2: 0})
        assert np.allclose(r.values, 0.0)

    def test_average_full_is_mean(self):
        f = rand_fn(5)
        avg = cube.average_over(f, range(1, 6), 0.3)
        assert np.allclose(avg.values, cube.expectation(f, 0.3), atol=1e-12)

    def test_average_dictator(self):
        out = cube.average_over(DenseFunction.dictator(3, 1), [1], 0.4)
        assert np.allclose(out.values, 0.4, atol=1e-12)

    def test_average_spectral_characterization(self):
        for _ in range(5):
            n = int(RNG.integers(3, 8))
            p = float(RNG.uniform(0.2, 0.8))
            T = list(RNG.choice(np.arange(1, n + 1),
                                size=int(RNG.integers(1, n)), replace=False))
            f = rand_fn(n)
            sa = cube.transform(cube.average_over(f, T, p), p).coeffs
            sf = cube.transform(f, p).coeffs
            tmask = cube.mask_of(int(t) for t in T)
            expect = np.where(np.arange(1 << n) & tmask, 0.0, sf)
            assert float(np.max(np.abs(sa - expect))) < 1e-10


class TestInfluences:
    def test_dictator_influences(self):
        f = DenseFunction.dictator(4, 1)
        for p in (0.25, 0.5, 0.8):
            assert abs(cube.influence(f, 1, p) - p * (1 - p)) < 1e-12
            for j in (2, 3, 4):
                assert cube.influence(f, j, p) < 1e-14

    def test_constant_influences_zero(self):
        f = DenseFunction.constant(4, 0.4)
        assert all(cube.influence(f, i, 0.3) < 1e-14 for i in range(1, 5))

    def test_spectral_equals_definitional(self):
        f = rand_fn(6)
        for i in range(1, 7):
            assert abs(cube.influence(f, i, 0.45)
                       - cube.influence_definitional(f, i, 0.45)) < 1e-9

    def test_influence_is_noisy_influence_at_rho_one(self):
        for n in (1, 4, 9):
            for f in (rand_fn(n), DenseFunction(n, (RNG.random(1 << n) < 0.5).astype(float),
                                                boolean=True)):
                for i in range(1, n + 1):
                    for p in (0.1, 0.45, 0.83):
                        assert cube.influence(f, i, p) == cube.noisy_influence(f, i, 1.0, p)

    def test_dictator_stability(self):
        f = DenseFunction.dictator(1, 1)
        assert abs(cube.stability(f, 0.8, 0.5) - 0.45) < 1e-12

    def test_noisy_influence_sum_identity(self):
        f = rand_fn(7)
        p, rho = 0.35, 0.9
        s = cube.transform(f, p)
        pc = cube.popcounts(7)
        rhs = float(np.sum(pc * rho ** pc * s.coeffs ** 2))
        lhs = sum(cube.noisy_influence(f, i, rho, p) for i in range(1, 8))
        assert abs(lhs - rhs) < 1e-9

    def test_out_of_range_coordinate(self):
        with pytest.raises(ValueError):
            cube.influence(rand_fn(3), 4, 0.5)


class TestSerialization:
    def test_binary_round_trip(self):
        f = DenseFunction(5, RNG.random(32), bounded=False)
        blob = f.to_bytes()
        assert blob[:4] == b"BQF1"
        back = DenseFunction.from_bytes(blob)
        assert back.n == 5 and np.array_equal(back.values, f.values)

    def test_flags_survive(self):
        f = DenseFunction.dictator(3, 2)
        back = DenseFunction.from_bytes(f.to_bytes())
        assert back.boolean and back.bounded

    def test_json_round_trip(self):
        f = rand_fn(4)
        back = DenseFunction.from_json(f.to_json())
        assert np.allclose(back.values, f.values, atol=1e-15)

    def test_bad_magic(self):
        with pytest.raises(ValueError):
            DenseFunction.from_bytes(b"NOPE" + b"\x00" * 20)

    def test_truncated_blob(self):
        blob = DenseFunction.dictator(3, 2).to_bytes()
        for cut in (blob[:10], blob[:-8]):
            with pytest.raises(ValueError):
                DenseFunction.from_bytes(cut)
