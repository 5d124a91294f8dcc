"""Dense passes and reductions over tables longer than one tile.

Tables of more than 2^cube._TILE_BITS entries are worked a tile at a time.
Patching the tile down to 2^8 entries runs the tiled code at small n,
where the one-tile result is the whole-table computation.
"""

import math
import tracemalloc

import numpy as np

from biasedcube import cube, families, noise, removal
from biasedcube.cube import BiasWeights, DenseFunction
from test_noise import directed_down_oracle, directed_up_oracle, noise_operator_oracle

SMALL_TILE_BITS = 8
MIB = 1 << 20


def transform_kernels(n, p=0.3):
    r = math.sqrt(p * (1.0 - p))
    return [(1.0 - p, p, r, -r)] * n


class TestKernelPass:
    def test_small_tiles_are_bit_identical(self, monkeypatch):
        rng = np.random.default_rng(2001)
        cases = []
        for n in range(9, 15):
            for blocks in (1, 2, 4):
                values = rng.random(blocks << n)
                for kernels in (rng.normal(size=(n, 4)), transform_kernels(n)):
                    cases.append((values, n, kernels))
        whole = [cube.apply_coordinatewise(*case) for case in cases]
        monkeypatch.setattr(cube, "_TILE_BITS", SMALL_TILE_BITS)
        for case, want in zip(cases, whole):
            assert np.array_equal(cube.apply_coordinatewise(*case), want)

    def test_part_spectra_and_decompose_under_small_tiles(self, monkeypatch):
        rng = np.random.default_rng(2002)
        f = DenseFunction(12, rng.random(1 << 12))
        fb = DenseFunction(12, (rng.random(1 << 12) < 0.4).astype(np.float64), boolean=True)
        runs = []
        for bits in (cube._TILE_BITS, SMALL_TILE_BITS):
            monkeypatch.setattr(cube, "_TILE_BITS", bits)
            dec = removal.decompose(fb, 0.3, 0.8, 0.01, j_max=1)
            runs.append((cube.part_spectra(f, [3, 10], 0.35), dec))
        (spectra, dec), (tiled_spectra, tiled_dec) = runs
        assert np.array_equal(tiled_spectra, spectra)
        assert len(dec.J) == 1  # a second round, on two blocks
        assert (tiled_dec.J, tiled_dec.parts, tiled_dec.diagnostics) == (
            dec.J, dec.parts, dec.diagnostics)

    def test_spectral_scaling_inside_small_tiles(self, monkeypatch):
        # rho^|S| is multiplied in per tile: 2 to 16 tiles of 2^8 entries
        rng = np.random.default_rng(2007)
        cp = noise.CouplingParams(0.3, 0.65)
        monkeypatch.setattr(cube, "_TILE_BITS", SMALL_TILE_BITS)
        for n in range(9, 13):
            f = DenseFunction(n, rng.random(1 << n))
            assert np.array_equal(noise.directed_up(f, cp, "spectral").values,
                                  directed_up_oracle(f, cp, "spectral").values)
            assert np.array_equal(noise.directed_down(f, cp, "spectral").values,
                                  directed_down_oracle(f, cp, "spectral").values)
            assert np.array_equal(noise.noise_operator(f, 0.45, 0.4, "spectral").values,
                                  noise_operator_oracle(f, 0.45, 0.4, "spectral").values)

    def test_tiles_at_n18_match_one_whole_table_tile(self, monkeypatch):
        rng = np.random.default_rng(2003)
        values, kernels = rng.random(1 << 18), rng.normal(size=(18, 4))
        tiled = cube.apply_coordinatewise(values, 18, kernels)
        monkeypatch.setattr(cube, "_TILE_BITS", 18)
        assert np.array_equal(tiled, cube.apply_coordinatewise(values, 18, kernels))


def close(got, terms):
    exact = math.fsum(np.ravel(terms).tolist())
    return abs(got - exact) <= 1e-14 * abs(exact)


class TestReductions:
    def test_tile_sums_match_the_exact_whole_table_sum(self, monkeypatch):
        rng = np.random.default_rng(2004)
        n, p, rho = 12, 0.35, 0.7
        f = DenseFunction(n, rng.random(1 << n), bounded=True)
        g = DenseFunction(n, rng.random(1 << n), bounded=True)
        cp = noise.CouplingParams(0.3, 0.6)
        w = BiasWeights(n, p).table()
        terms = cube.level_powers(rho, n) * cube.transform(f, p).coeffs ** 2
        up = noise.directed_up(f, cp, "definitional").values
        monkeypatch.setattr(cube, "_TILE_BITS", SMALL_TILE_BITS)
        assert close(cube.expectation(f, p), w * f.values)
        assert close(cube.inner_product(f, g, p), w * f.values * g.values)
        assert close(cube.stability(f, rho, p), terms)
        for i in (1, 8, 9, n):  # inside a tile, and tiles wholly in or out
            assert close(cube.noisy_influence(f, i, rho, p),
                         terms.reshape(-1, 2, 1 << (i - 1))[:, 1, :])
        assert close(noise.cross_term(f, g, cp),
                     BiasWeights(n, cp.p).table() * up * (1.0 - g.values))

    def test_junta_errors_and_lift_under_small_tiles(self, monkeypatch):
        rng = np.random.default_rng(2005)
        f = DenseFunction(11, (rng.random(1 << 11) < 0.5).astype(np.float64), boolean=True)
        cp = noise.CouplingParams(0.3, 0.55)
        F = families.SetFamily.random(11, 3, 0.4, 7)
        lifted = families.lift(F).values
        monkeypatch.setattr(cube, "_TILE_BITS", SMALL_TILE_BITS)
        g, err_q, err_p, _ = removal.monotone_junta_approx(f, cp, j_max=2)
        assert close(err_q, BiasWeights(11, cp.q).table() * f.values * (1.0 - g.values))
        assert close(err_p, BiasWeights(11, cp.p).table() * (1.0 - f.values) * g.values)
        assert np.array_equal(families.lift(F).values, lifted)


def peak_bytes(fn, *args):
    """Peak of the memory fn allocates while it runs, as traced by tracemalloc."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    def test_no_second_table_at_n20(self):
        # one n = 20 table is 8 MiB; tiles and scratch stay within 2 MiB more
        n = 20
        table = 8 << n
        rng = np.random.default_rng(2006)
        f = DenseFunction(n, rng.random(1 << n), bounded=True)
        g = DenseFunction(n, rng.random(1 << n), bounded=True)
        spectrum = cube.transform(f, 0.3)  # held, so the reductions reuse it
        assert peak_bytes(cube.apply_coordinatewise, f.values, n, transform_kernels(n)) \
            <= table + 2 * MIB
        for fn, args in ((cube.expectation, (f, 0.3)), (cube.inner_product, (f, g, 0.3)),
                         (cube.stability, (f, 0.6, 0.3)),
                         (cube.noisy_influence, (f, 20, 0.6, 0.3))):
            assert peak_bytes(fn, *args) <= 2 * MIB, fn.__name__
        assert peak_bytes(noise.cross_term, f, g, noise.CouplingParams(0.3, 0.6)) \
            <= table + 2 * MIB
        F = families.SetFamily.random(n, 3, 0.3, 5)
        assert peak_bytes(families.lift, F) <= 2 * table + 2 * MIB
        del spectrum

    def test_spectral_operator_makes_one_table_at_n20(self):
        # rho^|S| scales each tile inside the rebuild: no scaled 8 MiB table
        n = 20
        rng = np.random.default_rng(2008)
        f = DenseFunction(n, rng.random(1 << n))
        cp = noise.CouplingParams(0.3, 0.6)
        spectrum = cube.transform(f, cp.q)  # held, so the route reuses it
        assert peak_bytes(noise.directed_up, f, cp, "spectral") <= (8 << n) + 2 * MIB
        del spectrum

    def test_squares_take_no_second_tile_at_n16(self):
        # one tile's weights take 512 KiB; the squares reuse a far smaller buffer
        n = 16
        rng = np.random.default_rng(2009)
        f = DenseFunction(n, rng.random(1 << n))
        spectrum = cube.transform(f, 0.3)
        for fn, args in ((cube.stability, (f, 0.6, 0.3)),
                         (cube.noisy_influence, (f, 16, 0.6, 0.3))):
            assert peak_bytes(fn, *args) <= 768 << 10, fn.__name__
        del spectrum
