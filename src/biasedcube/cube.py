"""Dense functions on {0,1}^n and the p-biased Fourier toolkit.

A point x in {0,1}^n is stored as a bitmask: bit i of the mask holds
coordinate i+1.  Subset masks (for Fourier coefficients, restrictions,
influences) use the same convention.  Everything here works with dense
tables of length 2^n, which caps n at MAX_N.
"""

from __future__ import annotations

import functools
import json
import math
import struct
import weakref
from dataclasses import dataclass

import numpy as np

MAX_N = 24

FLAG_BOOLEAN = 1
FLAG_BOUNDED = 2

_MAGIC = b"BQF1"


def _json_object(text: str, what: str, **shapes: str) -> dict:
    """A JSON object whose values have the given shapes ("int", "number" or
    "[shape]" for a list; a trailing "?" lets the key be missing), or a ValueError."""
    obj = json.loads(text)
    obj = obj if isinstance(obj, dict) else {}
    missing = [k for k, shape in shapes.items() if k not in obj and not shape.endswith("?")]
    if missing:
        raise ValueError(f"{what} JSON lacks {', '.join(missing)}")
    for key, shape in shapes.items():
        if key in obj and not _fits(obj[key], shape.rstrip("?")):
            raise ValueError(f"{what} JSON field {key} is not {shape.rstrip('?')}")
    return obj


def _fits(value, shape: str) -> bool:
    if shape.startswith("["):
        return isinstance(value, list) and all(_fits(v, shape[1:-1]) for v in value)
    return isinstance(value, (int, float) if shape == "number" else int) \
        and not isinstance(value, bool)


def _finite(values: np.ndarray, what: str) -> np.ndarray:
    """values, or a ValueError if one is NaN or infinite.  File readers call
    it; the constructor does not, so kernel outputs skip the pass."""
    if not np.isfinite(values).all():
        raise ValueError(f"{what} holds NaN or infinite values")
    return values


def _check_n(n: int, max_n: int = MAX_N) -> None:
    if not 1 <= n <= max_n:
        raise ValueError(f"dimension n={n} outside [1, {max_n}]")


def _check_bias(p: float) -> None:
    if not 0.0 < p < 1.0:
        raise ValueError(f"bias must lie in (0,1), got {p}")


def mask_of(coords) -> int:
    """Bitmask for a collection of 1-based coordinates."""
    m = 0
    for c in coords:
        if c < 1:
            raise ValueError(f"coordinates are 1-based, got {c}")
        m |= 1 << (c - 1)
    return m


def coords_of(mask: int):
    """Sorted 1-based coordinates of a bitmask."""
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


# -- batched draws: each Monte-Carlo estimator draws an (m, n) array per
# chunk of samples and decides all m samples with a few numpy passes

_DRAW_CHUNK = 4096  # samples per draw, so memory stays O(_DRAW_CHUNK * n)
# samples per block of the two long samplers (noise.CoupledSampler.sample_many,
# gaussian.lambda_mc): a block's doubles and masks, about 0.5 MiB, stay in L2
_SAMPLE_BLOCK = 1 << 15


def _draw_chunks(samples: int, chunk: int = _DRAW_CHUNK) -> list:
    """Row counts of the successive draws that make up `samples` samples."""
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    return [min(chunk, samples - done) for done in range(0, samples, chunk)]


def _binomial_estimate(hits: int, samples: int) -> tuple[float, float]:
    """Hit fraction with its binomial standard error, no smaller than one hit's."""
    est = hits / samples
    e = min(max(est, 1.0 / samples), 1.0 - 1.0 / samples)
    return est, math.sqrt(e * (1.0 - e) / samples)


def _bit_weights(n: int) -> np.ndarray:
    """The weights 1 << j of the bits j < n; a mask is their sum over its bits.

    int64 holds every mask for n <= 62.  Above that the weights are Python
    ints in an object array, and the same numpy expressions still apply.
    """
    return np.array([1 << j for j in range(n)], dtype=np.int64 if n <= 62 else object)


def _uniform_orders(rng, m: int, n: int) -> np.ndarray:
    """(m, n) array whose rows are uniform random orders of the bits 0..n-1.

    The first v columns of a row are a uniform injection of v vertices into
    [n]; consecutive column slices are a uniform ordered disjoint tuple.
    """
    return np.argsort(rng.random((m, n)), axis=1)


def _uniform_buckets(rng, m: int, n: int, h: int) -> np.ndarray:
    """(m, n) array of independent uniform buckets in 0..h-1.

    Row r reads the same uniforms as the r-th call of rng.random(n).
    """
    return np.minimum((rng.random((m, n)) * h).astype(int), h - 1)


def _is_member(masks: np.ndarray, members) -> np.ndarray:
    """Elementwise membership of an array of masks in a set of int masks."""
    return np.isin(masks, np.fromiter(members, dtype=masks.dtype, count=len(members)))


# bit counts of one byte, the lookup table for popcounts
_BYTE_POPCOUNTS = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(
    axis=1, dtype=np.uint8)


def popcounts(n: int) -> np.ndarray:
    """Read-only uint8 table of popcount(x) for x in [0, 2^n), cached per n."""
    return _popcount_table(n)


@functools.cache
def _popcount_table(n: int) -> np.ndarray:
    # a byte at a time: the table for 8 more bits is the outer sum of the
    # byte table with the table so far
    pc = _BYTE_POPCOUNTS[:1 << min(n, 8)]
    for shift in range(8, n, 8):
        high = _BYTE_POPCOUNTS[:1 << min(n - shift, 8)]
        pc = (high[:, None] + pc[None, :]).reshape(-1)
    pc = pc.copy()
    pc.flags.writeable = False
    return pc


# n from which _level_table copies whole rows: below it the plain gather was
# faster (by 2-5 us a call at n = 10..12) on a 2-vCPU Xeon
_ROW_COPY_MIN_N = 13


def _level_table(levels: np.ndarray, n: int) -> np.ndarray:
    """levels[popcount(x)] for x in [0, 2^n), as one new length-2^n table.

    From _ROW_COPY_MIN_N on, the table is a (2^(n-10), 1024) array whose row
    r is the short row levels[popcount(r) + popcounts(10)]: n-9 short rows
    are gathered once and then copied whole, instead of gathering every
    entry through a byte index.
    """
    if n < _ROW_COPY_MIN_N:
        return levels[popcounts(n)]
    short = levels[np.arange(n - 9)[:, None] + popcounts(10)]
    return short[popcounts(n - 10)].reshape(-1)


def level_powers(x: float, n: int) -> np.ndarray:
    """x ** |S| for S in [0, 2^n): n+1 powers spread through popcounts."""
    return _level_table(x ** np.arange(n + 1), n)


def _bias_levels(n: int, p: float) -> np.ndarray:
    """The mu_p-weight p^j (1-p)^(n-j) of a point on level j, for j = 0..n."""
    j = np.arange(n + 1)
    return p ** j * (1.0 - p) ** (n - j)


@dataclass(frozen=True)
class BiasWeights:
    """The p-biased product measure as a dense weight table."""

    n: int
    p: float

    def table(self) -> np.ndarray:
        return _level_table(_bias_levels(self.n, self.p), self.n)


# points per tile of a dense pass or weighted sum: 2^16 doubles (512 KiB), so
# a tile and two scratch buffers stay in a core's 2 MiB L2, and a longer table
# gets no second 2^n-entry temporary: on a 2-vCPU KVM Xeon guest a fresh 8 MiB
# array took 3.0-7.4 ms to fill (516 minor faults), one in reuse 0.5-1.0 ms.
_TILE_BITS = 16


def _level_tiles(levels: np.ndarray, n: int):
    """(t, w) for the tiles of a length-2^n table, one tile if n <= _TILE_BITS:
    t slices the tile's points and w[k] = levels[popcount(t.start + k)].

    A weighted sum over the table is math.fsum of its tile sums.
    """
    bits = min(n, _TILE_BITS)
    for high in range(1 << (n - bits)):
        hp = high.bit_count()  # the tile's points share these high bits
        yield slice(high << bits, (high + 1) << bits), _level_table(levels[hp:hp + bits + 1], bits)


# coordinates per block in apply_coordinatewise: 16x16 matrices (4) were the
# fastest for n = 10..22 on a 2-vCPU Xeon with single-threaded OpenBLAS
_BLOCK = 4


def apply_coordinatewise(values, n: int, kernels, levels=None) -> np.ndarray:
    """Apply a 2x2 kernel on every coordinate of a length-2^n table, or of
    each length-2^n block of a longer table.

    kernels[i] = (a, b, c, d) sends the pair (f0, f1) along coordinate
    i+1 to (a f0 + b f1, c f0 + d f1).  The kernels act on disjoint
    coordinates, so they commute; _BLOCK of them at a time are merged into
    one Kronecker-product matrix applied by a single matmul (Yates'
    algorithm in blocks).  Returns a new table; values is not modified.

    The blocks within a tile run a tile at a time, between a tile buffer and
    the result; the higher blocks then run in place on the result, one
    tile-sized slab at a time.  Each entry meets the whole-table matmuls.
    Given levels (for one length-2^n table), entry x is first multiplied by
    levels[popcount(x)] inside its tile's weights: the result is that of
    levels[popcount(x)] * values[x], with no scaled table made.
    """
    ks = np.asarray(kernels, dtype=np.float64).reshape(n, 2, 2)
    c = np.asarray(values, dtype=np.float64).reshape(-1)
    blocks = []
    for lo in range(0, max(n, 1), _BLOCK):  # n = 0: one 1x1 block, a copy
        m = np.ones((1, 1))
        for k in ks[lo:lo + _BLOCK]:
            # kron(k, m): the later coordinate is the higher bit of the block
            w = 2 * len(m)
            m = (k[:, None, :, None] * m[None, :, None, :]).reshape(w, w)
        blocks.append((lo, m))
    tile = min(len(c), 1 << _TILE_BITS)
    low = [(lo, m) for lo, m in blocks if len(m) << lo <= tile]
    out, buf = np.empty_like(c), np.empty(tile)
    weights = None if levels is None else _level_tiles(levels, n)
    for start in range(0, len(c), tile):
        src = c[start:start + tile]
        if weights is not None:
            _, w = next(weights)
            src = np.multiply(src, w, out=w)
        for j, (lo, m) in enumerate(low):
            dst = out[start:start + tile] if (len(low) - j) % 2 else buf
            shape = (-1, len(m)) if lo == 0 else (-1, len(m), 1 << lo)
            a, b = (src.reshape(shape), m.T) if lo == 0 else (m, src.reshape(shape))
            src = np.matmul(a, b, out=dst.reshape(shape))
    for lo, m in blocks[len(low):]:
        slab, res = buf.reshape(len(m), -1), np.empty((len(m), tile // len(m)))
        v = out.reshape(-1, len(m), (1 << lo) // slab.shape[1], slab.shape[1])
        for r, s in np.ndindex(v.shape[0], v.shape[2]):
            np.copyto(slab, v[r, :, s])
            v[r, :, s] = np.matmul(m, slab, out=res)
    return out


def _frozen(a: np.ndarray) -> np.ndarray:
    """a itself, made read-only together with every array it is a view of."""
    b = a
    while isinstance(b, np.ndarray):
        b.flags.writeable = False
        b = b.base
    return a


class DenseFunction:
    """Real-valued function on {0,1}^n as a length-2^n table.

    The function owns its table and never changes it.  A float64 array
    passed in is kept, not copied, and becomes read-only together with any
    array it is a view of; a later write into it raises ValueError.  Each
    function also remembers its images under per-coordinate kernels, as
    long as someone else holds them (see _kernel_image).
    """

    __slots__ = ("n", "values", "boolean", "bounded", "_images")

    def __init__(self, n: int, values, boolean: bool = False, bounded: bool = False):
        _check_n(n)
        v = np.asarray(values, dtype=np.float64)
        if v.shape != (1 << n,):
            raise ValueError(f"table length {v.shape} does not match 2^{n}")
        if boolean and not np.all((v == 0.0) | (v == 1.0)):
            raise ValueError("Boolean flag set but values are not all 0/1")
        if bounded and not np.all((v >= 0.0) & (v <= 1.0)):
            raise ValueError("bounded flag set but values leave [0,1]")
        self.n = n
        self.values = _frozen(v)
        self.boolean = bool(boolean)
        self.bounded = bool(bounded or boolean)
        self._images = None

    # pickles and copies drop the remembered images: a weakref cannot be pickled
    def __getstate__(self):
        return self.n, self.values, self.boolean, self.bounded

    def __setstate__(self, state):
        self.n, values, self.boolean, self.bounded = state
        self.values = _frozen(values)
        self._images = None

    def __call__(self, x: int) -> float:
        return float(self.values[x])

    def __eq__(self, other):
        return (
            isinstance(other, DenseFunction)
            and self.n == other.n
            and np.array_equal(self.values, other.values)
        )

    @staticmethod
    def constant(n: int, c: float) -> "DenseFunction":
        return DenseFunction(n, np.full(1 << n, float(c)))

    @staticmethod
    def dictator(n: int, i: int) -> "DenseFunction":
        x = np.arange(1 << n)
        return DenseFunction(n, ((x >> (i - 1)) & 1).astype(np.float64), boolean=True)

    @staticmethod
    def from_predicate(n: int, pred) -> "DenseFunction":
        vals = np.fromiter((1.0 if pred(x) else 0.0 for x in range(1 << n)),
                           dtype=np.float64, count=1 << n)
        return DenseFunction(n, vals, boolean=True)

    # -- serialization ----------------------------------------------------

    def to_bytes(self) -> bytes:
        flags = (FLAG_BOOLEAN if self.boolean else 0) | (FLAG_BOUNDED if self.bounded else 0)
        header = _MAGIC + struct.pack("<II", self.n, flags) + b"\x00" * 4
        return header + self.values.astype("<f8").tobytes()

    @staticmethod
    def from_bytes(data: bytes) -> "DenseFunction":
        if data[:4] != _MAGIC:
            raise ValueError("bad magic, not a dense-function blob")
        if len(data) < 16:
            raise ValueError(f"truncated dense-function blob: {len(data)} bytes, "
                             "the header needs 16")
        n, flags = struct.unpack("<II", data[4:12])
        _check_n(n)
        if len(data) != 16 + (8 << n):
            raise ValueError(f"dense-function blob for n={n} has {len(data) - 16} "
                             f"body bytes, expected {8 << n}")
        body = _finite(np.frombuffer(data[16:], dtype="<f8"), "dense-function blob")
        return DenseFunction(n, body, boolean=bool(flags & FLAG_BOOLEAN),
                             bounded=bool(flags & FLAG_BOUNDED))

    def to_json(self) -> str:
        flags = (FLAG_BOOLEAN if self.boolean else 0) | (FLAG_BOUNDED if self.bounded else 0)
        return json.dumps({"n": self.n, "flags": flags, "values": self.values.tolist()})

    @staticmethod
    def from_json(text: str) -> "DenseFunction":
        obj = _json_object(text, "dense-function", n="int", values="[number]", flags="int?")
        try:
            values = _finite(np.asarray(obj["values"], dtype=np.float64), "dense-function JSON")
        except OverflowError:
            raise ValueError("dense-function JSON holds an integer past the float range") from None
        return DenseFunction(obj["n"], values,
                             boolean=bool(obj.get("flags", 0) & FLAG_BOOLEAN),
                             bounded=bool(obj.get("flags", 0) & FLAG_BOUNDED))


class Spectrum:
    """Biased Fourier coefficients indexed by subset bitmask, tagged with p.

    Like DenseFunction, it keeps the float64 array it is given, without a
    copy, and makes it read-only together with any array it is a view of.
    """

    __slots__ = ("n", "p", "coeffs")

    def __init__(self, n: int, p: float, coeffs):
        _check_n(n)
        _check_bias(p)
        c = np.asarray(coeffs, dtype=np.float64)
        if c.shape != (1 << n,):
            raise ValueError("coefficient table length mismatch")
        self.n = n
        self.p = p
        self.coeffs = _frozen(c)

    def __reduce__(self):
        return Spectrum, (self.n, self.p, self.coeffs)


def character_table(n: int, S: int, p: float) -> np.ndarray:
    """chi_S^p as a dense table over point masks.

    The singleton character takes value sqrt(p/(1-p)) at 0 and
    -sqrt((1-p)/p) at 1; chi_S is the product over i in S.
    """
    _check_bias(p)
    hi = -math.sqrt((1.0 - p) / p)
    lo = math.sqrt(p / (1.0 - p))
    out = np.ones(1 << n)
    x = np.arange(1 << n)
    for i in range(n):
        if (S >> i) & 1:
            out *= np.where((x >> i) & 1, hi, lo)
    return out


def part_spectra(f: DenseFunction, J, p: float) -> np.ndarray:
    """p-biased spectra of the 2^|J| restrictions f_{J -> a}, one row each.

    Row b fixes the idx-th smallest coordinate of J to bit idx of b; its
    columns are subsets of the other coordinates, compacted as in restrict.
    Each row gets one basis change per coordinate, _transform_kernel(p).
    """
    _check_bias(p)
    Jset = sorted(set(J))
    if any(c < 1 or c > f.n for c in Jset):
        raise ValueError("restriction coordinates outside [n]")
    rest = [c for c in range(1, f.n + 1) if c not in Jset]
    # axis n - c of the (2,)*n view holds coordinate c; the highest bit leads
    axes = [f.n - c for c in reversed(Jset)] + [f.n - c for c in reversed(rest)]
    table = f.values.reshape((2,) * f.n).transpose(axes).reshape(1 << len(Jset), -1)
    if not rest:
        return table.copy()  # a function of no coordinates is its own spectrum
    return apply_coordinatewise(table, len(rest), [_transform_kernel(p)] * len(rest)).reshape(
        table.shape)


def _transform_kernel(p: float) -> tuple:
    # a = (1-p) f0 + p f1 is the mean part, b = sqrt(p(1-p)) (f0 - f1) the character part
    r = math.sqrt(p * (1.0 - p))
    return (1.0 - p, p, r, -r)


def _kernel_image(f: DenseFunction, kernel: tuple) -> np.ndarray:
    """Read-only apply_coordinatewise(f.values, f.n, [kernel] * f.n).

    f remembers a weak reference to its table and, per kernel (keyed by
    its float64 bytes), to the image.  While the table is still f.values
    and the image is still held elsewhere (by a Spectrum or a
    DenseFunction, say), the call returns that image instead of running
    the kernel pass again.  The memo keeps neither images nor tables alive
    by itself, and a reassigned or writable f.values misses it.
    """
    key = np.asarray(kernel, dtype=np.float64).tobytes()
    memo = f._images
    if memo is not None and memo[0]() is f.values:
        image = memo[1].get(key)
        if image is not None:
            return image
    image = _frozen(apply_coordinatewise(f.values, f.n, [kernel] * f.n))
    if not f.values.flags.writeable:  # a writable table may change under the memo
        if memo is None or memo[0]() is not f.values:
            memo = f._images = (weakref.ref(f.values), weakref.WeakValueDictionary())
        memo[1][key] = image
    return image


def transform(f: DenseFunction, p: float) -> Spectrum:
    """p-biased Fourier transform: the single row of part_spectra(f, (), p).

    The coefficients are f's image under the transform kernel, so the
    coefficients of an earlier transform at p, while still held elsewhere,
    are reused (see _kernel_image).
    """
    _check_bias(p)
    return Spectrum(f.n, p, _kernel_image(f, _transform_kernel(p)))


def inverse_transform(s: Spectrum) -> DenseFunction:
    """Rebuild the point table from coefficients: f = sum_S fhat(S) chi_S^p."""
    return _rebuild(s.coeffs, s.n, s.p)


def _rebuild(coeffs: np.ndarray, n: int, p: float, levels=None) -> DenseFunction:
    """sum_S levels[|S|] coeffs[S] chi_S^p, or inverse_transform without levels;
    the levels scale each tile inside the kernel pass (see apply_coordinatewise)."""
    # f0 = a + sqrt(p/(1-p)) b and f1 = a - sqrt((1-p)/p) b undo _transform_kernel
    kernel = (1.0, math.sqrt(p / (1.0 - p)), 1.0, -math.sqrt((1.0 - p) / p))
    return DenseFunction(n, apply_coordinatewise(coeffs, n, [kernel] * n, levels))


def transform_direct(f: DenseFunction, p: float) -> Spectrum:
    """O(4^n) inner-product transform, kept as an oracle for the butterfly."""
    w = BiasWeights(f.n, p).table()
    coeffs = np.empty(1 << f.n)
    for S in range(1 << f.n):
        coeffs[S] = float(np.dot(w, f.values * character_table(f.n, S, p)))
    return Spectrum(f.n, p, coeffs)


def expectation(f: DenseFunction, p: float) -> float:
    return math.fsum(np.dot(w, f.values[t]) for t, w in _level_tiles(_bias_levels(f.n, p), f.n))


def inner_product(f: DenseFunction, g: DenseFunction, p: float) -> float:
    if f.n != g.n:
        raise ValueError("dimension mismatch")
    return math.fsum(np.dot(w, f.values[t] * g.values[t])
                     for t, w in _level_tiles(_bias_levels(f.n, p), f.n))


def restrict(f: DenseFunction, J, a) -> DenseFunction:
    """Restriction f_{J -> a}.

    J is a collection of 1-based coordinates; a maps each of them to 0/1
    (a dict, or a bitmask interpreted through the global convention).
    The result lives on the remaining n - |J| coordinates, compacted in
    ascending order.
    """
    Jset = sorted(set(J))
    if any(c < 1 or c > f.n for c in Jset):
        raise ValueError("restriction coordinates outside [n]")
    if isinstance(a, dict):
        a_mask = sum(1 << (c - 1) for c in Jset if a[c])
    else:
        a_mask = int(a)
        if a_mask & ~mask_of(Jset):
            raise ValueError("assignment mask leaves J")
    m = f.n - len(Jset)
    if m == 0:
        # a function of zero coordinates is not representable
        raise ValueError("restriction fixes every coordinate; index f.values by the point mask")
    # axis n - c holds coordinate c, as in part_spectra; flatten copies the view
    idx = tuple((a_mask >> (c - 1)) & 1 if c in Jset else slice(None)
                for c in range(f.n, 0, -1))
    values = f.values.reshape((2,) * f.n)[idx].flatten()
    return DenseFunction(m, values, boolean=f.boolean, bounded=f.bounded)


# (J, point) pairs per bincount in trace_sums: 2^16 was the fastest of 2^15..2^20
# for all |J| = 4 at n = 14 on a 2-vCPU Xeon
_TRACE_CHUNK = 1 << 16


def trace_sums(points, weights, Js) -> np.ndarray:
    """Total weight of the points on each trace, for every J in Js at once.

    Entry [t, a] sums weights over the points x whose trace x cap Js[t] is
    a, where bit idx of a holds coordinate Js[t][idx] in the caller's
    order.  Every J in Js has one size j, so the result has shape
    (len(Js), 2^j); an empty J gives one column, the total.  Points are
    masks: int64, or Python ints in an object array above n = 62 as in
    _bit_weights.  weights=None counts the points, in integers.
    """
    shifts = np.array(Js, dtype=np.int64, ndmin=2) - 1
    rows, j = shifts.shape
    points = np.asarray(points)
    step = max(1, _TRACE_CHUNK // max(len(points), 1))
    out = []
    for lo in range(0, rows, step):
        # one byte per point for each coordinate the chunk's J's use
        chunk = shifts[lo:lo + step]
        coords, cols = np.unique(chunk, return_inverse=True)
        bits = ((points >> coords[:, None]) & 1).astype(np.uint8)[cols.reshape(chunk.shape)]
        # each J gets its own 2^j bins
        idx = np.repeat(np.arange(len(chunk), dtype=np.int64)[:, None] << j, len(points), axis=1)
        for b in range(j):
            idx |= bits[:, b].astype(np.int64) << b
        w = None if weights is None else np.broadcast_to(weights, idx.shape).ravel()
        out.append(np.bincount(idx.ravel(), w, minlength=len(chunk) << j).reshape(len(chunk), -1))
    return np.concatenate(out)


def average_over(f: DenseFunction, T, p: float) -> DenseFunction:
    """A_T f: expectation over a mu_p-random completion on T.

    The result is still a function of all n coordinates (constant in T);
    its spectrum is f's with every coefficient meeting T zeroed.
    """
    _check_bias(p)
    kernels = [(1.0, 0.0, 0.0, 1.0)] * f.n
    for coord in set(T):
        if coord < 1 or coord > f.n:
            raise ValueError("averaging coordinate outside [n]")
        kernels[coord - 1] = (1.0 - p, p, 1.0 - p, p)
    return DenseFunction(f.n, apply_coordinatewise(f.values, f.n, kernels))


def influence(f: DenseFunction, i: int, p: float) -> float:
    """Inf_i = sum over S containing i of fhat(S)^2."""
    return noisy_influence(f, i, 1.0, p)


def influence_definitional(f: DenseFunction, i: int, p: float) -> float:
    """E[(f - A_{i} f)^2], the variance taken out by averaging coordinate i."""
    g = average_over(f, [i], p)
    d = DenseFunction(f.n, f.values - g.values)
    return inner_product(d, d, p)


def noisy_influence(f: DenseFunction, i: int, rho: float, p: float) -> float:
    """Influence with each level-|S| term damped by rho^|S|."""
    if not 1 <= i <= f.n:
        raise ValueError("coordinate out of range")
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho outside [0,1]")
    coeffs, half, sums = transform(f, p).coeffs, 1 << (i - 1), []
    squares = _square_buffer(f.n)
    for t, w in _level_tiles(rho ** np.arange(f.n + 1), f.n):
        # a tile of at most half points lies wholly inside or outside the S containing i
        if len(w) > half or t.start & half:
            terms = _damp_squares(w, coeffs[t], squares)
            sums.append(np.sum(terms.reshape(-1, 2, half)[:, 1, :] if len(w) > half else terms))
    return math.fsum(sums)


def stability(f: DenseFunction, rho: float, p: float) -> float:
    """Stab_rho = sum_S rho^|S| fhat(S)^2."""
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho outside [0,1]")
    coeffs, squares = transform(f, p).coeffs, _square_buffer(f.n)
    return math.fsum(np.sum(_damp_squares(w, coeffs[t], squares))
                     for t, w in _level_tiles(rho ** np.arange(f.n + 1), f.n))


# coefficients squared at a time by _damp_squares: 2^14 doubles (128 KiB), so a
# tile's weights get no second tile-sized temporary beside them
_SQUARE_BITS = 14


def _square_buffer(n: int) -> np.ndarray:
    return np.empty(1 << min(n, _TILE_BITS, _SQUARE_BITS))


def _damp_squares(w: np.ndarray, c: np.ndarray, squares: np.ndarray) -> np.ndarray:
    """w * c ** 2 written into w, squaring len(squares) entries at a time
    (len(w) is a multiple of len(squares): both are powers of two)."""
    for wr, cr in zip(w.reshape(-1, len(squares)), c.reshape(-1, len(squares))):
        np.multiply(wr, np.square(cr, out=squares), out=wr)
    return w
