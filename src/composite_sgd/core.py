"""Shared numeric primitives: error types, seeded random streams, trace records."""

from __future__ import annotations

import math
import numbers
import operator
import sys
from dataclasses import dataclass

import numpy as np

Array = np.ndarray

_MAX_SEED = 2**64 - 1
# Box-Muller pairs transformed per chunk in RngStream.normal.
NORMAL_CHUNK_PAIRS = 2**15
# Uniforms each RngStream pre-draws at a time (32 KB, plus 32 KB of indices).
UNIFORM_BLOCK = 4096
# The numeric envelope: every penalty level lambda, group weight and positive
# float a config gives lies in [1e-50, 1e50] (lambda and the variances may be
# 0). Then every step size, mu and bound a run derives is a finite positive
# double; README "Numeric envelope" derives it.
ENVELOPE = (1e-50, 1e50)


class DimensionError(ValueError):
    """Operands have incompatible lengths."""


class ParameterError(ValueError):
    """A scalar argument is outside its legal range."""


class ConvergenceError(RuntimeError):
    """An iterative routine did not reach its tolerance.

    ``last_iterate`` holds the best value available when the routine gave up.
    """

    def __init__(self, message: str, last_iterate=None):
        super().__init__(message)
        self.last_iterate = last_iterate


class DivergenceError(RuntimeError):
    """A solver iterate blew past the overflow guard; ``iteration`` names the step."""

    def __init__(self, message: str, iteration: int):
        super().__init__(message)
        self.iteration = iteration

    def __reduce__(self):
        # Rebuild from both arguments so the error survives a process pool.
        return type(self), (self.args[0], self.iteration)


def envelope_fault(value: float, zero: bool = False, hi: float = ENVELOPE[1]) -> str | None:
    """None when ``value`` lies in [ENVELOPE[0], hi], or is 0 and ``zero``
    allows it; otherwise why it is refused (NaN included)."""
    if ENVELOPE[0] <= value <= hi or zero and value == 0:
        return None
    zero = "0 or " if zero else ""
    return f"must be {zero}in [{ENVELOPE[0]:g}, {hi:g}], got {float(value)!r}"


def as_vector(values, p: int | None = None, name: str = "x") -> Array:
    """The library's one rule for a vector argument: ``values`` as a float64
    vector, of length ``p`` when given; ``DimensionError`` naming ``name``
    otherwise."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise DimensionError(f"{name} must be a 1-d vector, got shape {arr.shape}")
    if p is not None and arr.shape[0] != p:
        raise DimensionError(f"{name} has length {arr.shape[0]}, expected {p}")
    return arr


def as_count(value, name: str, least: int = 0) -> int:
    """The library's one rule for a count argument: ``value`` as an int when it
    is an integer (``operator.index`` takes it: a Python or NumPy int, not 2.0)
    of at least ``least``; ``ParameterError`` naming ``name`` otherwise."""
    try:
        if operator.index(value) >= least:
            return operator.index(value)
    except TypeError:
        pass
    raise ParameterError(f"{name} must be an integer >= {least}, got {value!r}")


def as_real(value, name: str, positive: bool = False) -> float:
    """The library's one rule for a real parameter: ``value`` as a float when it
    is a finite real number >= 0, or > 0 when ``positive``; ``ParameterError``
    naming ``name`` otherwise, NaN, +-inf and a string included."""
    finite = isinstance(value, numbers.Real) and abs(value) <= sys.float_info.max
    real = float(value) if finite else math.nan  # NaN fails both tests below
    if real > 0 or real == 0 and not positive:
        return real
    raise ParameterError(f"{name} must be a finite number {'>' if positive else '>='} 0, "
                         f"got {value!r}")


class RngStream:
    """Deterministic counter-based random stream with derivable substreams.

    Backed by Philox keyed on (seed, stream path): the same seed reproduces the
    same uniforms, bit for bit, on any platform, and ``split(stream_id)``
    derives an independent stream from the pair (seed, stream-id). The last
    bits of a normal draw also depend on numpy's ``log1p`` and ``tan`` kernels,
    so normals are bitwise reproducible on one machine and numpy build.

    Every draw reads the stream's one sequence of uniforms in order. The
    stream pre-draws them UNIFORM_BLOCK at a time and serves small requests
    as slices of that block; a request that does not fit takes what is left
    of the block, then a new block or, when the rest is at least a block, a
    direct draw of the rest. Philox ``random(a)`` followed by ``random(b)``
    yields ``random(a + b)``, so the block changes no draw. ``split`` keys a
    fresh generator and never sees the parent's read-ahead.

    ``indices(n, upper)`` maps uniforms to ``min(floor(u * upper), upper - 1)``.
    The map is element-wise, so it runs once over each block, for the first
    ``upper`` drawn from it, and every request with that ``upper`` is a slice
    of the result; a request with another ``upper`` maps only its own slice.

    Normal draws use the Box-Muller transform, with the angle
    2 * pi * u_odd taken through the tangent t of its half. Uniforms are
    consumed two per pair of normals, taken from one batch in (even, odd)
    index order:

        r  = sqrt(-2 * log1p(-u_even))
        t  = tan(pi * u_odd)
        w  = r / (1 + t * t)
        z0 = w * (1 - t * t)    # r * cos(2 * pi * u_odd)
        z1 = w * (2 * t)        # r * sin(2 * pi * u_odd)

    With numpy's AVX512 kernels float64 ``tan`` is a SIMD loop, where ``cos``
    and ``sin`` are scalar libm calls. |t| is at most tan(fl(pi) / 2), about
    1.6e16, so t * t is finite. An odd-sized request still consumes both
    uniforms of the final pair and discards the trailing sine normal. The
    transform runs in chunks of NORMAL_CHUNK_PAIRS pairs; being element-wise,
    the chunked draws equal the one-shot transform bit for bit.
    """

    def __init__(self, seed: int, _path: tuple[int, ...] = ()):
        seed = as_count(seed, "seed")
        if seed > _MAX_SEED:
            raise ParameterError(f"seed must fit in 64 unsigned bits, got {seed}")
        self.seed = seed
        self.stream_path = _path
        self._gen = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(seed, spawn_key=self.stream_path))
        )
        # The current block of uniforms, the position of its first unread one,
        # and the block mapped to indices for upper ``_upper`` (None: not yet).
        self._block = np.empty(0)
        self._pos = 0
        self._upper = None
        self._idx = None

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream_path={self.stream_path})"

    def split(self, stream_id: int) -> "RngStream":
        """Independent substream keyed by (seed, ..., stream_id)."""
        return RngStream(self.seed, self.stream_path + (as_count(stream_id, "stream_id"),))

    def _take(self, n: int) -> Array:
        # The next n uniforms of the stream: a view into the block when they
        # fit, otherwise the block's rest followed by a new block's head or, for
        # a rest of at least a block, a direct draw (no copy if the block is empty).
        pos = self._pos
        if pos + n <= self._block.size:
            self._pos = pos + n
            return self._block[pos:pos + n]
        head = self._block[pos:]
        rest = n - head.size
        if rest >= UNIFORM_BLOCK:
            tail = self._gen.random(rest)
            self._pos = self._block.size
        else:
            self._block = self._gen.random(UNIFORM_BLOCK)
            self._upper = self._idx = None
            self._pos = rest
            tail = self._block[:rest]
        return np.concatenate((head, tail)) if head.size else tail

    def uniform(self, n: int) -> Array:
        """n i.i.d. draws from [0, 1)."""
        return self._take(as_count(n, "n"))

    def normal(self, n: int) -> Array:
        """n i.i.d. standard normal draws via Box-Muller, NORMAL_CHUNK_PAIRS
        pairs at a time so the temporaries stay under 1.5 MB for any n."""
        n = as_count(n, "n", 1)
        pairs = (n + 1) // 2
        z = np.empty(2 * pairs)
        for lo in range(0, pairs, NORMAL_CHUNK_PAIRS):
            hi = min(lo + NORMAL_CHUNK_PAIRS, pairs)
            u = self._take(2 * (hi - lo))
            z0, z1 = z[2 * lo:2 * hi:2], z[2 * lo + 1:2 * hi:2]
            r = np.log1p(-u[0::2])
            r *= -2.0
            np.sqrt(r, out=r)
            t = np.multiply(u[1::2], math.pi)
            np.tan(t, out=t)
            # The class docstring's steps, in place: 1 + t * t waits in z0
            # until z0 is written, and r becomes w.
            q = t * t
            np.add(q, 1.0, out=z0)
            np.divide(r, z0, out=r)
            np.subtract(1.0, q, out=q)
            np.multiply(r, q, out=z0)
            t *= 2.0
            np.multiply(r, t, out=z1)
        return z[:n]

    def indices(self, n: int, upper: int) -> Array:
        """n indices drawn uniformly with replacement from {0, ..., upper-1}."""
        # The fast path, a slice of the mapped block, tests its arguments with
        # no call but operator.index: an int n whose slice fits, and an int
        # upper equal to the mapped one, which as_count already took (a NumPy
        # integer upper also passes, through isinstance after the int test).
        # Anything else goes through as_count before any draw.
        pos = self._pos
        try:
            end = pos + operator.index(n)
        except TypeError:
            end = -1
        fits = pos <= end <= self._block.size
        if not (fits and (upper.__class__ is int or isinstance(upper, np.integer))
                and upper == self._upper):
            n, upper = as_count(n, "n"), as_count(upper, "upper", 1)
            if fits and self._upper is None:
                self._idx = _to_indices(self._block, upper)
                self._upper = upper
            if not fits or upper != self._upper:
                return _to_indices(self._take(n), upper)
        self._pos = end
        return self._idx[pos:end]


def _to_indices(u: Array, upper: int) -> Array:
    return np.minimum((u * upper).astype(np.int64), upper - 1)


@dataclass(frozen=True)
class TraceRecord:
    """One sampled point of a solver run: exact objective at iterate ``iteration``."""

    iteration: int
    elapsed_seconds: float
    objective: float
