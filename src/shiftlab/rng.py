"""Counter-based deterministic pseudorandom generator.

All randomness in this package flows through :class:`CounterRng` so that
every artifact (shift plans, synthetic weights, mask trajectories, golden
files) is reproducible bit-for-bit from a seed, across runs and across
machines.  The generator is a keyed SplitMix64: the i-th output is a pure
function of (key, i), so independent streams are cheap -- derive a new key
from (seed, stream labels) and never share mutable state.

Because an output depends on nothing but (key, counter), many streams can
also be computed at once as uint64 arrays: :func:`permutations` derives a
key per broadcast label and takes every Fisher-Yates draw in one array
op.  Each batched row is bitwise equal to the scalar stream it stands for.
A draw whose result is known in advance is not taken: ``sample_slots``
of all n of n slots keeps them all, and the counter
still moves n - 1 on, as the draw would have moved it.

We deliberately do not use numpy's Generator API here: its method-level
streams are allowed to change between numpy versions, which would break
golden-file regression.
"""

from __future__ import annotations

import hashlib

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    """SplitMix64 finalizer: avalanche a 64-bit word."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _mix_array(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer over a uint64 array, wrapping like _mix."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _words(keys: np.ndarray, start: int, count: int) -> np.ndarray:
    """Outputs start .. start + count - 1 of each key's stream, on a new first axis."""
    keys = np.asarray(keys, dtype=np.uint64)
    ctrs = np.arange(start, start + count, dtype=np.uint64) * np.uint64(_GOLDEN)
    return _mix_array(ctrs.reshape((count,) + (1,) * keys.ndim) + keys)


def _key_part(part) -> int:
    if isinstance(part, str):
        return int.from_bytes(hashlib.blake2b(part.encode(), digest_size=8).digest(), "little")
    return int(part) & _MASK


def _label_words(part) -> np.ndarray:
    """A stream label as uint64: strings hashed, ints taken mod 2**64."""
    if isinstance(part, (str, int)):
        return np.uint64(_key_part(part))
    a = np.asarray(part)
    if a.dtype.kind not in "iu":
        raise TypeError(f"stream label array of dtype {a.dtype} is not integer")
    return a.astype(np.uint64)      # C cast: negative values wrap mod 2**64


def _stream_keys(seed: int, stream) -> np.ndarray:
    """CounterRng(seed, *labels)'s key for every index of the broadcast labels."""
    key = np.uint64(_mix(int(seed) & _MASK))
    with np.errstate(over="ignore"):      # 0-d operands: numpy scalars warn on wrap
        for i, part in enumerate(stream):
            term = _mix_array(_label_words(part) + np.uint64(((i + 1) * _GOLDEN) & _MASK))
            key = _mix_array(key ^ term)
    return np.asarray(key)


def _draw_bounds(n: int) -> np.ndarray:
    """Bounds n, n - 1, ..., 2 of the Fisher-Yates draws over range(n)."""
    if not 0 <= n < 1 << 32:
        raise ValueError(f"permutation size {n} outside [0, 2**32)")
    return np.arange(n, 1, -1, dtype=np.uint64)


def _mul_hi(u: np.ndarray, m: np.ndarray) -> np.ndarray:
    """(u * m) >> 64 over uint64 arrays, exact for m < 2**32.

    With u split into 32-bit halves this is (hi * m + ((lo * m) >> 32)) >> 32,
    whose terms cannot wrap while m < 2**32.
    """
    hi, lo = u >> np.uint64(32), u & np.uint64(0xFFFFFFFF)
    return (hi * m + ((lo * m) >> np.uint64(32))) >> np.uint64(32)


def permutations(seed: int, *stream, n: int) -> np.ndarray:
    """Fisher-Yates permutations of range(n), one per index of the labels.

    Any integer label may be an int array; the labels broadcast together.
    The result has shape (broadcast shape) + (n,), and the row at each
    index is bitwise equal to
    ``CounterRng(seed, *labels at that index).permutation(n)``.
    """
    bounds = _draw_bounds(n)
    keys = _stream_keys(seed, stream)
    rows = keys.size
    # perm[i] holds slot i of every row, so draw t of all rows gathers with
    # one take at flat index j * rows + row and swaps with one contiguous row
    at = _mul_hi(_words(keys.reshape(-1), 0, bounds.size), bounds[:, None])
    at *= np.uint64(rows)
    at += np.arange(rows, dtype=np.uint64)
    at = at.view(np.int64)                  # every index < n * rows < 2**63
    perm = np.repeat(np.arange(n, dtype=np.int64), rows)
    for t, i in enumerate(range(n - 1, 0, -1)):
        row = perm[i * rows:(i + 1) * rows]
        picked = perm.take(at[t])
        perm[at[t]] = row                   # j <= i: row i changes only where j == i
        row[...] = picked
    return perm.reshape(n, rows).T.reshape(keys.shape + (n,))


class CounterRng:
    """Deterministic stream keyed by (seed, *stream).

    `stream` labels (ints or strings) separate independent streams, e.g.
    ``CounterRng(seed, "plan", layer_id, edge, channel)``.
    """

    def __init__(self, seed: int, *stream) -> None:
        key = _mix(int(seed) & _MASK)
        for i, part in enumerate(stream):
            key = _mix(key ^ _mix(_key_part(part) + (i + 1) * _GOLDEN))
        self._key = key
        self._ctr = 0

    def next_u64(self) -> int:
        v = _mix(self._key + self._ctr * _GOLDEN)
        self._ctr += 1
        return v

    def next_float(self) -> float:
        """Uniform in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.next_float()

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n). Multiply-shift map, no rejection."""
        if n <= 0:
            raise ValueError("randint bound must be positive")
        return (self.next_u64() * n) >> 64

    def _fisher_yates(self, n: int, stop: int) -> list[int]:
        """range(n) after the Fisher-Yates swaps for i = n - 1 .. stop, 0 <= stop <= n.

        The draw j = randint(i + 1) of swap i is word n - 1 - i of the
        stream, so only the words of those swaps are drawn (in one array
        op, as in permutations()); the counter still moves n - 1 on.
        """
        bounds = _draw_bounds(n)
        live = bounds[:n - stop]
        draws = _mul_hi(_words(self._key, self._ctr, live.size), live).tolist()
        self._ctr += bounds.size
        perm = list(range(n))
        for i, j in zip(range(n - 1, 0, -1), draws):
            perm[i], perm[j] = perm[j], perm[i]
        return perm

    def permutation(self, n: int) -> list[int]:
        """Fisher-Yates permutation of range(n): the draws j = randint(i + 1)
        for i = n - 1 .. 1, swapping slots i and j."""
        return self._fisher_yates(n, 1)

    def sample_slots(self, n: int, k: int) -> np.ndarray:
        """Ascending int array of the k slots of range(n) that a k-of-n
        sample keeps: the first k slots of permutation(n).  Swaps at i < k
        only reorder those slots, so only the n - k swaps for i = n - 1 .. k
        are drawn (none for k == n); the stream still advances by n - 1."""
        if not 0 <= k <= n:
            raise ValueError(f"sample size {k} outside [0, {n}]")
        if k == n:
            self._ctr += max(n - 1, 0)
            return np.arange(n)
        kept = np.ones(n, dtype=bool)
        kept[self._fisher_yates(n, k)[k:]] = False
        return np.flatnonzero(kept)

    def uniform_array(self, shape, lo: float, hi: float, dtype=np.float64) -> np.ndarray:
        """Array of uniforms in [lo, hi), identical to repeated uniform() calls.

        Vectorized over the counter; the stream position advances by the
        element count so scalar and array draws interleave consistently.
        """
        n = int(np.prod(shape)) if shape else 1
        z = _words(self._key, self._ctr, n)
        self._ctr += n
        u = (z >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)
        return (lo + (hi - lo) * u).reshape(shape).astype(dtype, copy=False)
