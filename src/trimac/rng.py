"""Counter-based splittable random streams.

Every stochastic routine in the package takes an integer seed and derives
independent substreams from it by integer paths, so that any component can
be re-run in isolation (or in parallel) and reproduce exactly the same draws.
Philox is counter-based; distinct spawn keys give statistically independent
streams without coordination.

`stream` builds one numpy generator per key.  `keyed_words` draws the
leading words of many keyed streams at once, one lane of a uint32/uint64
array computation per key, and `uniforms` and `sub_seeds` read those words
the way the generator does.  The contract, checked bit for bit against
`stream` on numpy 2.4.6:

* entropy: numpy's SeedSequence word assembly.  The seed's 32-bit words,
  least significant first (0 is one word), padded with zero words to four
  when the path is non-empty, then every path entry's words in turn;
* hash mix: SeedSequence's hashmix/mix into a four-word uint32 pool, then
  `generate_state(2, uint64)`, whose words w0..w3 give the Philox key
  (w0 | w1 << 32, w2 | w3 << 32), built arithmetically so that no result
  depends on the host's byte order;
* Philox4x64-10 from counter 1: words 4j..4j+3 of a stream are the cipher
  of the counter (j + 1, 0, 0, 0), the 64 x 64 -> 128-bit products taken in
  32-bit halves;
* a double is (word >> 11) * 2**-53, as `Generator.random`;
* a sub-seed is word >> 2, as `Generator.integers(0, 2**62)`: Lemire's
  bounded draw keeps the high word of word * 2**62, and its rejection
  threshold (2**64 - 2**62) mod 2**62 is 0, so it never draws again.

`keyed_words` hands fewer than _KERNEL_MIN_KEYS keys to `stream` itself.
`tally` reports, per thread, how many keyed streams were drawn either way
and how many batched kernel calls drew them.  `available_cores` is the
package's one rule for "all cores", for the work it spreads over threads.
"""

from __future__ import annotations

import operator
import os
import threading

import numpy as np

__all__ = ["stream", "keyed_words", "uniforms", "sub_seeds", "tally", "available_cores"]

_MASK32 = 0xFFFFFFFF
# SeedSequence's hash constants and pool size
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_POOL = 4
# Philox4x64 multipliers and Weyl key increments (Salmon et al., SC 2011),
# one row per multiply of a round, in their 32-bit halves too
_PHILOX_M = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157], dtype=np.uint64)[:, None, None]
_M_LO, _M_HI = _PHILOX_M & np.uint64(_MASK32), _PHILOX_M >> np.uint64(32)
_PHILOX_W = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], dtype=np.uint64)[:, None, None]
_ROUNDS = 10
# shift and mask operands as numpy scalars: a Python int operand costs a dtype check per call
_U32_16 = np.uint32(16)
_U64_32, _U64_MASK32 = np.uint64(32), np.uint64(_MASK32)

# Below this many keys, numpy's own generators (about 40 us a key) beat the
# batched kernel, whose numpy dispatch costs about 0.5 ms a call.
_KERNEL_MIN_KEYS = 12

_TALLY = threading.local()


def available_cores() -> int:
    """Cores this process may run on: its CPU affinity mask, as `nproc` reads it.

    Falls back to os.cpu_count() where the platform has no sched_getaffinity.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def tally() -> tuple[int, int]:
    """(keyed streams drawn, batched kernel calls) so far on the calling thread."""
    return getattr(_TALLY, "streams", 0), getattr(_TALLY, "calls", 0)


def _count(streams: int, calls: int) -> None:
    _TALLY.streams = getattr(_TALLY, "streams", 0) + streams
    _TALLY.calls = getattr(_TALLY, "calls", 0) + calls


def stream(seed: int, *path: int) -> np.random.Generator:
    """Return the generator for substream `path` of master stream `seed`.

    Args:
        seed: master seed, any Python int >= 0.
        path: zero or more non-negative ints naming the substream.

    The same (seed, path) always yields the same generator state.
    """
    if seed < 0:
        raise ValueError("seed must be non-negative")
    key = tuple(int(p) for p in path)
    ss = np.random.SeedSequence(int(seed), spawn_key=key)
    _count(1, 0)
    return np.random.Generator(np.random.Philox(ss))


def _column(values, what: str) -> np.ndarray:
    """Non-negative ints as uint64, or as an object array of Python ints when some are wider."""
    # a list is read as Python ints: numpy would make [0, 2**63] a float64 array
    col = values if isinstance(values, np.ndarray) else np.array(values, dtype=object)
    if col.dtype.kind not in "iu":
        col = np.array([operator.index(v) for v in col.ravel()], dtype=object).reshape(col.shape)
    if col.size and col.min() < 0:
        raise ValueError(f"{what} must be non-negative")
    if col.dtype == object and col.size and col.max() >= 2**64:
        return col
    return col.astype(np.uint64)


def _words(col: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """32-bit words of each value, least significant first, zero-filled to the
    widest: (*col.shape, W) uint32, and each value's own word count (0 has one)."""
    words, count = [], np.ones(col.shape, dtype=np.int64)
    rest = col
    while True:
        words.append((rest & _MASK32).astype(np.uint32))
        rest = rest >> 32
        more = np.asarray(rest != 0, dtype=bool)
        if not more.any():
            return np.stack(words, axis=-1), count
        count += more


def _entropy(items: np.ndarray):
    """Assembled entropy of keys whose seed and path entries are the columns of items.

    Yields (rows, (rows, L) uint32 words), one block per word layout.
    """
    words, widths = _words(items)
    if items.shape[1] > 1:
        # SeedSequence pads the seed's words to the pool size ahead of a spawn key
        widths[:, 0] = np.maximum(widths[:, 0], _POOL)
        pad = _POOL - words.shape[2]
        if pad > 0:
            words = np.concatenate((words, np.zeros(words.shape[:2] + (pad,), np.uint32)), axis=2)
    if (widths == widths[:1]).all():
        layouts, which = widths[:1], np.zeros(len(widths), dtype=np.int64)
    else:
        layouts, which = np.unique(widths, axis=0, return_inverse=True)
    for i, layout in enumerate(layouts):
        rows = np.flatnonzero(which.ravel() == i)
        yield rows, words[rows][:, np.arange(words.shape[2]) < layout[:, None]]


def _hash_chain(init: int, mult: int, hashes: int) -> np.ndarray:
    """SeedSequence's running hash constant over `hashes` hashes: hash i xors
    with entry i and multiplies by entry i + 1.  Shape (hashes + 1, 1) uint32."""
    chain = [init]
    for _ in range(hashes):
        chain.append((chain[-1] * mult) & _MASK32)
    return np.array(chain, dtype=np.uint32)[:, None]


def _hash(value: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    value = (value ^ xor) * mult
    return value ^ (value >> _U32_16)


def _mix(x: np.ndarray, scaled_y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix(x, y), given _MIX_R * hashmix(y)."""
    out = _MIX_L * x - scaled_y
    return out ^ (out >> _U32_16)


def _philox_key(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence(entropy).generate_state(2, uint64) of every row: (2, keys) uint64.

    Pool updates from one source word are independent of each other, and the
    hashes of entropy words beyond the pool do not depend on the pool, so
    each runs as one array operation over destinations (and words).
    """
    words = entropy.T
    length = words.shape[0]
    extra = max(0, length - _POOL)
    chain = _hash_chain(_INIT_A, _MULT_A, _POOL * _POOL + _POOL * extra)
    pool = np.zeros((_POOL, words.shape[1]), dtype=np.uint32)
    pool[:length] = words[:_POOL]
    pool = _hash(pool, chain[:_POOL], chain[1:_POOL + 1])
    i = _POOL
    for src in range(_POOL):
        dst = [d for d in range(_POOL) if d != src]
        pool[dst] = _mix(pool[dst], _MIX_R * _hash(pool[src], chain[i:i + 3], chain[i + 1:i + 4]))
        i += 3
    if extra:
        xor = chain[i:-1].reshape(extra, _POOL, 1)
        scaled = _MIX_R * _hash(words[_POOL:, None], xor, chain[i + 1:].reshape(extra, _POOL, 1))
        for src in range(extra):
            pool = _mix(pool, scaled[src])
    chain = _hash_chain(_INIT_B, _MULT_B, _POOL)
    state = _hash(pool, chain[:-1], chain[1:]).astype(np.uint64)
    return state[0::2] | state[1::2] << _U64_32


def _mulhilo(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit products _PHILOX_M * a, from 32-bit halves."""
    a_lo, a_hi = a & _U64_MASK32, a >> _U64_32
    ll, lh, hl = _M_LO * a_lo, _M_LO * a_hi, _M_HI * a_lo
    t = (ll >> _U64_32) + lh
    u = (t & _U64_MASK32) + hl
    return _M_HI * a_hi + (t >> _U64_32) + (u >> _U64_32), _PHILOX_M * a


def _philox(key: np.ndarray, count: int) -> np.ndarray:
    """The first `count` Philox4x64-10 words under each key column: (keys, count) uint64.

    State (c0, c2) and (c1, c3) are held as two (2, keys, blocks) arrays, so
    both multiplies of a round are one array product.
    """
    blocks = -(-count // 4)
    keys = key.shape[1]
    k = key[:, :, None]
    a = np.zeros((2, keys, blocks), dtype=np.uint64)
    a[0] = np.arange(1, blocks + 1, dtype=np.uint64)
    b = np.zeros_like(a)
    for r in range(_ROUNDS):
        if r:
            k = k + _PHILOX_W
        hi, lo = _mulhilo(a)
        a, b = hi[::-1] ^ b ^ k, lo[::-1]
    out = np.stack((a[0], b[0], a[1], b[1]), axis=-1)
    return out.reshape(keys, 4 * blocks)[:, :count]


def _stream_words(seeds, paths, count: int) -> np.ndarray:
    """keyed_words for a few keys, one numpy generator each."""
    if isinstance(paths, np.ndarray):
        paths = paths.tolist()
    seeds = [seeds] * len(paths) if np.ndim(seeds) == 0 else list(seeds)
    if len(seeds) != len(paths):
        raise ValueError("need one seed, or one seed per path")
    out = np.empty((len(paths), count), dtype=np.uint64)
    for r, (seed, path) in enumerate(zip(seeds, paths)):
        out[r] = stream(int(seed), *path).bit_generator.random_raw(count)
    return out


def keyed_words(seeds, paths, count: int) -> np.ndarray:
    """The first `count` raw words of stream(seed, *path) for every key: (keys, count) uint64.

    Row r equals stream(seed_r, *paths[r]).bit_generator.random_raw(count).
    seeds is one seed for every key or a sequence of one per key; paths is
    a (keys, P) int array or a sequence of int sequences of any lengths.
    Every seed and path entry is a non-negative int of any size.
    """
    if count < 1:
        raise ValueError("count must be positive")
    if len(paths) < _KERNEL_MIN_KEYS:
        return _stream_words(seeds, paths, count)
    if isinstance(paths, np.ndarray) and paths.ndim == 2:
        groups = [(np.arange(paths.shape[0]), _column(paths, "path entries"))]
    else:
        paths = [tuple(p) for p in paths]
        lengths = np.array([len(p) for p in paths], dtype=np.int64)
        groups = []
        for length in np.unique(lengths):
            rows = np.flatnonzero(lengths == length)
            block = np.array([paths[r] for r in rows], dtype=object).reshape(rows.size, length)
            groups.append((rows, _column(block, "path entries")))
    keys = sum(rows.size for rows, _ in groups)
    seeds = _column(seeds, "seed")
    if seeds.ndim == 0:
        seeds = np.broadcast_to(seeds, (keys,))
    elif seeds.shape != (keys,):
        raise ValueError("need one seed, or one seed per path")
    key = np.empty((2, keys), dtype=np.uint64)
    for rows, block in groups:
        for sub, entropy in _entropy(np.column_stack((seeds[rows], block))):
            key[:, rows[sub]] = _philox_key(entropy)
    _count(keys, 1)
    return _philox(key, count)


def uniforms(seeds, paths, count: int) -> np.ndarray:
    """stream(seed, *path).random(count) for every key, as rows: (keys, count) float64."""
    return (keyed_words(seeds, paths, count) >> 11).astype(np.float64) * 2.0**-53


def sub_seeds(seeds, paths) -> np.ndarray:
    """stream(seed, *path).integers(0, 2**62) for every key: (keys,) int64."""
    return (keyed_words(seeds, paths, 1)[:, 0] >> 2).astype(np.int64)
