"""Uniform random linear maps over a prime field, the joint image law of
such maps, and the packed binary-code kernel.

Vectors and matrices over Z_q, q prime, are plain int64 arrays of residues
in [0, q).  Everything here is exact integer arithmetic; probabilities
returned by :func:`joint_image_probability` are the only floats.

The binary-code kernel serves every binary decoder.  A word of n <= 62 bits
is one int64 key, most significant bit first, so a k x n generator's 2^k
codewords are built by XOR doubling, Hamming distance is a popcount of an
XOR, and a set of words is a sorted array of distinct keys.  Nearest
codewords come from a popcount scan of the whole book (the oracle), a
Hamming-ball search over a key set, or, for a linear book decoded many
times, a coset-leader table (CosetDecoder): a word y's syndrome names its
coset, whose minimal-weight patterns e give its nearest codewords y ^ e.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .probcore import check_cells, mixed_radix, radix_ids
from .rng import stream

__all__ = [
    "check_prime_field",
    "sample_uniform_matrix",
    "sample_zero_sum_offsets",
    "joint_image_probability",
    "image_probability_case",
    "verify_image_probability",
    "ImageProbabilityReport",
    "MAX_PACKED_BITS",
    "pack_bits",
    "unpack_bits",
    "xor_codebook",
    "distinct_keys",
    "xor_closure",
    "nearest_codeword",
    "nearest_in_set",
    "CosetDecoder",
]

# Enumeration guard for verify_image_probability: number of matrices.
MAX_ENUM_MATRICES = 2**24
# Secondary guard: cells of the (s1, s2, v1, v2) count table kept in memory.
MAX_COUNT_CELLS = 2**26
# Flat cell ids the verifier's tally, or a closure's presence table, marks per chunk.
_TALLY_CELLS = 1 << 16
# Binary words are packed into signed int64 keys.
MAX_PACKED_BITS = 62
# Largest temporary of the popcount and closure kernels, in cells.
_KEY_CHUNK_CELLS = 1 << 22
# Largest coset-leader table, as syndromes plus within-radius patterns, times n.
_TABLE_CELLS = 1 << 24


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    d = 2
    while d * d <= q:
        if q % d == 0:
            return False
        d += 1
    return True


def check_prime_field(q: int) -> None:
    """Raise unless q names a prime field Z_q: an int, prime by trial division, q <= 251."""
    if not isinstance(q, int):
        raise TypeError("q must be an int")
    if q > 251:
        raise ValueError("q must fit a machine byte, q <= 251")
    if not _is_prime(q):
        raise ValueError(f"q = {q} is not prime")


def sample_uniform_matrix(q: int, k: int, n: int, seed: int, *path: int) -> np.ndarray:
    """k x n int64 matrix with iid uniform Z_q entries from stream(seed, *path)."""
    if k < 1 or n < 1:
        raise ValueError("matrix dimensions must be positive")
    check_prime_field(q)
    return stream(seed, *path).integers(0, q, size=(k, n))


def sample_zero_sum_offsets(q: int, n: int, t: int, seed: int, *path: int) -> np.ndarray:
    """(t, n) int64 offset rows that sum to zero in Z_q, from stream(seed, *path).

    The first t - 1 rows are iid uniform; the last is the negated sum of the
    others, so the rows are uniform on the zero-sum subspace.
    """
    if t < 1 or n < 1:
        raise ValueError("need at least one offset, of positive length")
    check_prime_field(q)
    head = stream(seed, *path).integers(0, q, size=(t - 1, n))
    return np.vstack((head, (-head.sum(axis=0)) % q))


def image_probability_case(s1, s2, q: int) -> tuple[str, int | None]:
    """Classify the index pair for the joint image law.

    s1 and s2 are int vectors of one length, read as residues mod q.
    Returns (case, a) where case is one of "zero-zero", "left-zero",
    "right-zero", "proportional", "independent" and a is the scalar with
    s1 = a * s2 in the proportional case, else None.
    """
    check_prime_field(q)
    s1, s2 = np.asarray(s1, dtype=np.int64) % q, np.asarray(s2, dtype=np.int64) % q
    if s1.shape != s2.shape:
        raise ValueError("mismatched index vectors")
    z1, z2 = not s1.any(), not s2.any()
    if z1 and z2:
        return "zero-zero", None
    if z1:
        return "left-zero", None
    if z2:
        return "right-zero", None
    pivot = int(np.flatnonzero(s2)[0])
    a = int(s1[pivot]) * pow(int(s2[pivot]), -1, q) % q
    if np.array_equal(a * s2 % q, s1):
        return "proportional", a
    return "independent", None


def _in_support(case: str, a: int | None, v1: np.ndarray, v2: np.ndarray, q: int) -> np.ndarray:
    """Whether image pairs (v1, v2) lie in the support of the case's law.

    This is the closed form of the joint image law of (s1 G, s2 G), G a
    uniform k x n matrix over Z_q: it depends only on the linear relation
    between s1 and s2, and it is uniform on this support, whose size is
    _support_size:

      * s1 = s2 = 0: the point (0, 0);
      * exactly one s zero: its image is zero, the other's is any vector;
      * s1 = a s2 with a != 0: the coupled slice v1 = a v2;
      * linearly independent: all q^{2n} pairs.

    v1 and v2 are residue arrays with entries on the last axis and leading
    axes that broadcast; pairs are compared by their mixed-radix ids, so the
    entry axis is never broadcast.
    """
    id1, id2 = radix_ids(v1, q), radix_ids(v2, q)
    if case == "proportional":
        return id1 == radix_ids(a * v2 % q, q)
    # a zero index pins its image to 0; otherwise every id (all are >= 0) fits
    fit1 = id1 == 0 if case in ("zero-zero", "left-zero") else id1 >= 0
    fit2 = id2 == 0 if case in ("zero-zero", "right-zero") else id2 >= 0
    return fit1 & fit2


def _support_size(case: str, q: int, n: int) -> int:
    """Number of image pairs in the support of the case's law (see _in_support)."""
    if case == "zero-zero":
        return 1
    return q ** (2 * n if case == "independent" else n)


def _image_support(s1, s2, q: int, n: int) -> tuple[str, np.ndarray]:
    """The pair's case and the (q^n, q^n) support mask of its image law.

    Images are indexed as mixed_radix tuples, most significant entry first.
    """
    case, a = image_probability_case(s1, s2, q)
    n_v = q**n
    check_cells((n_v, n_v))
    images = mixed_radix(np.arange(n_v), q, n)
    return case, _in_support(case, a, images[:, None], images[None, :], q)


def joint_image_probability(s1, s2, v1, v2, q: int) -> float:
    """P{s1 G = v1 and s2 G = v2} over a uniform k x n matrix G over Z_q.

    Vectors are read as residues mod q.  One lookup of the closed form
    (see _in_support) in O(n): images up to q^n = 2^63 vectors.
    """
    v1, v2 = np.asarray(v1, dtype=np.int64) % q, np.asarray(v2, dtype=np.int64) % q
    if v1.shape != v2.shape or v1.ndim != 1:
        raise ValueError("mismatched image vectors")
    case, a = image_probability_case(s1, s2, q)
    if q**v1.size > 2**63:
        raise ValueError(f"images of q^n = {q}^{v1.size} vectors do not index as int64")
    return float(_in_support(case, a, v1, v2, q)) / _support_size(case, q, v1.size)


@dataclass(frozen=True)
class ImageProbabilityReport:
    """Exhaustive check of the joint image law for one (q, k, n); its fields are JSON keys."""

    q: int
    k: int
    n: int
    matrices: int
    index_pairs: int
    case_counts: dict
    max_abs_deviation: float
    ok: bool


def verify_image_probability(q: int, k: int, n: int) -> ImageProbabilityReport:
    """Enumerate every k x n matrix over Z_q and tally the joint image law.

    For each index pair (s1, s2) the count of every image pair (s1 G, s2 G)
    over all matrices is compared with the closed form's exact integer
    count: q^{kn} / _support_size on the support mask of _image_support, 0
    off it.  max_abs_deviation is 0.0 iff the closed form is correct
    cell-for-cell.

    Guards: q^{kn} <= 2^24 matrices and q^{2k+2n} <= 2^26 count cells.
    """
    check_prime_field(q)
    m_total = q ** (k * n)
    if m_total > MAX_ENUM_MATRICES:
        raise ValueError(f"q^(k*n) = {m_total} exceeds enumeration guard {MAX_ENUM_MATRICES}")
    n_s = q**k
    n_v = q**n
    cells = n_s * n_s * n_v * n_v
    if cells > MAX_COUNT_CELLS:
        raise ValueError(f"count table of {cells} cells exceeds guard {MAX_COUNT_CELLS}")

    all_s = mixed_radix(np.arange(n_s), q, k)  # (n_s, k)
    # G's columns range over the same q^k vectors as the indices, and column c
    # of value g sets digit c of s_i G to digits[g, i] = s_i . g mod q,
    # whatever the other columns are
    digits = all_s @ all_s.T % q

    def column(c, g):
        """What column c of value g (an int or an array of values) adds to every pair's flat id."""
        d = digits[g]
        return (d[..., :, None] * n_v + d[..., None, :]) * q ** (n - 1 - c)

    # flat id of cell (i, j, v1, v2) is pair_base[i, j] + v1 * n_v + v2: per
    # matrix, pair_base plus the sum of its columns' tables.  The last `tail`
    # columns' outer sum, at most _TALLY_CELLS ids, is tallied once for every
    # value of the leading columns.
    pair_base = np.arange(n_s * n_s, dtype=np.int64).reshape(n_s, n_s) * (n_v * n_v)
    tail = 0
    while tail < n and n_s ** (tail + 1) * n_s * n_s <= _TALLY_CELLS:
        tail += 1
    ids = pair_base[None]
    for c in range(n - tail, n):
        ids = (ids[:, None] + column(c, np.arange(n_s))).reshape(-1, n_s, n_s)
    counts = np.zeros(cells, dtype=np.int64)
    for lead in itertools.product(range(n_s), repeat=n - tail):
        np.add.at(counts, (ids + sum(column(c, g) for c, g in enumerate(lead))).ravel(), 1)
    counts = counts.reshape(n_s, n_s, n_v, n_v)

    case_counts: dict[str, int] = {}
    max_dev = 0
    for i in range(n_s):
        for j in range(n_s):
            case, support = _image_support(all_s[i], all_s[j], q, n)
            case_counts[case] = case_counts.get(case, 0) + 1
            expected = support * (m_total // _support_size(case, q, n))
            max_dev = max(max_dev, int(np.abs(counts[i, j] - expected).max()))

    return ImageProbabilityReport(
        q=q,
        k=k,
        n=n,
        matrices=m_total,
        index_pairs=n_s * n_s,
        case_counts=case_counts,
        max_abs_deviation=float(max_dev) / m_total,
        ok=max_dev == 0,
    )


# ---------------------------------------------------------------------------
# Packed binary-code kernel


def pack_bits(words) -> np.ndarray:
    """Bit rows (last axis) to int64 keys, most significant bit first."""
    words = np.asarray(words)
    if words.shape[-1] > MAX_PACKED_BITS:
        raise ValueError(f"words longer than {MAX_PACKED_BITS} bits do not pack into int64")
    return radix_ids(words, 2)


def unpack_bits(keys, n: int) -> np.ndarray:
    """Inverse of pack_bits: int64 keys to n-bit rows, most significant bit first."""
    keys = np.asarray(keys, dtype=np.int64)
    return (keys[..., None] >> np.arange(n - 1, -1, -1, dtype=np.int64)) & 1


def xor_codebook(generator) -> np.ndarray:
    """The 2^k codeword keys of a binary k x n generator; index i is message i.

    Message bits are read most significant first, so row j of the generator
    is the codeword of message 2^(k-1-j).  The book is built by XOR
    doubling: words 2^j..2^(j+1)-1 are words 0..2^j-1 xor one row.  A rank
    deficient generator repeats words.  The 2^k x n cell cap is checked
    before anything is allocated.
    """
    g = np.asarray(generator)
    if g.ndim != 2 or g.size == 0:
        raise ValueError("generator must be a nonempty 2-D array")
    k, n = g.shape
    check_cells((2**k, n))
    if not np.isin(g, (0, 1)).all():
        raise ValueError("generator entries must be bits")
    return _span(pack_bits(g)[::-1])


def _span(rows) -> np.ndarray:
    """The 2^len(rows) XOR combinations of packed rows; bit j of an index selects rows[j]."""
    out = np.zeros(1 << len(rows), dtype=np.int64)
    for j, row in enumerate(rows):
        np.bitwise_xor(out[: 1 << j], row, out=out[1 << j : 2 << j])
    return out


def distinct_keys(keys) -> np.ndarray:
    """Sorted distinct keys, by a sort and an adjacent-difference mask."""
    out = np.sort(np.asarray(keys, dtype=np.int64), axis=None)
    if out.size:
        keep = np.empty(out.size, dtype=bool)
        keep[0] = True
        np.not_equal(out[1:], out[:-1], out=keep[1:])
        out = out[keep]
    return out


def xor_closure(keys_a, keys_b) -> np.ndarray:
    """Sorted distinct pairwise XORs of two key sets, chunked over keys_a.

    XORs of keys below 2^L stay below 2^L.  So where a 2^L presence table
    is at most half the bytes of the pairs' int64 XORs, and of one sort
    chunk, each chunk marks its XORs in it, read off in order at the end;
    otherwise each chunk's distinct XORs are merged by sorting.
    """
    keys_a = np.asarray(keys_a, dtype=np.int64)
    keys_b = np.asarray(keys_b, dtype=np.int64)
    if keys_a.size and keys_b.size and min(keys_a.min(), keys_b.min()) >= 0:
        cells = 1 << int(max(keys_a.max(), keys_b.max())).bit_length()
        if cells <= 4 * min(keys_a.size * keys_b.size, _KEY_CHUNK_CELLS):
            seen = np.zeros(cells, dtype=bool)
            chunk = max(1, _TALLY_CELLS // keys_b.size)
            for start in range(0, keys_a.size, chunk):
                seen[np.bitwise_xor.outer(keys_a[start : start + chunk], keys_b)] = True
            return np.flatnonzero(seen)
    out = np.zeros(0, dtype=np.int64)
    chunk = max(1, _KEY_CHUNK_CELLS // max(1, keys_b.size))
    for start in range(0, keys_a.size, chunk):
        block = np.bitwise_xor.outer(keys_a[start : start + chunk], keys_b)
        out = distinct_keys(np.concatenate((out, distinct_keys(block))))
    return out


def nearest_codeword(book, received, radius: float | None = None):
    """First nearest codeword of each received key, by popcount distance.

    Returns (index, ambiguous), two arrays over the 1-D received keys.
    index is the lowest book index at the minimum distance.  ambiguous is
    set when that minimum is attained more than once or, given a radius,
    when the number of codewords within radius is not exactly one.  Work
    is chunked over received words so no temporary exceeds 2^22 cells.
    """
    book = np.asarray(book, dtype=np.int64)
    received = np.asarray(received, dtype=np.int64)
    index = np.empty(received.size, dtype=np.int64)
    ambiguous = np.empty(received.size, dtype=bool)
    chunk = max(1, _KEY_CHUNK_CELLS // max(1, book.size))
    for start in range(0, received.size, chunk):
        part = slice(start, start + chunk)
        dists = np.bitwise_count(received[part, None] ^ book)
        index[part] = np.argmin(dists, axis=1)
        if radius is None:
            best = dists.min(axis=1, keepdims=True)
            ambiguous[part] = np.count_nonzero(dists == best, axis=1) > 1
        else:
            ambiguous[part] = np.count_nonzero(dists <= radius, axis=1) != 1
    return index, ambiguous


def nearest_in_set(members, received, n: int):
    """Nearest member of a sorted distinct key set to each received key.

    Returns (nearest, tie, scanned) over the 1-D received keys; among
    members tied at the minimum distance the smallest key is returned, as
    a scan in sorted order would.  Hamming balls around the received words
    grow radius by radius, each ball word looked up by binary search, while
    the whole ball stays cheaper than a scan: at most |C| / ceil(log2 |C|)
    words.  Words still unresolved are popcount-scanned; scanned marks them.
    """
    members = np.asarray(members, dtype=np.int64)
    received = np.asarray(received, dtype=np.int64)
    nearest = np.zeros(received.size, dtype=np.int64)
    tie = np.zeros(received.size, dtype=bool)
    budget = members.size / max(1, math.ceil(math.log2(members.size)))
    radius, ball = -1, 0
    while radius < n and ball + math.comb(n, radius + 1) <= budget:
        radius += 1
        ball += math.comb(n, radius)
    open_ = np.arange(received.size)
    shell = np.zeros(1, dtype=np.int64)  # the masks of weight r
    singles = np.left_shift(np.int64(1), np.arange(n, dtype=np.int64))
    for r in range(radius + 1):
        if r:
            shell = distinct_keys(shell[:, None] | singles)
            shell = shell[np.bitwise_count(shell) == r]
        found = np.zeros(open_.size, dtype=bool)
        chunk = max(1, _KEY_CHUNK_CELLS // shell.size)
        for start in range(0, open_.size, chunk):
            part = slice(start, start + chunk)
            words = received[open_[part], None] ^ shell
            pos = np.minimum(np.searchsorted(members, words), members.size - 1)
            hit = members[pos] == words
            count = np.count_nonzero(hit, axis=1)
            hit_rows = count > 0
            rows = open_[part][hit_rows]
            nearest[rows] = np.where(hit, words, np.iinfo(np.int64).max)[hit_rows].min(axis=1)
            tie[rows] = count[hit_rows] > 1
            found[part] = hit_rows
        open_ = open_[~found]
        if not open_.size:
            break
    scanned = np.zeros(received.size, dtype=bool)
    if open_.size:
        index, ambiguous = nearest_codeword(members, received[open_])
        nearest[open_] = members[index]
        tie[open_] = ambiguous
        scanned[open_] = True
    return nearest, tie, scanned


def _echelon(rows) -> dict[int, int]:
    """Reduced echelon basis of packed GF(2) rows, as {pivot bit: row}.

    Each row's pivot is its top bit, and every pivot is clear in the other rows.
    """
    basis: dict[int, int] = {}
    for row in rows:
        for pivot, b in basis.items():
            if row >> pivot & 1:
                row ^= b
        if row:
            top = row.bit_length() - 1
            for pivot, b in basis.items():
                if b >> top & 1:
                    basis[pivot] = b ^ row
            basis[top] = row
    return basis


class CosetDecoder:
    """nearest_codeword for one packed linear book, by a coset-leader table.

    decoder(received, radius) returns exactly nearest_codeword(book,
    received, radius) for n-bit received keys, ties included.  The book's
    rows book[2^j] reduce to a basis of rank r with one pivot bit per row;
    a word's syndrome is its n - r non-pivot bits after reduction by that
    basis, and y ^ e is a codeword iff e has y's syndrome.  So the nearest
    codewords of y are y ^ e over the minimal-weight patterns e of its
    coset: the index is the lowest book index among them, and every
    codeword stands at 2^(k - r) indices, so the minimum is shared iff
    count * 2^(k - r) > 1.  Given the radius the table was built for, the
    codewords within it number (patterns of weight <= floor(radius) in the
    coset) * 2^(k - r).

    Minimal patterns are enumerated weight by weight, each one extended by
    the bits above its top bit: every sub-pattern of a minimal pattern is
    minimal, so each is generated once, from itself minus its top bit.

    The table is built only when it is the cheaper way to decode ``words``
    words: about (2^(n - r) + within-radius patterns) * n cells against
    the scan's words * 2^k, checked before anything is allocated, and under
    _TABLE_CELLS.  Otherwise, when the book is not the span of its rows, or
    for another radius, every call is the scan.  Counters: syndromes and
    leaders (patterns) of the table, 0 without one; words decoded by_table
    and scanned.
    """

    def __init__(self, book, n: int, words: int, radius: float | None = None):
        self.book = book = np.asarray(book, dtype=np.int64)
        self.radius = radius
        self.syndromes = self.leaders = self.by_table = self.scanned = 0
        self._table = None
        if not book.size or book.size & (book.size - 1):
            return
        k = book.size.bit_length() - 1
        gens = book[1 << np.arange(k)]
        basis = _echelon(gens.tolist())
        free = [b for b in range(n) if b not in basis]
        within = -1 if radius is None else math.floor(min(radius, n))
        cost = ((1 << len(free)) + sum(math.comb(n, w) for w in range(within + 1))) * n
        budget = min(words * book.size, _TABLE_CELLS)
        if cost > budget or not np.array_equal(book, _span(gens)):
            return
        # single-bit syndromes: a free bit is itself, a pivot bit its row's free bits
        syn1 = np.zeros(-(-n // 8) * 8, dtype=np.int64)
        for j, b in enumerate(free):
            syn1[b] = 1 << j
        for pivot, row in basis.items():
            syn1[pivot] = sum(1 << j for j, b in enumerate(free) if row >> b & 1)
        table = _leaders(syn1[:n], 1 << len(free), within, budget)
        if table is None:
            return
        order = np.argsort(book, kind="stable")
        keys = book[order]
        first = np.ones(keys.size, dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        self._syn_bytes = np.stack([_span(syn1[b : b + 8]) for b in range(0, syn1.size, 8)])
        self._keys, self._first = keys[first], order[first]
        self._copies = 1 << (k - len(basis))
        self._table = table
        self.syndromes, self.leaders = 1 << len(free), table[2].size

    def __call__(self, received, radius: float | None = None):
        received = np.asarray(received, dtype=np.int64).ravel()
        if self._table is None or radius not in (None, self.radius) or not received.size:
            self.scanned += received.size
            return nearest_codeword(self.book, received, radius)
        self.by_table += received.size
        counts, starts, patterns, near = self._table
        syn = np.zeros(received.size, dtype=np.int64)
        for byte, tab in enumerate(self._syn_bytes):
            syn ^= tab[(received >> 8 * byte) & 255]
        count = counts[syn]
        firsts = np.cumsum(count) - count
        ids = np.arange(firsts[-1] + count[-1]) - np.repeat(firsts - starts[syn], count)
        words = np.repeat(received, count) ^ patterns[ids]
        index = np.minimum.reduceat(self._first[np.searchsorted(self._keys, words)], firsts)
        if radius is None:
            return index, count * self._copies > 1
        return index, near[syn] * self._copies != 1


def _leaders(syn1: np.ndarray, size: int, within: int, budget: int):
    """Coset-leader table of the single-bit syndromes syn1 over `size` syndromes.

    Returns (counts, starts, patterns, near): each syndrome's minimal
    patterns are patterns[starts[s] : starts[s] + counts[s]], and near[s]
    counts its patterns of weight <= within.  Levels up to weight `within`
    keep every pattern, later levels only the minimal ones.  Returns None
    once the levels have cost more than budget cells.
    """
    n = syn1.size
    weight = np.full(size, -1, dtype=np.int8)
    weight[0] = 0
    pats = syns = np.zeros(1, dtype=np.int64)
    tops = np.full(1, -1, dtype=np.int64)
    found_p, found_s, near = [pats], [syns], [syns] if within >= 0 else []
    w = spent = 0
    covered = 1
    while w < n and (covered < size or w < within):
        w += 1
        spent += pats.size * n
        if spent > budget:
            return None
        level = []
        for b in range(n):
            up = tops < b
            p, s = pats[up] | (1 << b), syns[up] ^ syn1[b]
            if w > within:
                new = weight[s] < 0
                p, s = p[new], s[new]
            level.append((p, s, np.full(p.size, b)))
        pats, syns, tops = (np.concatenate(part) for part in zip(*level))
        if w <= within:
            near.append(syns)
        new = weight[syns] < 0
        weight[syns[new]] = w
        covered = np.count_nonzero(weight >= 0)
        found_p.append(pats[new])
        found_s.append(syns[new])
        if w >= within:
            pats, syns, tops = pats[new], syns[new], tops[new]
    syns = np.concatenate(found_s)
    order = np.argsort(syns, kind="stable")
    counts = np.bincount(syns, minlength=size)
    starts = np.cumsum(counts) - counts
    near = np.bincount(np.concatenate(near), minlength=size) if near else np.zeros(size, np.int64)
    return counts, starts, np.concatenate(found_p)[order], near
