"""Block-Markov feedback simulation and codebook-structure metrics.

All three encoders share one uniformly drawn binary generator matrix.
Fresh messages ride the first channel component; the second component
carries one-block-delayed retransmissions from users 1 and 2 while user 3
sends its estimate of the bitwise message sum, recovered from the fed-back
first-component output after cancelling its own codeword.  The receiver
unwinds each message block in three steps: recover the two retransmitted
messages from the next block's pair component, cancel their sum from the
stored first-component output, then read off the third message.

The sumset helpers measure why the matched codebooks matter: a shared
linear code keeps the sum-candidate set as small as the code itself,
while independent codebooks nearly square it.

Every decoder here runs on gfcore's packed binary-code kernel: codewords
are int64 keys indexed by message.  The feedback run and the point-to-point
reference decode their one linear book by syndrome, through a coset-leader
table built once per book (gfcore.CosetDecoder, which keeps the popcount
scan where the table would cost more); the codebook probe searches Hamming
balls over the sum set.  Each block's channel-2 input needs the previous
block's sum decode, so the forward and feedback pass of the feedback run
speculates and verifies a chunk of blocks at a time (see
run_fb_simulation); the receiver pass and the point-to-point reference
decode all blocks at once.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np

from .channels import build_fb_parallel_channel
from .coding import SimReport, wilson_interval
from .gfcore import (
    MAX_PACKED_BITS,
    CosetDecoder,
    distinct_keys,
    nearest_in_set,
    pack_bits,
    sample_uniform_matrix,
    unpack_bits,
    xor_closure,
    xor_codebook,
)
from .probcore import _pinned_cdf, check_cells, sample_given
from .rng import stream, sub_seeds, tally, uniforms

__all__ = [
    "MAX_SUM_MESSAGE_BITS",
    "MAX_SUMSET_PAIRS",
    "FBConfig",
    "FBReport",
    "SumsetReport",
    "ProbeRow",
    "ProbeReport",
    "linear_codebook",
    "sumset",
    "run_fb_simulation",
    "ptp_simulation",
    "structure_necessity_probe",
]

MAX_SUM_MESSAGE_BITS = 20  # exhaustive decoders enumerate 2^k candidates
MAX_SUMSET_PAIRS = 10**8  # pairwise-XOR enumeration guard
# Channel uses per chunk of the feedback run's speculate-and-verify pass, and
# so the doubles drawn per uniforms call: a whole run's noise held through the
# forward pass leaves a heap hole that the receiver pass cannot reuse, raising
# the run's peak RSS.
_NOISE_CHUNK = 1 << 15

_LOG = logging.getLogger("trimac")
_EVENT_KINDS = ("sum", "pair", "third", "message")


@dataclass(frozen=True)
class FBConfig:
    """Run parameters; each of the three messages carries k bits per block."""

    k: int
    n: int
    blocks: int
    delta: float
    seed: int

    def __post_init__(self) -> None:
        if not 1 <= self.k <= self.n:
            raise ValueError("need 1 <= k <= n")
        if self.k > MAX_SUM_MESSAGE_BITS:
            raise ValueError(
                f"k > {MAX_SUM_MESSAGE_BITS} puts 2^k beyond the exhaustive decoders"
            )
        if self.n > MAX_PACKED_BITS:
            raise ValueError(f"words longer than {MAX_PACKED_BITS} bits do not pack into int64")
        if self.blocks < 2:
            raise ValueError("need at least two blocks to deliver a message")
        check_cells((self.blocks + 1, 3, self.n))  # the run's codeword bits
        if not 0.0 <= self.delta < 0.5:
            raise ValueError("delta must lie in [0, 1/2)")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")

    @property
    def rate(self) -> float:
        return self.k / self.n


@dataclass(frozen=True)
class SumsetReport:
    """Codebook sizes, their pairwise-XOR set size; the JSON keys are these and gap_bits_per_use."""

    n: int
    size_a: int
    size_b: int
    size_sum: int

    @property
    def gap(self) -> float:
        """Extra decoding rate forced by the sum set, in bits per channel use."""
        return abs(math.log2(self.size_sum) - math.log2(self.size_a)) / self.n

    def to_json(self) -> dict:
        return {**asdict(self), "gap_bits_per_use": self.gap}


@dataclass(frozen=True)
class FBReport:
    """Per-block error indicators for one feedback run.

    Entries cover message blocks 1..blocks-1; the final block only carries
    retransmissions, so its fresh messages are never delivered.  ``sum`` is
    user 3's decode of the message sum off the feedback, ``pair`` the
    receiver's decode of the two retransmitted messages, ``third`` the
    receiver's decode of the remaining message after cancellation.  A
    delivered triple counts as wrong when either receiver step fails; sum
    errors poison the next block's pair component rather than their own,
    so they are tallied separately.  ``decoder`` is the run's decoder of
    its seeded book, for ptp_simulation to reuse; it is not part of the
    report's value or JSON.
    """

    config: FBConfig
    sum_errors: tuple[int, ...]
    pair_errors: tuple[int, ...]
    third_errors: tuple[int, ...]
    code_sumset: SumsetReport | None
    decoder: CosetDecoder | None = field(default=None, repr=False, compare=False)

    @property
    def delivered(self) -> int:
        return len(self.sum_errors)

    @cached_property
    def message_errors(self) -> tuple[int, ...]:
        return tuple(max(p, t) for p, t in zip(self.pair_errors, self.third_errors))

    def events(self, kind: str) -> tuple[int, ...]:
        table = {
            "sum": self.sum_errors,
            "pair": self.pair_errors,
            "third": self.third_errors,
            "message": self.message_errors,
        }
        try:
            return table[kind]
        except KeyError:
            raise ValueError(f"unknown event kind {kind!r}") from None

    def error_rate(self, kind: str = "message") -> float:
        events = self.events(kind)
        return sum(events) / len(events)

    def error_ci(self, kind: str = "message") -> tuple[float, float]:
        events = self.events(kind)
        return wilson_interval(sum(events), len(events))

    def to_json(self) -> dict:
        out = {
            "config": asdict(self.config),
            "delivered_blocks": self.delivered,
            "events": {},
            "code_sumset": None if self.code_sumset is None else self.code_sumset.to_json(),
        }
        for kind in _EVENT_KINDS:
            events = self.events(kind)
            lo, hi = wilson_interval(sum(events), len(events))
            out["events"][kind] = {
                "errors": sum(events),
                "rate": sum(events) / len(events),
                "ci_lo": lo,
                "ci_hi": hi,
            }
        return out


@dataclass(frozen=True)
class ProbeRow:
    """One arm of the paired sum-decoding comparison; the JSON keys are the fields."""

    scheme: str
    trials: int
    errors: int
    p_hat: float
    ci_lo: float
    ci_hi: float
    sumset: SumsetReport

    def to_json(self) -> dict:
        return {**asdict(self), "sumset": self.sumset.to_json()}


@dataclass(frozen=True)
class ProbeReport:
    """Matched-rate comparison of codebook pairings for sum decoding; JSON keys are the fields."""

    k: int
    n: int
    delta: float
    trials: int
    seed: int
    rows: tuple[ProbeRow, ...]

    def row(self, scheme: str) -> ProbeRow:
        for row in self.rows:
            if row.scheme == scheme:
                return row
        raise KeyError(scheme)

    def to_json(self) -> dict:
        return {**asdict(self), "rows": [row.to_json() for row in self.rows]}


def _bit_rows(code) -> np.ndarray:
    arr = np.asarray(code, dtype=np.int64)
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError("codebook must be a nonempty 2-D bit array")
    if not np.isin(arr, (0, 1)).all():
        raise ValueError("codebook entries must be bits")
    return arr


def _closure(keys_a: np.ndarray, keys_b: np.ndarray, n: int) -> tuple[SumsetReport, np.ndarray]:
    """Sumset report of two packed codebooks and their sorted XOR closure."""
    set_a, set_b = distinct_keys(keys_a), distinct_keys(keys_b)
    if set_a.size * set_b.size > MAX_SUMSET_PAIRS:
        raise ValueError("pairwise enumeration above guard; shrink the codebooks")
    closure = xor_closure(set_a, set_b)
    report = SumsetReport(n, int(set_a.size), int(set_b.size), int(closure.size))
    if not max(report.size_a, report.size_b) <= report.size_sum <= report.size_a * report.size_b:
        raise RuntimeError(
            f"sumset size {report.size_sum} outside [max(|A|, |B|), |A||B|] for "
            f"|A| = {report.size_a}, |B| = {report.size_b}"
        )
    return report, closure


def linear_codebook(generator) -> np.ndarray:
    """All 2^k codewords spanned by the rows of a binary generator.

    Row i is the codeword of message i (bits of i, most significant first),
    so duplicate words appear whenever the generator is rank deficient.
    """
    g = np.asarray(generator)
    if g.ndim == 2 and g.shape[0] > MAX_SUM_MESSAGE_BITS:
        raise ValueError(f"refusing to enumerate more than 2^{MAX_SUM_MESSAGE_BITS} codewords")
    return unpack_bits(xor_codebook(g), g.shape[-1])


def _seeded_linear_book(k: int, n: int, seed: int) -> np.ndarray:
    """Codeword keys of the run's uniform binary k x n generator, from path (60,)'s sub-seed."""
    return xor_codebook(sample_uniform_matrix(2, k, n, int(sub_seeds(seed, [(60,)])[0])))


def sumset(code_a, code_b) -> SumsetReport:
    """Exact pairwise-XOR set of two binary codebooks (rows are words).

    Duplicate words collapse before counting, and the bracket
    max(|A|,|B|) <= |A xor B| <= |A|*|B| is checked on every call.
    """
    rows_a, rows_b = _bit_rows(code_a), _bit_rows(code_b)
    if rows_a.shape[1] != rows_b.shape[1]:
        raise ValueError("codebooks must share a word length")
    return _closure(pack_bits(rows_a), pack_bits(rows_b), rows_a.shape[1])[0]


def _receive(book: np.ndarray, y_first: np.ndarray, y_pair: np.ndarray, msgs: np.ndarray,
             decode):
    """Receiver pass over every delivered block: pair and third error flags.

    Keys throughout: y_first (blocks,), y_pair (blocks, 2) and the message
    indices msgs (blocks, 3).  Block b's retransmissions arrive in block
    b + 1's pair component; the pair likelihood factorizes under the
    clean-state model, so per-user nearest-codeword search is the joint ML
    decision.  Cancelling both decoded words from the stored first
    component leaves the third message.  decode(received) is the book's
    nearest_codeword decoder.
    """
    i1, t1 = decode(y_pair[1:, 0])
    i2, t2 = decode(y_pair[1:, 1])
    sent = msgs[:-1]
    pair = t1 | t2 | (i1 != sent[:, 0]) | (i2 != sent[:, 1])
    i3, t3 = decode(y_first[:-1] ^ book[i1] ^ book[i2])
    third = t3 | (i3 != sent[:, 2])
    return pair, third


def run_fb_simulation(
    config: FBConfig, sum_decoder: str = "ml", typicality_margin: float = 0.08
) -> FBReport:
    """Run one feedback simulation and tally per-block error events.

    ``sum_decoder`` picks how user 3 recovers the message sum: "ml" is an
    exact nearest-codeword decode over all 2^k candidates, "typicality"
    accepts only a unique codeword within radius n*(delta + margin) and
    declares failure otherwise.  Either way user 3 transmits the nearest
    codeword, so the channel-2 state stays well defined after a failure.

    Block b's channel-2 input carries user 3's decode of block b - 1's sum,
    and that decode reads only block b - 1's first-component output.  That
    output is 1 exactly when cdf[x, 3] <= u for input cell x (sample_given's
    rule: the drawn symbol is count(cdf <= u)), so it sees the channel-2
    inputs only through round-off in the pinned CDF entry.  So each chunk of blocks runs
    as one speculate-and-verify pass: take every channel-2 word to be the
    clean state, look up the chunk's first-component outputs at once, decode
    every sum in one call, rebuild the channel-2 words from those decodes and
    look the outputs up again, until they stop changing.  Each round fixes
    at least one more leading block, so the pass ends on the block loop's
    unique fixed point, bit for bit.  Only user 3's last channel-2 word
    carries from one chunk to the next.
    """
    if sum_decoder not in ("ml", "typicality"):
        raise ValueError("sum_decoder must be 'ml' or 'typicality'")
    if typicality_margin <= 0.0:
        raise ValueError("typicality_margin must be positive")
    start = tally()
    k, n, blocks = config.k, config.n, config.blocks
    book = _seeded_linear_book(k, n, config.seed)
    # row x of the table is the output law of the flat input cell x = (x1*4 + x2)*4 + x3;
    # y >> 2 is 1 exactly where its pinned CDF at output 3 is <= u
    table = build_fb_parallel_channel(config.delta).transition.table.reshape(64, 8)
    cdf3 = _pinned_cdf(table)[:, 3]
    msgs = pack_bits(stream(config.seed, 61).integers(0, 2, size=(blocks, 3, k)))
    # bits[b + 1] holds block b's three first-component codewords, bits[0] zero words
    bits = unpack_bits(np.concatenate((np.zeros((1, 3), dtype=np.int64), book[msgs])), n)
    clean = book[msgs[:, 0]] ^ book[msgs[:, 1]]  # user 3's word after a correct sum decode
    radius = None if sum_decoder == "ml" else n * (config.delta + typicality_margin)
    # about one sum decode per block, and three receiver decodes
    decode = CosetDecoder(book, n, 4 * (blocks - 1), radius)
    # block b's n channel uses take the uniforms of stream(s), s the sub-seed of path
    # (62, b), as transmit(..., s) draws them: every block's sub-seed in one kernel
    # call, the uniforms for a chunk of blocks per call
    noise_seeds = sub_seeds(config.seed, np.stack((np.full(blocks, 62), np.arange(blocks)), axis=1))
    chunk = max(1, _NOISE_CHUNK // n)

    y = np.empty((blocks, n), dtype=np.int64)
    sum_errors = np.zeros(blocks - 1, dtype=bool)
    hat = np.zeros(1, dtype=np.int64)  # user 3's last channel-2 word; block 0 sends zeros
    rounds = 0
    for lo in range(0, blocks, chunk):
        hi = min(lo + chunk, blocks)
        u = uniforms(noise_seeds[lo:hi], np.empty((hi - lo, 0), dtype=np.int64), n)
        # every input bit of the chunk's cells but user 3's channel-2 bit: users 1
        # and 2 resend their previous first-component words on channel 2
        prev, cur = bits[lo:hi], bits[lo + 1:hi + 1]
        base = 16 * (2 * cur[:, 0] + prev[:, 0]) + 4 * (2 * cur[:, 1] + prev[:, 1]) + 2 * cur[:, 2]
        sent = msgs[lo:min(hi, blocks - 1)]  # the blocks whose sum user 3 decodes
        hats = np.concatenate((hat, clean[lo:hi - 1]))  # speculate: every sum decoded right
        ones = cdf3[base + unpack_bits(hats, n)] <= u  # the first-component bits y >> 2
        while True:
            # feedback leg: cancel own codeword, decode the running sums
            z = pack_bits(ones[:sent.shape[0]]) ^ book[sent[:, 2]]
            idx, failed = decode(z, radius)
            rounds += 1
            hats = np.concatenate((hat, book[idx[:hi - lo - 1]]))
            cell = base + unpack_bits(hats, n)
            check = cdf3[cell] <= u
            if np.array_equal(check, ones):
                break
            ones = check
        y[lo:hi] = sample_given(table, (cell,), u)
        if idx.size:
            errors = sum_errors[lo:lo + idx.size]
            errors[:] = failed | (idx != sent[:, 0] ^ sent[:, 1])
            # a correct sum decode must leave channel 2 in the clean state
            unclean = ~errors & (book[idx] != clean[lo:lo + idx.size])
            if unclean.any():
                block = lo + 1 + int(np.argmax(unclean))
                raise RuntimeError(f"block {block}: correct sum decode left channel 2 unclean")
            hat = book[idx[-1:]]
    del u, base, ones, check, cell  # the receiver pass sets the run's memory peak

    y_pair = np.stack((pack_bits((y >> 1) & 1), pack_bits(y & 1)), axis=1)
    pair_errors, third_errors = _receive(book, pack_bits(y >> 2), y_pair, msgs, decode)

    code_sumset = None
    if 4**k <= MAX_SUMSET_PAIRS:
        # the book is the span of its rows, so it is its own XOR closure
        size = int(distinct_keys(book).size)
        code_sumset = SumsetReport(n, size, size, size)
    streams, calls = np.subtract(tally(), start)
    _LOG.debug("fb run: %d words decoded by table, %d scanned, %d syndromes, %d leader "
               "patterns, %d keyed streams drawn, %d kernel calls, %d verify rounds",
               decode.by_table, decode.scanned, decode.syndromes, decode.leaders,
               streams, calls, rounds)
    events = (tuple(e.astype(np.int64).tolist()) for e in (sum_errors, pair_errors, third_errors))
    return FBReport(config, *events, code_sumset, decode)


def ptp_simulation(config: FBConfig, decode: CosetDecoder | None = None) -> SimReport:
    """Single-user BSC(delta) run with the same linear code.

    User 3's feedback leg sees exactly this channel: the first component
    XORs the three codewords and flips each bit with probability delta,
    and user 3 cancels its own word before decoding.  The trial count is
    the feedback run's delivered blocks, blocks - 1 (at least 1).  decode
    is the feedback run's decoder of the config's book (FBReport.decoder);
    without it the book and its decoder are built here.  Either way every
    decode is nearest_codeword's, so the report is the same.
    """
    trials = config.blocks - 1
    if decode is None:
        decode = CosetDecoder(_seeded_linear_book(config.k, config.n, config.seed), config.n,
                              trials)
    elif decode.book.size != 1 << config.k:
        raise ValueError(f"the decoder's book does not hold 2^{config.k} codewords")
    book = decode.book
    sent = pack_bits(stream(config.seed, 63).integers(0, 2, size=(trials, config.k)))
    noise = stream(config.seed, 64).random((trials, config.n)) < config.delta
    idx, tie = decode(book[sent] ^ pack_bits(noise))
    errors = int(np.count_nonzero(tie | (idx != sent)))
    lo, hi = wilson_interval(errors, trials)
    return SimReport(
        config.n, trials, errors, errors / trials, lo, hi, config.seed,
        "identical-linear-ptp", "bsc",
    )


def _sum_trials(
    book_a: np.ndarray,
    book_b: np.ndarray,
    members: np.ndarray,
    n: int,
    delta: float,
    trials: int,
    rng: np.random.Generator,
) -> tuple[int, int]:
    """Word-level sum-decoding errors over the exact candidate set.

    The draws run in chunks of 2^22 // |members| trials, interleaving the
    two codeword indices and the noise per chunk; the chunk schedule fixes
    the error count for a seed.  Returns the errors and the number of
    trials the ball search left to a scan.
    """
    chunk = max(1, (1 << 22) // max(1, members.size))
    truth, received = [], []
    for done in range(0, trials, chunk):
        m = min(chunk, trials - done)
        ia = rng.integers(0, book_a.size, size=m)
        ib = rng.integers(0, book_b.size, size=m)
        sums = book_a[ia] ^ book_b[ib]
        truth.append(sums)
        received.append(sums ^ pack_bits(rng.random((m, n)) < delta))
    decoded, tie, scanned = nearest_in_set(members, np.concatenate(received), n)
    errors = int(np.count_nonzero(tie | (decoded != np.concatenate(truth))))
    return errors, int(np.count_nonzero(scanned))


def structure_necessity_probe(
    k: int, n: int, delta: float, trials: int, seed: int
) -> ProbeReport:
    """Compare matched linear codebooks against independent random ones.

    Both arms repeat user 3's feedback task: recover the XOR of two
    codewords from n BSC(delta) observations, searching the exact set of
    possible sums.  Sharing one generator keeps that set as small as the
    code itself; independent books hand the decoder nearly the squared
    count.  Errors are scored at the word level (decoded sum word wrong
    or tied), which keeps the two arms comparable.
    """
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    if n > MAX_PACKED_BITS:
        raise ValueError(f"words longer than {MAX_PACKED_BITS} bits do not pack into int64")
    if not 0.0 <= delta < 0.5:
        raise ValueError("delta must lie in [0, 1/2)")
    if trials < 1:
        raise ValueError("trials must be positive")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    if 4**k > MAX_SUMSET_PAIRS:  # checked before either arm's books are drawn
        raise ValueError(f"2^{k} x 2^{k} codeword pairs exceed the {MAX_SUMSET_PAIRS} pair guard")
    linear = _seeded_linear_book(k, n, seed)
    random_books = pack_bits(stream(seed, 65).integers(0, 2, size=(2, 2**k, n)))
    arms = (
        ("identical-linear", linear, linear),
        ("independent-random", random_books[0], random_books[1]),
    )
    rows = []
    scanned = cells = 0
    for arm, (scheme, book_a, book_b) in enumerate(arms):
        report, members = _closure(book_a, book_b, n)
        errors, fell_back = _sum_trials(
            book_a, book_b, members, n, delta, trials, stream(seed, 66, arm))
        scanned += fell_back
        cells += fell_back * members.size
        lo, hi = wilson_interval(errors, trials)
        rows.append(ProbeRow(scheme, trials, errors, errors / trials, lo, hi, report))
    _LOG.debug(
        "codebook probe: %d decodes, %d popcount cells scored, %d trials resolved by "
        "ball search, %d scanned", 2 * trials, cells, 2 * trials - scanned, scanned,
    )
    return ProbeReport(k, n, delta, trials, seed, tuple(rows))
