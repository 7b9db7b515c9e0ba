"""Block coding schemes for the three-user MAC with correlated sources.

Two scheme families:

  * linear: identical affine maps x_i = s_i G + b_i with one shared square
    uniform matrix and zero-sum offsets, so the transmitted triple is
    zero-sum at every position;
  * unstructured: independent random codebooks, one codeword per source
    block, entries drawn symbolwise from per-user conditionals.

A scheme is one expansion: it maps the three users' (rows_i, n) stacks of
source blocks to their codewords in one call, every random row drawn from
its own stream keyed by (scheme seed, user tag, block content), so any
block re-expands to the same codeword and nothing is memoized.  The
generic ML decoder reads its candidates off a CandidateSpace, built once
per (source, n) and shared by a run's decodes; per call it expands every
user's distinct blocks in one expansion into tables, then scores the
candidates chunk by chunk, reading their codewords off the tables.
Decoders return a DecodeResult; ties and zero likelihood are failures,
never silent guesses.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from .channels import DMChannel, transmit
from .gfcore import (
    pack_bits,
    sample_uniform_matrix,
    sample_zero_sum_offsets,
    unpack_bits,
    xor_codebook,
)
from .probcore import check_cells, marginalize, mixed_radix, radix_ids, row_sums, sample_given
from .rng import sub_seeds, tally, uniforms
from .sources import SourceModel, sample_iid

__all__ = [
    "CodingScheme",
    "DecodeResult",
    "SimReport",
    "build_linear_jscc",
    "build_unstructured_jscc",
    "check_conditionals",
    "CandidateSpace",
    "candidate_space",
    "ml_decode",
    "ml_decode_additive_pair",
    "monte_carlo_error",
    "wilson_interval",
    "check_decode_cost",
]

MAX_CANDIDATES = 2**26
# Candidate-positions (support^n candidates times n positions, summed over a
# run's decodes) the generic decoder may score in one run: 30-50 s at the
# 120-200M candidate-positions/s ml_decode scored at n = 10-12 (support 4,
# quaternary channel, one thread, on the run's candidate space), plus the
# space's one build (0.1 s at n = 10, about 2 s at n = 12), on a 2-vCPU VM
# with numpy 2.4.6.
MAX_DECODE_WORK = 6 * 10**9
# Cells (candidate rows times n) per scoring chunk of the generic decoder,
# and per prior chunk of candidate_space.  A decode's chunk buffers (two of
# int32 offsets, one of float64 log terms) then take 1 MiB, inside a 2 MiB
# L2 cache.  On that VM one decode ran fastest at 2^15-2^17 cells: at
# n = 8, 10 and 12 it took 2.2x, 1.5x and 1.15x less time than at 2^21
# cells; smaller chunks pay numpy's per-call cost more often.
_CHUNK = 1 << 16

_LOG = logging.getLogger("trimac")


@dataclass
class CodingScheme:
    """A block scheme; expand(stacks) maps the three users' (rows_i, n) stacks
    of source blocks to their (rows_i, n) codewords.  Row counts may differ
    between users, and a stack may be empty."""

    kind: str
    n: int
    source: SourceModel
    expand: Callable[[tuple], tuple]
    meta: dict = field(default_factory=dict)

    def encode(self, s1, s2, s3):
        """Every user's codewords, on one block each or on stacks of blocks."""
        blocks = [np.asarray(s, dtype=np.int64) for s in (s1, s2, s3)]
        books = self.expand(tuple(s.reshape(-1, s.shape[-1]) for s in blocks))
        return tuple(x.reshape(s.shape) for x, s in zip(books, blocks))


@dataclass(frozen=True)
class DecodeResult:
    """Decoded blocks, or the failure; popcount_cells counts the packed distances scored
    and candidates the candidate blocks a generic decoder scored."""

    blocks: tuple | None
    failure: str | None = None
    popcount_cells: int = field(default=0, compare=False)
    candidates: int = field(default=0, compare=False)

    @property
    def ok(self) -> bool:
        return self.failure is None


def build_linear_jscc(source: SourceModel, q: int, n: int, seed: int) -> CodingScheme:
    """Identical affine scheme: one uniform n x n matrix from stream (seed, 0),
    three zero-sum offset rows from stream (seed, 1)."""
    if any(s > q for s in source.sizes):
        raise ValueError("source symbols must embed into Z_q")
    if n < 1:
        raise ValueError("block length must be positive")
    g = sample_uniform_matrix(q, n, n, seed, 0)
    offsets = sample_zero_sum_offsets(q, n, 3, seed, 1)

    def expand(stacks: tuple) -> tuple:
        return tuple((s @ g + b) % q for s, b in zip(stacks, offsets))

    return CodingScheme(
        kind="linear-jscc",
        n=n,
        source=source,
        expand=expand,
        meta={"q": q, "matrix": g, "offsets": offsets, "seed": seed},
    )


def check_conditionals(source: SourceModel, conditionals) -> list[np.ndarray]:
    """The three (|S_i|, |X_i|) conditional tables as float arrays; raises unless
    table i has one row per symbol of source i and every row sums to 1 within 1e-12."""
    tables = [np.asarray(t, dtype=np.float64) for t in conditionals]
    if len(tables) != 3:
        raise ValueError("need three conditional tables")
    for t, s in zip(tables, source.sizes):
        if t.ndim != 2 or t.shape[0] != s:
            raise ValueError("conditional rows must match source alphabet")
        if np.abs(t.sum(axis=1) - 1.0).max() > 1e-12:
            raise ValueError("conditional rows must sum to 1")
    return tables


def build_unstructured_jscc(source: SourceModel, conditionals, n: int, seed: int) -> CodingScheme:
    """Independent random codebooks with symbolwise conditional draws; user i's
    codeword for block s is drawn from stream (seed, i - 1, *s), every user's
    streams in one rng.uniforms call."""
    tables = check_conditionals(source, conditionals)

    def expand(stacks: tuple) -> tuple:
        paths = np.concatenate([np.column_stack((np.full(len(s), tag, dtype=np.int64), s))
                                for tag, s in enumerate(stacks)])
        u = uniforms(seed, paths, paths.shape[1] - 1)
        parts = np.split(u, np.cumsum([len(s) for s in stacks[:-1]]))
        return tuple(sample_given(t, (s,), part) for t, s, part in zip(tables, stacks, parts))

    return CodingScheme(
        kind="unstructured-jscc",
        n=n,
        source=source,
        expand=expand,
        meta={"conditionals": tables, "seed": seed},
    )


def check_decode_cost(support: int, n: int, decodes: int) -> int:
    """support^n, the candidates of one generic decode at block length n.

    Raises, before any work is spent, when one decode passes MAX_CANDIDATES
    or `decodes` decodes pass MAX_DECODE_WORK candidate-positions.
    """
    total = support**n
    if total > MAX_CANDIDATES:
        raise ValueError(f"candidate space {total} at n = {n} exceeds the {MAX_CANDIDATES} guard")
    work = total * n * decodes
    if work > MAX_DECODE_WORK:
        raise ValueError(
            f"{decodes} decodes of {total} candidates at n = {n} score {work} "
            f"candidate-positions, past the {MAX_DECODE_WORK} work cap"
        )
    return total


@dataclass(frozen=True, eq=False)
class CandidateSpace:
    """The support^n candidate blocks of one (source, n), built once per run.

    With m support rows and half = n // 2, candidate c = h * m**(n - half) + l
    has the digit row mixed_radix(c, m, n) (indices into `support`), and user
    i's block is row hi[i][h] + lo[i][l] of blocks[i], the user's k_i^n
    distinct source blocks in mixed_radix order: hi[i] holds the ids of the
    first half positions' digits times k_i**(n - half), lo[i] those of the
    rest.  log_prior[c] is the candidate's summed log prior.  Nothing in it
    depends on y or on the scheme, so a run's worker threads share one.
    """

    source: SourceModel
    n: int
    support: np.ndarray
    blocks: tuple
    hi: tuple
    lo: tuple
    log_prior: np.ndarray

    @property
    def chunk(self) -> int:
        """Candidates per chunk: whole hi rows, about _CHUNK // n candidates."""
        width = len(self.lo[0])
        return width * min(len(self.hi[0]), max(1, _CHUNK // (self.n * width)))

    def chunks(self):
        """(first candidate, per-user block ids) of runs of `chunk` candidates, the last shorter."""
        width = len(self.lo[0])
        rows = self.chunk // width
        for h in range(0, len(self.hi[0]), rows):
            yield h * width, [(hi[h:h + rows, None] + lo).ravel() for hi, lo in zip(self.hi, self.lo)]

    def blocks_of(self, candidate: int) -> tuple:
        """The three source blocks of one candidate."""
        digits = mixed_radix([candidate], len(self.support), self.n)[0]
        return tuple(self.support[:, i][digits] for i in range(3))


def candidate_space(source: SourceModel, n: int) -> CandidateSpace:
    """The candidate space every generic decode of `source` at block length n reads."""
    t0 = time.perf_counter()
    support = source.support()
    m = support.shape[0]
    total = check_decode_cost(m, n, 1)
    symbols, codes = zip(*(np.unique(support[:, i], return_inverse=True) for i in range(3)))
    for sym in symbols:
        check_cells((len(sym)**n, n))
    check_cells((total,))
    half = n // 2
    hi_digits = mixed_radix(np.arange(m**half), m, half)
    lo_digits = mixed_radix(np.arange(m**(n - half)), m, n - half)
    log_p = np.log(source.support_probs())
    log_prior = np.empty(total)
    step = max(1, _CHUNK // n)
    for start in range(0, total, step):
        digits = mixed_radix(np.arange(start, min(start + step, total)), m, n)
        log_prior[start:start + len(digits)] = row_sums(log_p[digits.T])
    space = CandidateSpace(
        source=source,
        n=n,
        support=support,
        blocks=tuple(sym[mixed_radix(np.arange(len(sym)**n), len(sym), n)] for sym in symbols),
        hi=tuple(radix_ids(code[hi_digits], len(sym)) * len(sym)**(n - half)
                 for code, sym in zip(codes, symbols)),
        lo=tuple(radix_ids(code[lo_digits], len(sym)) for code, sym in zip(codes, symbols)),
        log_prior=log_prior,
    )
    held = sum(a.nbytes for a in (support, *space.blocks, *space.hi, *space.lo, log_prior))
    _LOG.debug("candidate space n=%d: %d candidates, %d bytes held, built in %.4f s",
               n, total, held, time.perf_counter() - t0)
    return space


def _space_for(scheme: CodingScheme, n: int, space: CandidateSpace | None) -> CandidateSpace:
    """`space`, checked against the scheme's source and block length, or one built for them."""
    if n != scheme.n:
        raise ValueError("block length mismatch")
    if space is None:
        return candidate_space(scheme.source, n)
    if space.n != n or not np.array_equal(space.source.joint.probs, scheme.source.joint.probs):
        raise ValueError("candidate space was built for another source law or block length")
    return space


def _check_symbols(block: np.ndarray, size: int, name: str) -> None:
    """Raise unless every symbol lies in range(size): flat offsets would alias otherwise."""
    if block.size and (block.min() < 0 or block.max() >= size):
        raise ValueError(f"{name} symbols outside the channel's alphabet of {size}")


def ml_decode(channel: DMChannel, scheme: CodingScheme, y_block,
              space: CandidateSpace | None = None) -> DecodeResult:
    """Exact maximum a posteriori block decoding over the support candidates.

    Zero-prior blocks can never be the argmax, so enumerating support^n is
    exhaustive.  An exact score tie is a decode failure.  space is the run's
    candidate_space(scheme.source, n), built here unless passed in.  A
    candidate's score is its n log terms summed by row_sums over the columns
    of the chunk's term buffer, bit for bit numpy's sum of each row, plus its
    log prior: ties are decided on the same bits as by a per-row sum.
    """
    y = np.asarray(y_block, dtype=np.int64)
    n = y.shape[0]
    space = _space_for(scheme, n, space)
    with np.errstate(divide="ignore"):
        log_t = np.log(channel.transition.table)
    shape = log_t.shape
    # each user's codewords, and y, as int32 offsets into the flat log table
    # (check_cells keeps its size below 2^31)
    books = []
    for user, book in enumerate(scheme.expand(space.blocks), start=1):
        _check_symbols(book, shape[user - 1], f"X{user}")
        books.append((book * math.prod(shape[user:])).astype(np.int32))
    _check_symbols(y, shape[3], "Y")
    y = y.astype(np.int32)
    log_t = log_t.reshape(-1)

    # One chunk's offsets, gathered codeword rows and log terms, reused by
    # every chunk: freed temporaries of this size go back to the OS and are
    # faulted in again.  mode="clip" lets np.take write them unbuffered; no
    # index is clipped, since the ids index the space's blocks and the
    # offsets passed _check_symbols.
    flat = np.empty((space.chunk, n), dtype=np.int32)
    rows = np.empty_like(flat)
    terms = np.empty(flat.shape)
    best_score = -np.inf
    best = -1
    tie = False
    for start, ids in space.chunks():
        f, r, t = (buf[:len(ids[0])] for buf in (flat, rows, terms))
        np.take(books[0], ids[0], axis=0, out=f, mode="clip")
        np.take(books[1], ids[1], axis=0, out=r, mode="clip")
        f += r
        np.take(books[2], ids[2], axis=0, out=r, mode="clip")
        f += r
        f += y
        scores = row_sums(np.take(log_t, f, out=t, mode="clip").T)
        scores += space.log_prior[start:start + len(scores)]
        top = int(np.argmax(scores))
        top_score = float(scores[top])
        count = int((scores == top_score).sum())
        if top_score > best_score:
            best_score = top_score
            best = start + top
            tie = count > 1
        elif top_score == best_score:
            tie = True
    total = len(space.log_prior)
    if best_score == -np.inf:
        return DecodeResult(None, "zero-likelihood", candidates=total)
    if tie:
        return DecodeResult(None, "tie", candidates=total)
    return DecodeResult(space.blocks_of(best), candidates=total)


def ml_decode_additive_pair(channel: DMChannel, scheme: CodingScheme, y_block) -> DecodeResult:
    """Exact ML for the linear scheme on the additive-pair channel.

    With zero-sum affine inputs the channel stays in its clean state, the
    posterior factors across users 1 and 2, and the third block is their
    xor.  Requires a product law on (S1, S2); exactness against ml_decode
    is established in the tests.
    """
    if channel.kind != "additive-pair":
        raise ValueError("decoder specific to the additive-pair channel")
    if scheme.kind != "linear-jscc" or scheme.meta["q"] != 2:
        raise ValueError("decoder specific to binary linear schemes")
    delta = channel.params["delta"]
    if not 0.0 < delta < 0.5:
        raise ValueError("delta must lie in (0, 1/2) for finite log-likelihoods")
    src = scheme.source
    p12 = marginalize(src.joint, ("S1", "S2")).probs
    m1, m2 = p12.sum(axis=1), p12.sum(axis=0)
    if np.abs(p12 - np.outer(m1, m2)).max() > 1e-12:
        raise ValueError("(S1, S2) must be a product law")
    zero_sum = src.support()
    if not all(s3 == s1 ^ s2 for s1, s2, s3 in zero_sum):
        raise ValueError("source support must satisfy s3 = s1 xor s2")

    y = np.asarray(y_block, dtype=np.int64)
    if y.shape[0] != scheme.n:
        raise ValueError("block length mismatch")
    book = xor_codebook(scheme.meta["matrix"])  # cell cap checked before allocating
    weights = np.bitwise_count(np.arange(book.size, dtype=np.int64))
    noise_llr = float(np.log(delta) - np.log(1.0 - delta))

    decoded = []
    cells = 0
    for marg, b, y_obs in (
        (m1, scheme.meta["offsets"][0], y >> 1),
        (m2, scheme.meta["offsets"][1], y & 1),
    ):
        if not 0.0 < marg[1] < 1.0:
            raise ValueError("degenerate source marginal")
        # distance from codeword c G + b to y_obs, for every message c
        d = np.bitwise_count(book ^ pack_bits(b ^ y_obs))
        cells += book.size
        prior_llr = float(np.log(marg[1]) - np.log(marg[0]))
        scores = d * noise_llr + weights * prior_llr
        top = int(np.argmax(scores))
        if int((scores == scores[top]).sum()) > 1:
            return DecodeResult(None, "tie", popcount_cells=cells)
        decoded.append(unpack_bits(top, scheme.n))
    s1, s2 = decoded
    return DecodeResult((s1, s2, s1 ^ s2), popcount_cells=cells)


# The standard normal's 97.5 percent quantile: a two-sided 95 percent interval.
_WILSON_Z = 1.959963984540054


def wilson_interval(errors: int, trials: int) -> tuple[float, float]:
    """95 percent Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("trials must be positive")
    z = _WILSON_Z
    p = errors / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * np.sqrt(p * (1.0 - p) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, float(center - half)), min(1.0, float(center + half))


@dataclass(frozen=True)
class SimReport:
    """Errors and Wilson interval at one block length; its fields are the JSON keys and CSV row."""

    n: int
    trials: int
    errors: int
    p_hat: float
    ci_lo: float
    ci_hi: float
    seed: int
    scheme_kind: str
    channel_kind: str

    def to_json(self) -> dict:
        return asdict(self)


def monte_carlo_error(
    channel: DMChannel,
    scheme_factory: Callable[[int], CodingScheme],
    decoder: Callable,
    trials: int,
    seed: int,
    workers: int = 1,
) -> SimReport:
    """Block error rate of (scheme, decoder) over independent trials.

    Every trial draws fresh codebooks, a fresh source block and fresh
    channel noise, matching the random-coding ensembles; the source block
    is drawn from the scheme's own source, at its block length.  All
    randomness is derived from (seed, trial index), so the result is
    independent of the worker partition.  Trial t's scheme, source and
    noise seeds are the sub-seeds (rng.sub_seeds) of paths (t, 0), (t, 1)
    and (t, 2), every trial's drawn up front in one kernel call.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    seeds = sub_seeds(seed, np.stack(np.divmod(np.arange(3 * trials), 3), axis=1)).tolist()

    def run_trial(t: int) -> tuple:
        start = tally()
        scheme_seed, source_seed, noise_seed = seeds[3 * t:3 * t + 3]
        scheme = scheme_factory(scheme_seed)
        s = sample_iid(scheme.source, scheme.n, source_seed)
        x = scheme.encode(*s)
        y = transmit(channel, x, noise_seed)
        res = decoder(channel, scheme, y)
        wrong = not res.ok or not all(np.array_equal(a, b) for a, b in zip(res.blocks, s))
        # the tally is per thread, so a worker's trial counts only its own draws
        return (int(wrong), res.popcount_cells, res.candidates, np.subtract(tally(), start),
                scheme.kind, scheme.n)

    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(run_trial, range(trials)))
    else:
        outcomes = [run_trial(t) for t in range(trials)]
    wrong, cells, candidates, drawn, kinds, ns = zip(*outcomes)
    errors = sum(wrong)
    # plus the one kernel call that drew the 3 * trials sub-seeds
    streams, calls = np.sum(drawn, axis=0) + (3 * trials, 1)
    _LOG.debug(
        "monte_carlo_error n=%d: %d decodes, %d popcount cells scored, %d generic candidates "
        "scored, %d keyed streams drawn, %d kernel calls",
        ns[0], trials, sum(cells), sum(candidates), streams, calls,
    )

    lo, hi = wilson_interval(errors, trials)
    return SimReport(
        n=ns[0],
        trials=trials,
        errors=errors,
        p_hat=errors / trials,
        ci_lo=lo,
        ci_hi=hi,
        seed=seed,
        scheme_kind=kinds[0],
        channel_kind=channel.kind,
    )

