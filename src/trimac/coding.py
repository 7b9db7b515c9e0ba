"""Block coding schemes for the three-user MAC with correlated sources.

Four scheme families:

  * linear: identical affine maps x_i = s_i G + b_i with one shared square
    uniform matrix and zero-sum offsets, so the transmitted triple is
    zero-sum at every position;
  * unstructured: independent random codebooks, one codeword per source
    block, entries drawn symbolwise from per-user conditionals;
  * layered (conferencing): superposition codebooks on the mutual and
    pairwise common parts, then per-user codewords conditioned on the
    cloud centers;
  * hybrid: the layered construction plus an affine layer on the additive
    common part, with per-user codewords conditioned additionally on the
    affine layer.

The layered and hybrid schemes take their single-letter design law from
regions.three_user_factors, the same factor list their region evaluators
read, so the typicality decoder and the region rows share one law.

A scheme is one per-user expansion: it maps a user's (rows, n) stack of
source blocks to the user's codeword and layer blocks, every random row
drawn from its own stream keyed by (scheme seed, layer tag, block
content), so any block re-expands to the same codeword and nothing is
memoized.  The generic decoders read their candidates off a
CandidateSpace, built once per (source, n) and shared by a run's decodes;
per call they expand each user's distinct blocks once into a table and
read every candidate's codewords and layers off it.  Decoders return a
DecodeResult; ties and empty typical sets are failures, never silent
guesses.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from .channels import DMChannel, transmit
from .commonparts import additive_common_search, gkw_mutual, gkw_pairs
from .gfcore import (
    pack_bits,
    sample_uniform_matrix,
    sample_zero_sum_offsets,
    unpack_bits,
    xor_codebook,
)
from .probcore import (
    ConditionalPMF,
    JointPMF,
    chain_all,
    check_cells,
    marginalize,
    mixed_radix,
    radix_ids,
    sample_given,
)
from .regions import PAIRS, USER_PAIRS, _plane_probs, three_user_factors
from .rng import sub_seeds, tally, uniforms
from .sources import SourceModel, sample_iid

__all__ = [
    "CodingScheme",
    "DecodeResult",
    "SimReport",
    "build_linear_jscc",
    "build_unstructured_jscc",
    "build_layered_ces",
    "build_hybrid_scheme",
    "CandidateSpace",
    "candidate_space",
    "ml_decode",
    "ml_decode_additive_pair",
    "typicality_decode",
    "monte_carlo_error",
    "wilson_interval",
    "check_decode_cost",
]

MAX_CANDIDATES = 2**26
# Candidate-positions (support^n candidates times n positions, summed over a
# run's decodes) the generic decoders may score in one run: about a minute
# at the 103-123M candidate-positions/s ml_decode scored at n = 10-12
# (support 4, quaternary channel, one thread, the candidate-space build
# included) on a 2-vCPU VM with numpy 2.4.6.
MAX_DECODE_WORK = 6 * 10**9
# candidate rows scored per chunk by the generic decoders
_CHUNK = 1 << 18

_LOG = logging.getLogger("trimac")


@dataclass
class CodingScheme:
    """A block scheme; expand(user, blocks) maps a user's (rows, n) stack of
    source blocks to {"X<user>": codewords, layer name: layer blocks}."""

    kind: str
    n: int
    source: SourceModel
    expand: Callable[[int, np.ndarray], dict[str, np.ndarray]]
    design_joint_builder: Callable[[DMChannel], JointPMF]
    meta: dict = field(default_factory=dict)

    def _expanded(self, s1, s2, s3) -> list[dict]:
        """expand() of every user, on one block each or on stacks of blocks."""
        out = []
        for user, s in enumerate((s1, s2, s3), start=1):
            s = np.asarray(s, dtype=np.int64)
            rows = self.expand(user, s.reshape(-1, s.shape[-1]))
            out.append({name: arr.reshape(s.shape) for name, arr in rows.items()})
        return out

    def encode(self, s1, s2, s3):
        return tuple(d[f"X{u}"] for u, d in enumerate(self._expanded(s1, s2, s3), start=1))

    def layer_blocks(self, s1, s2, s3) -> dict:
        """Every layer block of the three users; a layer two users see is read from the first."""
        out = {}
        for user, d in enumerate(self._expanded(s1, s2, s3), start=1):
            for name, arr in d.items():
                if name != f"X{user}":
                    out.setdefault(name, arr)
        return out

    def design_joint(self, channel: DMChannel) -> JointPMF:
        return self.design_joint_builder(channel)


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


def _zero_sum_affine(q: int, n: int, seed: int, tag: int):
    """Uniform n x n matrix from stream (seed, tag); 3 zero-sum offset rows from (seed, tag + 1)."""
    return sample_uniform_matrix(q, n, n, seed, tag), sample_zero_sum_offsets(q, n, 3, seed, tag + 1)


def _draw(table: np.ndarray, given, seed: int, tag: int, content: np.ndarray) -> np.ndarray:
    """sample_given on stacked rows, row r from stream (seed, tag, *content[r])."""
    shape = np.shape(given[0])
    paths = np.column_stack((np.full(len(content), tag, dtype=np.int64), content))
    return sample_given(table, given, uniforms(seed, paths, math.prod(shape[1:])).reshape(shape))


def build_linear_jscc(source: SourceModel, q: int, n: int, seed: int) -> CodingScheme:
    """Identical affine scheme: one uniform n x n matrix, zero-sum offsets."""
    if any(s > q for s in source.sizes):
        raise ValueError("source symbols must embed into Z_q")
    if n < 1:
        raise ValueError("block length must be positive")
    g, offsets = _zero_sum_affine(q, n, seed, 0)

    def expand(user: int, blocks: np.ndarray) -> dict:
        return {f"X{user}": (blocks @ g + offsets[user - 1]) % q}

    def design_builder(channel: DMChannel) -> JointPMF:
        inputs = ConditionalPMF((), [("X1", q), ("X2", q), ("X3", q)], _plane_probs(q))
        return chain_all([ConditionalPMF.from_joint(source.joint), inputs, channel.transition])

    return CodingScheme(
        kind="linear-jscc",
        n=n,
        source=source,
        expand=expand,
        design_joint_builder=design_builder,
        meta={"q": q, "matrix": g, "offsets": offsets, "seed": seed},
    )


def build_unstructured_jscc(source: SourceModel, conditionals, n: int, seed: int) -> CodingScheme:
    """Independent random codebooks with symbolwise conditional draws."""
    tables = [np.asarray(t, dtype=np.float64) for t in conditionals]
    if len(tables) != 3:
        raise ValueError("need three conditional tables")
    for t, s in zip(tables, source.sizes):
        if t.ndim != 2 or t.shape[0] != s:
            raise ValueError("conditional rows must match source alphabet")
        if np.abs(t.sum(axis=1) - 1.0).max() > 1e-12:
            raise ValueError("conditional rows must sum to 1")

    def expand(user: int, blocks: np.ndarray) -> dict:
        return {f"X{user}": _draw(tables[user - 1], (blocks,), seed, user - 1, blocks)}

    def design_builder(channel: DMChannel) -> JointPMF:
        inputs = [
            ConditionalPMF([(f"S{i}", source.sizes[i - 1])], [(f"X{i}", t.shape[1])], t)
            for i, t in enumerate(tables, start=1)
        ]
        return chain_all([ConditionalPMF.from_joint(source.joint), *inputs, channel.transition])

    return CodingScheme(
        kind="unstructured-jscc",
        n=n,
        source=source,
        expand=expand,
        design_joint_builder=design_builder,
        meta={"conditionals": tables, "seed": seed},
    )


def _layered_scheme(kind: str, source: SourceModel, dist, n: int, seed: int,
                    affine: dict | None = None) -> CodingScheme:
    """Superposition encoders over the common parts, with codeword tags 4-7 and 10-12.

    affine, the hybrid's {"q", "matrix", "offsets", "additive_functions"},
    adds the layer T_i = f_i(S_i), V_i = T_i G + b_i on which X_i is also
    conditioned; it is kept in the scheme's meta.
    """
    mutual = gkw_mutual(source)
    pair_parts = gkw_pairs(source)
    u123 = np.asarray(dist.u123.probs, dtype=np.float64)[None, :]
    pair_tables = {b: np.asarray(dist.pair_conds[b].table) for b in PAIRS}
    for b in PAIRS:
        tab = pair_tables[b]
        want = pair_parts[b].component_count
        if tab.ndim != 3 or tab.shape[0] != want:
            raise ValueError(
                f"pair layer {b}: conditional must be indexed by the {want} "
                "common-part labels and the shared layer symbol"
            )
        if tab.shape[1] != u123.shape[1]:
            raise ValueError(f"pair layer {b}: shared-layer axis size mismatch")
    x_tables = [np.asarray(dist.x_conds[i].table) for i in range(3)]
    t_functions = None if affine is None else affine["additive_functions"]

    def expand(user: int, blocks: np.ndarray) -> dict:
        w123 = np.asarray(mutual.labelings[user - 1])[blocks]
        u = _draw(u123, (np.zeros_like(w123),), seed, 4, w123)
        out = {"W123": w123, "U123": u}
        given = [blocks, u]
        for b in USER_PAIRS[user]:
            w_b = np.asarray(pair_parts[b].labelings[0 if b[0] == str(user) else 1])[blocks]
            u_b = _draw(pair_tables[b], (w_b, u), seed, 5 + PAIRS.index(b),
                        np.concatenate((w_b, u), axis=1))
            out[f"W{b}"], out[f"U{b}"] = w_b, u_b
            given.append(u_b)
        if affine is not None:
            t = np.asarray(t_functions[user - 1])[blocks]
            v = (t @ affine["matrix"] + affine["offsets"][user - 1]) % affine["q"]
            out[f"T{user}"], out[f"V{user}"] = t, v
            given.append(v)
        out[f"X{user}"] = _draw(x_tables[user - 1], given, seed, 9 + user, blocks)
        return out

    return CodingScheme(
        kind=kind,
        n=n,
        source=source,
        expand=expand,
        design_joint_builder=lambda channel: chain_all(
            three_user_factors(source, channel, dist, t_functions)),
        meta={"seed": seed, **(affine or {})},
    )


def build_layered_ces(source: SourceModel, dist, n: int, seed: int) -> CodingScheme:
    """Conferencing superposition scheme from a CES distribution spec.

    dist must expose u123 (a one-axis JointPMF), pair_conds (dict over
    "12","13","23" of ConditionalPMF given (W_b, U123)), and x_conds (three
    ConditionalPMF given (S_i, U123, U_ij, U_ik)).
    """
    return _layered_scheme("layered-ces", source, dist, n, seed)


def build_hybrid_scheme(source: SourceModel, dist, n: int, seed: int) -> CodingScheme:
    """Layered scheme plus an affine layer on the additive common part.

    dist additionally exposes q and x_conds given (S_i, U123, U_ij, U_ik, V_i).
    The additive part must exist for the source at modulus q.
    """
    q = dist.q
    additive = additive_common_search(source, q)
    if not additive.found:
        raise ValueError(f"source has no additive common part over Z_{q}")
    g, offsets = _zero_sum_affine(q, n, seed, 20)
    affine = {"q": q, "matrix": g, "offsets": offsets, "additive_functions": additive.functions}
    return _layered_scheme("hybrid", source, dist, n, seed, affine)


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

    def chunks(self):
        """(first candidate, per-user block ids) of runs of whole hi rows, about _CHUNK each."""
        width = len(self.lo[0])
        rows = max(1, _CHUNK // width)
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
    for start in range(0, total, _CHUNK):
        digits = mixed_radix(np.arange(start, min(start + _CHUNK, total)), m, n)
        log_prior[start:start + len(digits)] = log_p[digits].sum(axis=1)
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
    candidate_space(scheme.source, n), built here unless passed in.
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
    for user, blocks in enumerate(space.blocks, start=1):
        book = scheme.expand(user, blocks)[f"X{user}"]
        _check_symbols(book, shape[user - 1], f"X{user}")
        books.append((book * math.prod(shape[user:])).astype(np.int32))
    _check_symbols(y, shape[3], "Y")
    y = y.astype(np.int32)
    log_t = log_t.reshape(-1)

    best_score = -np.inf
    best = -1
    tie = False
    for start, ids in space.chunks():
        flat = np.take(books[0], ids[0], axis=0)
        flat += np.take(books[1], ids[1], axis=0)
        flat += np.take(books[2], ids[2], axis=0)
        flat += y
        scores = np.take(log_t, flat).sum(axis=1)
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


def typicality_decode(channel: DMChannel, scheme: CodingScheme, y_block, eps: float,
                      design: JointPMF | None = None) -> DecodeResult:
    """Unique strongly typical candidate decoding.

    A candidate passes when the empirical type of the full per-symbol tuple
    (sources, layer variables, inputs, output) deviates from the design law
    by at most eps divided by the design support size in every cell, with no
    mass on null cells.  No typical candidate is an E0 failure; more than
    one is an E1 failure.  design is scheme.design_joint(channel), built here
    unless passed in; schemes of one factory share it across seeds, so a
    caller decoding many trials builds it once.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    y = np.asarray(y_block, dtype=np.int64)
    n = y.shape[0]
    space = _space_for(scheme, n, None)
    if design is None:
        design = scheme.design_joint(channel)
    probs = design.probs
    thr = eps / float((probs > 0).sum())
    tables = [{f"S{user}": blocks, **scheme.expand(user, blocks)}
              for user, blocks in enumerate(space.blocks, start=1)]
    flat = probs.ravel()
    positive = flat > 0.0
    # cells with design mass above the threshold must appear
    must = flat > thr
    n_must = int(must.sum())
    # (table column, user) of every design axis but Y; a layer two users see is read from the first
    columns = {}
    for user, tab in enumerate(tables):
        for name, col in tab.items():
            columns.setdefault(name, (col, user))

    hits = []
    for start, ids in space.chunks():
        rows = len(ids[0])
        cells = np.zeros((rows, n), dtype=np.int64)
        for name, size in zip(design.names, probs.shape):
            cells *= size
            if name == "Y":
                cells += y
            else:
                col, user = columns[name]
                cells += col[ids[user]]
        # one run per distinct cell of a candidate's type
        cells.sort(axis=1)
        new = np.ones(cells.shape, dtype=bool)
        new[:, 1:] = cells[:, 1:] != cells[:, :-1]
        starts = np.flatnonzero(new)
        run_cell = cells.ravel()[starts]
        del cells, new
        run_row = starts // n
        counts = np.diff(starts, append=rows * n)
        bad = ~positive[run_cell] | (np.abs(counts / float(n) - flat[run_cell]) > thr)
        typical = (np.bincount(run_row, weights=bad, minlength=rows) == 0) & (
            np.bincount(run_row, weights=must[run_cell], minlength=rows) == n_must)
        hits.extend(start + np.flatnonzero(typical)[:2])
        if len(hits) > 1:
            return DecodeResult(None, "ambiguous", candidates=start + rows)
    total = len(space.log_prior)
    if not hits:
        return DecodeResult(None, "none-typical", candidates=total)
    return DecodeResult(space.blocks_of(hits[0]), candidates=total)


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

