"""Exact evaluators for the single-letter sufficient-condition families.

Every evaluator states its law as an ordered list of factors (source,
common-part relabelings, coordination layers, zero-sum linear layer,
channel) and reads each inequality off one memoized entropy ledger over
those factors: a small law is multiplied out once, a large one stays
factored and each group marginal is contracted from the factors it needs.
The three-user layered and hybrid laws come from three_user_factors.
Nothing in this module samples.  A report row keeps (id, lhs, rhs, slack) so
violations are attributable.

Four condition families are covered: the two-user layered region and the
two-user feedback rate region, the three-user layered region, the hybrid
layered+linear region (extra zero-sum uniform layer V and the additive
relabeling T of the sources), and the feedback block-Markov region built
on a two-copy joint in which the current block's V is the fixed linear
image V = (T1, T2, -(T1 + T2)) mod q of the previous block's T.

The quaternary example gets dedicated helpers: the noise-threshold
gamma_star, the eta penalty curves (over arrays of alphas), the three
reduced conditions of the X1 = V1 xor E1 construction, the sigma0 frontier,
the product-strategy mutual-information search, and the total-variation
separation check between structured and product input laws.  The frontier
and the product search share one lockstep golden-section kernel.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import logging
import math
import time
from dataclasses import dataclass

import numpy as np

from .channels import DMChannel, quaternary_noise_law
from .commonparts import additive_common_search, gkw_mutual, gkw_pairs, gkw_pairwise
from .gfcore import check_prime_field
from .probcore import (
    ConditionalPMF,
    JointPMF,
    binary_entropy,
    binary_entropy_inverse,
    chain_all,
    cells_marginal,
    check_cells,
    clamp_mi,
    deterministic_conditional,
    entropy,
    mixed_radix,
    row_sums,
    segment_entropies,
    support_cells,
)
from .rng import available_cores, stream
from .sources import SourceModel, make_sigma_gamma_triple

__all__ = [
    "SLACK_FLOOR",
    "FACTOR_TOL",
    "PAIRS",
    "USER_PAIRS",
    "W_SUBSETS",
    "USER_SUBSETS",
    "FactorizationError",
    "InequalityRecord",
    "RegionReport",
    "CES2Dist",
    "CESDist",
    "HybridDist",
    "MacFBDist",
    "MacFBReport",
    "three_user_factors",
    "eval_ces2",
    "eval_cl2",
    "eval_ces3",
    "eval_hybrid",
    "eval_macfb",
    "eta1",
    "eta2",
    "gamma_star",
    "example_conditions",
    "FrontierPoint",
    "sigma0_frontier",
    "sigma0_frontier_points",
    "ProductSearchConfig",
    "ProductSearchResult",
    "max_product_mi",
    "product_conditionals",
    "product_ces_dist",
    "hybrid_example_dist",
    "min_tv_to_structured",
    "TVSample",
    "TVBoundReport",
    "tv_bound_check",
]

SLACK_FLOOR = -1e-9
FACTOR_TOL = 1e-9

PAIRS = ("12", "13", "23")
# the two pair labels involving each user, lexicographic
USER_PAIRS = {1: ("12", "13"), 2: ("12", "23"), 3: ("13", "23")}

W_SUBSETS = (
    (),
    ("12",),
    ("13",),
    ("23",),
    ("12", "13"),
    ("12", "23"),
    ("13", "23"),
    ("12", "13", "23"),
)
USER_SUBSETS = ((), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3))

PAIR_USERS = {"12": (1, 2), "13": (1, 3), "23": (2, 3)}
PAIR_COMPLEMENT = {"12": 3, "13": 2, "23": 1}


class FactorizationError(ValueError):
    """The supplied factors do not form a member of the announced class."""


def _subset_tag(subset) -> str:
    return "+".join(str(b) for b in subset) if subset else "none"


def _pair_name(i: int, k: int) -> str:
    return f"{min(i, k)}{max(i, k)}"


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class InequalityRecord:
    """One condition row; equality rows score slack as -|rhs - lhs|."""

    ineq_id: str
    lhs: float
    rhs: float
    equality: bool = False

    @property
    def slack(self) -> float:
        gap = self.rhs - self.lhs
        return -abs(gap) if self.equality else gap

    @property
    def satisfied(self) -> bool:
        return self.slack >= SLACK_FLOOR


@dataclass(frozen=True)
class RegionReport:
    family: str
    records: tuple[InequalityRecord, ...]

    @property
    def satisfied(self) -> bool:
        return all(r.satisfied for r in self.records)

    @property
    def worst(self) -> InequalityRecord:
        return min(self.records, key=lambda r: r.slack)

    def record(self, ineq_id: str) -> InequalityRecord:
        for r in self.records:
            if r.ineq_id == ineq_id:
                return r
        raise KeyError(f"no inequality {ineq_id!r} in family {self.family!r}")

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "satisfied": self.satisfied,
            "records": [
                {
                    "inequality": r.ineq_id,
                    "lhs_bits": r.lhs,
                    "rhs_bits": r.rhs,
                    "slack_bits": r.slack,
                    "equality": r.equality,
                }
                for r in self.records
            ],
        }


# ---------------------------------------------------------------------------
# distribution classes
#
# The dataclasses carry plain conditional tables; evaluators rebuild
# axis-named conditionals themselves, so only table layout matters:
# given axes first, in the documented order, then the target axis.


@dataclass(frozen=True)
class CES2Dist:
    """Two-user layered input: shared layer U12, inputs X_i | (S_i, U12).

    x1_cond table layout (|S1|, |U12|, |X1|); same pattern for x2_cond.
    """

    u12: JointPMF
    x1_cond: ConditionalPMF
    x2_cond: ConditionalPMF

    def __post_init__(self):
        if len(self.u12.shape) != 1:
            raise FactorizationError("u12 must be a one-axis law")
        nu = self.u12.shape[0]
        for lbl, cond in (("x1", self.x1_cond), ("x2", self.x2_cond)):
            if cond.table.ndim != 3 or cond.table.shape[1] != nu:
                raise FactorizationError(
                    f"{lbl} conditional must be laid out (|S|, {nu}, |X|); got {cond.table.shape}"
                )


def _check_layered_tables(u123, pair_conds, x_conds, v_size: int | None):
    if len(u123.shape) != 1:
        raise FactorizationError("u123 must be a one-axis law")
    nu = u123.shape[0]
    if set(pair_conds) != set(PAIRS):
        raise FactorizationError(f"pair_conds needs exactly the keys {PAIRS}")
    for b in PAIRS:
        t = pair_conds[b].table
        if t.ndim != 3 or t.shape[1] != nu:
            raise FactorizationError(
                f"pair layer {b} must be laid out (|W{b}|, {nu}, |U{b}|); got {t.shape}"
            )
    if len(x_conds) != 3:
        raise FactorizationError("x_conds must hold one conditional per user")
    want_ndim = 5 if v_size is None else 6
    for i in (1, 2, 3):
        t = x_conds[i - 1].table
        ba, bb = USER_PAIRS[i]
        if t.ndim != want_ndim or t.shape[1] != nu:
            raise FactorizationError(
                f"x{i} conditional needs layout (|S{i}|, {nu}, |U{ba}|, |U{bb}|"
                + ("" if v_size is None else f", {v_size}")
                + f", |X{i}|); got {t.shape}"
            )
        if t.shape[2] != pair_conds[ba].table.shape[2] or t.shape[3] != pair_conds[bb].table.shape[2]:
            raise FactorizationError(f"x{i} conditional disagrees with the pair-layer sizes")
        if v_size is not None and t.shape[4] != v_size:
            raise FactorizationError(f"x{i} conditional needs a size-{v_size} V axis")


@dataclass(frozen=True)
class CESDist:
    """Three-user layered input class.

    u123: law of the common layer.  pair_conds[b]: table (|Wb|, |U123|,
    |Ub|) for b in ("12", "13", "23"), where |Wb| must match the pairwise
    common part of the source being evaluated.  x_conds[i-1]: table
    (|S_i|, |U123|, |U_first|, |U_second|, |X_i|) with the user's two pair
    layers ordered as in USER_PAIRS.
    """

    u123: JointPMF
    pair_conds: dict
    x_conds: tuple

    def __post_init__(self):
        _check_layered_tables(self.u123, self.pair_conds, self.x_conds, None)


@dataclass(frozen=True)
class HybridDist:
    """Layered class plus a zero-sum uniform linear layer over F_q.

    x_conds[i-1]: table (|S_i|, |U123|, |U_first|, |U_second|, q, |X_i|);
    the V marginal is pinned to the uniform zero-sum plane internally.
    """

    q: int
    u123: JointPMF
    pair_conds: dict
    x_conds: tuple

    def __post_init__(self):
        check_prime_field(self.q)
        _check_layered_tables(self.u123, self.pair_conds, self.x_conds, self.q)


@dataclass(frozen=True)
class MacFBDist:
    """Feedback block class: U and, per user, X_i | (U, T_i, V_i).

    T_i is uniform on F_q and V is uniform on the zero-sum plane by
    definition of the class, so only q, the U law, and the three input
    conditionals (tables (|U|, q, q, |X_i|)) are free.
    """

    q: int
    p_u: JointPMF
    x_conds: tuple

    def __post_init__(self):
        check_prime_field(self.q)
        if len(self.p_u.shape) != 1:
            raise FactorizationError("p_u must be a one-axis law")
        if len(self.x_conds) != 3:
            raise FactorizationError("x_conds must hold one conditional per user")
        nu = self.p_u.shape[0]
        for i in (1, 2, 3):
            t = self.x_conds[i - 1].table
            if t.ndim != 4 or t.shape[:3] != (nu, self.q, self.q):
                raise FactorizationError(
                    f"x{i} conditional needs layout ({nu}, {self.q}, {self.q}, |X{i}|); got {t.shape}"
                )


# ---------------------------------------------------------------------------
# composition helpers

# a law of at most this many cells is chained out once: reducing it costs less than an einsum
_DENSE_CELLS = 2**20

_LOG = logging.getLogger("trimac")


def _cond(table, given_axes, target_axes) -> ConditionalPMF:
    return ConditionalPMF(given_axes, target_axes, table)


def _indep(axes, probs) -> ConditionalPMF:
    return ConditionalPMF((), axes, probs)


def _plane_probs(q: int) -> np.ndarray:
    return np.where(np.indices((q, q, q)).sum(axis=0) % q == 0, 1.0 / q**2, 0.0)


def _uniform_cube(q: int) -> np.ndarray:
    return np.full((q, q, q), 1.0 / q**3)


def _label(name: str, size: int, labels, anchor) -> ConditionalPMF:
    """Deterministic factor name = labels[anchor] for the anchor axis (name, size)."""
    lab = np.asarray(labels, dtype=np.int64)
    return deterministic_conditional([anchor], [(name, size)], lambda s: lab[s])


def three_user_factors(source: SourceModel, channel: DMChannel, dist, t_functions=None) -> list:
    """The single-letter law of a layered scheme, as conditionals listed givens first.

    Factors, in order: the source; the common-part labels W123 and W_b,
    each anchored on the lowest-index user of its part (the labels agree
    a.s. with any other anchoring); with t_functions, the additive labels
    T_i = t_functions[i-1](S_i); the layers U123 and U_b | (W_b, U123); with
    t_functions, the uniform zero-sum plane of (V1, V2, V3) over Z_dist.q;
    the inputs X_i | (S_i, U123, U_ij, U_ik[, V_i]); the channel output Y.
    Without t_functions this is the layered law, with them the hybrid one.
    """
    mutual = gkw_mutual(source)
    pair_parts = gkw_pairs(source)
    axes = source.joint.axes
    factors = [
        ConditionalPMF.from_joint(source.joint),
        _label("W123", mutual.component_count, mutual.labelings[0], axes[0]),
    ]
    for b in PAIRS:
        res, anchor = pair_parts[b], axes[PAIR_USERS[b][0] - 1]
        factors.append(_label(f"W{b}", res.component_count, res.labelings[0], anchor))
    q = None if t_functions is None else dist.q
    if q is not None:
        factors += [_label(f"T{i}", q, fn, axes[i - 1]) for i, fn in enumerate(t_functions, 1)]
    nu = dist.u123.shape[0]
    factors.append(_indep([("U123", nu)], dist.u123.probs))
    for b in PAIRS:
        t = dist.pair_conds[b].table
        if t.shape[0] != pair_parts[b].component_count:
            raise FactorizationError(
                f"pair layer {b} was built for |W{b}|={t.shape[0]} but the source has "
                f"{pair_parts[b].component_count} components"
            )
        factors.append(_cond(t, [("W" + b, t.shape[0]), ("U123", nu)], [("U" + b, t.shape[2])]))
    if q is not None:
        factors.append(_indep([("V1", q), ("V2", q), ("V3", q)], _plane_probs(q)))
    for i in (1, 2, 3):
        t = dist.x_conds[i - 1].table
        if t.shape[0] != source.sizes[i - 1]:
            raise FactorizationError(
                f"x{i} conditional covers {t.shape[0]} source symbols, expected {source.sizes[i - 1]}"
            )
        if t.shape[-1] != channel.input_sizes[i - 1]:
            raise FactorizationError(
                f"x{i} conditional feeds {t.shape[-1]} symbols into a channel expecting "
                f"{channel.input_sizes[i - 1]}"
            )
        ba, bb = USER_PAIRS[i]
        given = [(f"S{i}", t.shape[0]), ("U123", nu), ("U" + ba, t.shape[2]), ("U" + bb, t.shape[3])]
        if q is not None:
            given.append((f"V{i}", q))
        factors.append(_cond(t, given, [(f"X{i}", t.shape[-1])]))
    return factors + [channel.transition]


class _Held:
    """A law the ledger holds or has planned to hold.

    Either a law the ledger was given (pinned: its tensor is kept), an
    einsum contraction of the factors over base (source None), or the
    marginal over base of the held law source; lifted names derived axes
    appended after base.  A planned law is built when its batch is
    computed and released after it.
    """

    __slots__ = ("names", "nameset", "shape", "size", "source", "base", "lifted", "pinned",
                 "made", "probs", "cells", "counted")

    def __init__(self, names, shape, made, source=None, base=(), lifted=(), pinned=False):
        self.names, self.nameset, self.shape = tuple(names), frozenset(names), tuple(shape)
        self.size = math.prod(self.shape)
        self.source, self.base, self.lifted, self.pinned, self.made = source, base, lifted, pinned, made
        self.probs = self.cells = None

    @property
    def built(self) -> bool:
        return self.probs is not None or self.cells is not None

    def dense(self) -> np.ndarray:
        """The tensor, set out from the nonzero cells when only they are held."""
        if self.probs is None:
            ids, _, mass = self.cells
            flat = np.zeros(self.size)
            flat[ids] = mass
            self.probs = flat.reshape(self.shape)
        return self.probs


class _Expr:
    """A row side over ledger groups, valued only once its ledgers have computed them.

    op "H" is the entropy of group b of ledger a; "-", "+" and "*" apply to
    a and b, "clamp" is clamp_mi(a).  A float operand is a constant.  value()
    takes each operation in the order the builder wrote it, on Python
    floats, so a row's bits are those of the same arithmetic on the terms.
    No ordering, equality or truth value is defined: a row builder sees
    expressions, never values, so it cannot branch on a term.
    """

    __slots__ = ("op", "a", "b")

    def __init__(self, op, a, b=None):
        self.op, self.a, self.b = op, a, b

    def __add__(self, other):
        return _Expr("+", self, other)

    def __radd__(self, other):
        return _Expr("+", other, self)

    def __rmul__(self, other):
        return _Expr("*", other, self)

    def __eq__(self, other):
        raise TypeError("a ledger term has no value until its rows are evaluated")

    def __bool__(self):
        raise TypeError("a ledger term has no truth value until its rows are evaluated")

    def value(self) -> float:
        op, a, b = self.op, self.a, self.b
        if op == "H":
            return a.terms[b]
        if op == "-":
            return a.value() - b.value()
        if op == "clamp":
            return clamp_mi(a.value())
        if op == "*":
            return a * b.value()
        return _value(a) + _value(b)


def _value(side) -> float:
    return side.value() if isinstance(side, _Expr) else side


def _leaves(side, sign=1):
    """(sign, ledger, group) of each entropy a row side reads, in the order built."""
    if not isinstance(side, _Expr):
        return
    if side.op == "H":
        yield sign, side.a, side.b
        return
    yield from _leaves(side.a, sign)
    yield from _leaves(side.b, -sign if side.op == "-" else sign)


class _EntropyLedger:
    """Memoized group entropies of a law kept as conditionals listed givens first.

    An evaluation runs its row builder once (_evaluate).  Inside it
    entropy_of, cond_entropy and mi return expressions (_Expr), and the
    ledger records each new group asked for with the held law it will be
    summed from: the smallest held law that covers it or, when none does, a
    new one over the group.  Which law covers a group depends on axis sizes
    alone, so every choice is made without arithmetic.  The compute step
    then builds each planned law, sums all of its groups in one batch and
    releases it; the entropies of a law's groups and of those of the laws
    built from it are taken in one call.  Each row is then valued from
    terms.  Outside an evaluation, entropy_of is an evaluation of one group
    and returns its bits.

    derived maps an extra axis name to (base names, coefficients, q): the
    axis sum(c * base) mod q, put on a marginal (each nonzero cell's mass
    moved to its derived coordinates), never on the law.  A law of at most
    _DENSE_CELLS cells is chained out once and held throughout, so each
    term is summed exactly as probcore.entropy sums the chained joint:
    rows that tie in exact arithmetic keep their order down to the last
    bit.  A larger law stays factored: a group no held law covers is
    contracted with einsum from the factors it needs (variable
    elimination), in plan order, and released after its batch.

    A small law, and every marginal held from it, keeps its nonzero cells,
    and its groups are summed from them in numpy's association
    (probcore.cells_marginal): when the summed axes after the last kept one
    span fewer than 8 cells, each such run is added in order from zero and
    the run sums are added in memory order.  A longer trailing run, which
    numpy sums pairwise, and every group of a large law take numpy's sum
    of the dense tensor.  Either way the bits are ndarray.sum's, and each
    entropy is array_entropy's (probcore.segment_entropies).
    """

    def __init__(self, factors, derived=None):
        self.factors = tuple(factors)
        self.derived = dict(derived or {})
        self.sizes = dict(ax for f in self.factors for ax in f.given_axes + f.target_axes)
        self.terms: dict[frozenset, float] = {}
        self._held: list[_Held] = []
        self._jobs: dict[frozenset, _Held] | None = None  # the open evaluation's new groups
        self._made = self._cells_held = 0
        self.requested = self.contractions = self.largest = self.cell_sums = self.dense_sums = 0
        self.planned = self.kernel_calls = self.most_held = 0
        self._small = math.prod(self.sizes.values()) <= _DENSE_CELLS
        if self._small:
            self._hold(chain_all(self.factors))

    def _add(self, held: _Held) -> _Held:
        self._held.append(held)
        self._made += 1
        self.largest = max(self.largest, held.size)
        return held

    def _hold(self, law: JointPMF) -> _Held:
        """Hold a given law for good."""
        held = self._add(_Held(law.names, law.shape, self._made, pinned=True))
        held.probs = law.probs
        held.cells = support_cells(law.probs) if self._small else None
        self._count(held)
        return held

    def _plan_hold(self, names: tuple) -> _Held:
        """Plan a held law over names, derived axes appended in the given order."""
        lifted = tuple(n for n in names if n in self.derived)
        base = tuple(dict.fromkeys(
            [n for n in names if n not in self.derived]
            + [b for n in lifted for b in self.derived[n][0]]
        ))
        shape = [self.sizes[n] for n in base] + [self.derived[n][2] for n in lifted]
        check_cells(shape)
        return self._add(_Held(base + lifted, shape, self._made,
                               self._cover(frozenset(base)), base, lifted))

    def _cover(self, names: frozenset) -> _Held | None:
        """The smallest held law over names, the first made among equals."""
        best = None
        for held in self._held:
            if names <= held.nameset and (best is None or held.size < best.size):
                best = held
        return best

    def _contract(self, names: tuple) -> JointPMF:
        need, ops = set(names), []
        # a factor none of whose targets is needed sums to one: leave it out
        for f in reversed(self.factors):
            if need.intersection(f.target_names):
                need.update(f.given_names + f.target_names)
                ops.append(f)
        label = {n: k for k, n in enumerate(sorted(need))}
        args = [x for f in ops for x in (f.table, [label[n] for n in f.given_names + f.target_names])]
        self.contractions += 1
        return JointPMF([(n, self.sizes[n]) for n in names],
                        np.einsum(*args, [label[n] for n in names], optimize=True))

    def _count(self, held: _Held) -> None:
        """Count a law built: its tensor's cells, or its nonzero cells when only they are held."""
        held.counted = held.cells[0].size if held.probs is None else held.probs.size
        self._cells_held += held.counted
        self.most_held = max(self.most_held, self._cells_held)

    def _build(self, held: _Held, m: np.ndarray, cells) -> None:
        """Give held its law from m, its marginal over held.base in that axis order (C order).

        cells are m's nonzero cells (support_cells), needed in small mode
        and for derived axes.
        """
        if not held.lifted:
            held.probs, held.cells = m, cells
        else:
            # each nonzero cell's mass moves to its derived coordinates: no
            # arithmetic, and the derived axes come last, so ids stay ascending
            ids, digits, mass = cells
            coeffs = np.zeros((len(held.lifted), len(held.base)), dtype=np.int64)
            for row, (bases, cs, _) in zip(coeffs, map(self.derived.get, held.lifted)):
                for b, c in zip(bases, cs):
                    row[held.base.index(b)] += c
            sizes = held.shape[len(held.base):]
            extra = coeffs @ digits % np.array(sizes)[:, None]
            radix = [math.prod(sizes[i + 1:]) for i in range(len(sizes))]
            dtype = np.min_scalar_type(max(held.shape) - 1)
            held.cells = (ids * math.prod(sizes) + radix @ extra,
                          np.vstack([digits, extra]).astype(dtype), mass)
            if not self._small:
                held.dense()
                held.cells = None
        self._count(held)

    def _release(self, held: _Held) -> None:
        if not held.pinned:
            self._cells_held -= held.counted
            held.probs = held.cells = None

    def _sums(self, held: _Held, groups: list) -> tuple:
        """Every group's marginal of the built law held, axes in its order, in one batch.

        Returns (flat, bounds) as probcore.cells_marginal does, with the
        marginals it leaves to numpy summed into their slices.
        """
        keep = np.zeros((len(groups), len(held.names)), dtype=bool)
        where = {n: i for i, n in enumerate(held.names)}
        keep[np.repeat(np.arange(len(groups)), [len(g) for g in groups]),
             [where[n] for g in groups for n in g]] = True
        flat, bounds, left = cells_marginal(held.shape, held.cells, keep)
        self.kernel_calls += 1
        for g, row in zip(np.flatnonzero(left).tolist(), keep[left].tolist()):
            out = flat[bounds[g]:bounds[g + 1]].reshape([n for n, k in zip(held.shape, row) if k])
            np.add.reduce(held.dense(), axis=tuple([a for a, k in enumerate(row) if not k]), out=out)
        dense = int(left.sum())
        self.dense_sums += dense
        self.cell_sums += len(groups) - dense
        return flat, bounds

    def _run(self, held: _Held, groups: dict, kids: dict, parts: list, keys: list) -> None:
        """Sum held's groups and its derived laws' bases in one batch, then do each derived law."""
        if not held.built:
            m = self._contract(held.base).probs
            self._build(held, m, support_cells(m) if self._small or held.lifted else None)
        mine = groups.get(held, [])
        below = sorted(kids.get(held, ()), key=lambda kid: kid.made)
        bases = list(dict.fromkeys(kid.base for kid in below))
        self.planned += len(mine) + len(bases)
        if held.probs is not None and held.nameset in mine:
            # a group over a whole tensor is read off it, not copied
            mine = [key for key in mine if key != held.nameset]
            parts.append((held.probs.reshape(-1), (0, held.size)))
            keys.append(held.nameset)
        flat, bounds = self._sums(held, mine + bases)
        parts.append((flat, bounds[:len(mine) + 1]))
        keys += mine
        marginals = {}
        for g, base in enumerate(bases, len(mine)):
            order = sorted(base, key=held.names.index)
            m = flat[bounds[g]:bounds[g + 1]].reshape([self.sizes[n] for n in order])
            m = np.ascontiguousarray(np.transpose(m, [order.index(n) for n in base]))
            lifted = any(kid.lifted for kid in below if kid.base == base)
            marginals[base] = m, support_cells(m) if self._small or lifted else None
        self._release(held)
        for kid in below:
            self._build(kid, *marginals[kid.base])
            self._run(kid, groups, kids, parts, keys)

    def _compute(self) -> None:
        """Compute every new group the open evaluation asked for."""
        groups: dict[_Held, list] = {}
        for key, held in self._jobs.items():
            groups.setdefault(held, []).append(key)
        # a planned law is built from its source's batch; a law with no
        # source, or one already built, starts a batch of its own
        kids: dict[_Held, list] = {}
        todo, tops = list(groups), []
        while todo:
            held = todo.pop()
            if held.built or held.source is None:
                tops.append(held)
                continue
            if held.source not in groups and held.source not in kids:
                todo.append(held.source)
            kids.setdefault(held.source, []).append(held)
        got = {}
        for top in sorted(tops, key=lambda held: held.made):
            parts, keys = [], []
            self._run(top, groups, kids, parts, keys)
            got.update(zip(keys, segment_entropies(parts)))
            self.kernel_calls += 1
        self.terms.update((key, got[key]) for key in self._jobs)

    @contextlib.contextmanager
    def holding(self, names):
        """Hold the marginal over names for the terms asked for inside the block."""
        held = self._plan_hold(tuple(names))
        try:
            yield
        finally:
            self._held.remove(held)

    def entropy_of(self, group):
        """H(group): an expression inside an evaluation, else the bits of an evaluation of one."""
        key = frozenset(group)
        if self._jobs is None:
            return _planned(lambda: self.entropy_of(key), self).value()
        self.requested += 1
        if key not in self.terms and key not in self._jobs:
            self._jobs[key] = self._cover(key) or self._plan_hold(tuple(sorted(key)))
        return _Expr("H", self, key)

    def cond_entropy(self, target, given=()) -> _Expr:
        """H(target | given), in probcore.conditional_entropy's arithmetic."""
        if not given:
            return self.entropy_of(target)
        return _Expr("-", self.entropy_of(tuple(target) + tuple(given)), self.entropy_of(given))

    def mi(self, a, b, given=()) -> _Expr:
        """I(a; b | given), in probcore.mutual_information's arithmetic."""
        return _Expr("clamp", _Expr("-", self.cond_entropy(a, given),
                                    self.cond_entropy(a, tuple(b) + tuple(given))))

    def log(self, family: str) -> None:
        _LOG.debug("%s: %d entropy groups requested, %d computed, %d einsum contractions, "
                   "largest marginal %d cells, %d groups planned, %d batched kernel calls, "
                   "most cells held at once %d, %d sums from nonzero cells, %d by numpy's sum",
                   family, self.requested, len(self.terms), self.contractions, self.largest,
                   self.planned, self.kernel_calls, self.most_held, self.cell_sums, self.dense_sums)


def _planned(build, *ledgers):
    """build(), run once with an evaluation open on each ledger, which then computes its new groups."""
    for ledger in ledgers:
        ledger._jobs = {}
    try:
        out = build()
        for ledger in ledgers:
            ledger._compute()
    finally:
        for ledger in ledgers:
            ledger._jobs = None
    return out


def _evaluate(family: str, build, *ledgers) -> tuple[InequalityRecord, ...]:
    """The records of the (id, lhs, rhs[, equality]) rows build() returns, valued from terms.

    build runs once (_planned).  A mutual information below MI_CLAMP is
    refused with the family and the row id.
    """
    records = []
    for rid, lhs, rhs, *equality in _planned(build, *ledgers):
        try:
            records.append(InequalityRecord(rid, _value(lhs), _value(rhs), *equality))
        except ValueError as exc:
            raise ValueError(f"{family} row {rid}: {exc}") from None
    return tuple(records)


# ---------------------------------------------------------------------------
# two-user evaluators


def eval_ces2(pair_joint: JointPMF, channel_cond: ConditionalPMF, dist: CES2Dist) -> RegionReport:
    """Two-user layered conditions for a correlated source pair.

    pair_joint's first axis is user 1; channel_cond's table is laid out
    (|X1|, |X2|, |Y|).
    """
    if len(pair_joint.shape) != 2:
        raise FactorizationError("pair_joint must have exactly two axes")
    if channel_cond.table.ndim != 3:
        raise FactorizationError("two-user channel table must be (|X1|, |X2|, |Y|)")
    n1, n2 = pair_joint.shape
    nu = dist.u12.shape[0]
    tx1, tx2 = dist.x1_cond.table, dist.x2_cond.table
    if tx1.shape[0] != n1 or tx2.shape[0] != n2:
        raise FactorizationError("input conditionals do not cover the source alphabets")
    wt = channel_cond.table
    if tx1.shape[2] != wt.shape[0] or tx2.shape[2] != wt.shape[1]:
        raise FactorizationError("input conditionals do not match the channel alphabet")

    base = JointPMF([("S1", n1), ("S2", n2)], pair_joint.probs)
    pairw = gkw_pairwise(base)
    ledger = _EntropyLedger([
        ConditionalPMF.from_joint(base),
        _label("W12", pairw.component_count, pairw.labelings[0], ("S1", n1)),
        _indep([("U12", nu)], dist.u12.probs),
        _cond(tx1, [("S1", n1), ("U12", nu)], [("X1", tx1.shape[2])]),
        _cond(tx2, [("S2", n2), ("U12", nu)], [("X2", tx2.shape[2])]),
        _cond(wt, [("X1", wt.shape[0]), ("X2", wt.shape[1])], [("Y", wt.shape[2])]),
    ])

    def rows():
        return (
            ("solo-1", ledger.cond_entropy(("S1",), ("S2",)),
             ledger.mi(("X1",), ("Y",), ("X2", "S2", "U12"))),
            ("solo-2", ledger.cond_entropy(("S2",), ("S1",)),
             ledger.mi(("X2",), ("Y",), ("X1", "S1", "U12"))),
            ("pair-w", ledger.cond_entropy(("S1", "S2"), ("W12",)),
             ledger.mi(("X1", "X2"), ("Y",), ("W12", "U12"))),
            ("sum", ledger.entropy_of(("S1", "S2")), ledger.mi(("X1", "X2"), ("Y",))),
        )

    report = RegionReport("ces2", _evaluate("ces2", rows, ledger))
    ledger.log("ces2")
    return report


def eval_cl2(rates, channel_cond: ConditionalPMF, p_u: JointPMF,
             x1_cond: ConditionalPMF, x2_cond: ConditionalPMF) -> RegionReport:
    """Two-user feedback rate conditions under a shared layer U.

    x conditionals are laid out (|U|, |X_i|); channel as in eval_ces2.
    """
    r1, r2 = (float(r) for r in rates)
    if not all(math.isfinite(r) and r >= 0.0 for r in (r1, r2)):
        raise ValueError("rates must be finite and non-negative")
    if len(p_u.shape) != 1:
        raise FactorizationError("p_u must be a one-axis law")
    nu = p_u.shape[0]
    t1, t2, wt = x1_cond.table, x2_cond.table, channel_cond.table
    if t1.ndim != 2 or t2.ndim != 2 or t1.shape[0] != nu or t2.shape[0] != nu:
        raise FactorizationError("input conditionals must be laid out (|U|, |X|)")
    if wt.ndim != 3 or t1.shape[1] != wt.shape[0] or t2.shape[1] != wt.shape[1]:
        raise FactorizationError("input conditionals do not match the channel alphabet")

    ledger = _EntropyLedger([
        _indep([("U", nu)], p_u.probs),
        _cond(t1, [("U", nu)], [("X1", t1.shape[1])]),
        _cond(t2, [("U", nu)], [("X2", t2.shape[1])]),
        _cond(wt, [("X1", wt.shape[0]), ("X2", wt.shape[1])], [("Y", wt.shape[2])]),
    ])

    def rows():
        return (
            ("rate-1", r1, ledger.mi(("X1",), ("Y",), ("X2", "U"))),
            ("rate-2", r2, ledger.mi(("X2",), ("Y",), ("X1", "U"))),
            ("rate-sum", r1 + r2, ledger.mi(("X1", "X2"), ("Y",))),
        )

    report = RegionReport("cl2", _evaluate("cl2", rows, ledger))
    ledger.log("cl2")
    return report


# ---------------------------------------------------------------------------
# three-user layered evaluator


def eval_ces3(source: SourceModel, channel: DMChannel, dist: CESDist) -> RegionReport:
    ledger = _EntropyLedger(three_user_factors(source, channel, dist))

    all_u = ("U123", "U12", "U13", "U23")

    def build():
        rows = []
        for i in (1, 2, 3):
            j, k = sorted({1, 2, 3} - {i})
            rows.append((
                f"solo-{i}",
                ledger.cond_entropy((f"S{i}",), (f"S{j}", f"S{k}")),
                ledger.mi(
                    (f"X{i}",), ("Y",),
                    (f"S{j}", f"S{k}", f"X{j}", f"X{k}") + all_u,
                ),
            ))
        for b in PAIRS:
            i, j = PAIR_USERS[b]
            k = PAIR_COMPLEMENT[b]
            rows.append((
                f"pair-{b}",
                ledger.cond_entropy((f"S{i}", f"S{j}"), (f"S{k}",)),
                ledger.mi(
                    (f"X{i}", f"X{j}"), ("Y",),
                    (f"S{k}", "U123", "U" + _pair_name(i, k), "U" + _pair_name(j, k), f"X{k}"),
                ),
            ))
            rows.append((
                f"pair-{b}-wpair",
                ledger.cond_entropy((f"S{i}", f"S{j}"), (f"S{k}", f"W{b}")),
                ledger.mi(
                    (f"X{i}", f"X{j}"), ("Y",),
                    (f"S{k}", f"W{b}") + all_u + (f"X{k}",),
                ),
            ))
        for subset in W_SUBSETS:
            tag = _subset_tag(subset)
            w_axes = tuple("W" + b for b in subset)
            u_axes = tuple("U" + b for b in subset)
            rows.append((
                f"joint-wgroup-{tag}",
                ledger.cond_entropy(("S1", "S2", "S3"), ("W123",) + w_axes),
                ledger.mi(
                    ("X1", "X2", "X3"), ("Y",),
                    ("W123",) + w_axes + ("U123",) + u_axes,
                ),
            ))
        rows.append((
            "sum",
            ledger.entropy_of(("S1", "S2", "S3")),
            ledger.mi(("X1", "X2", "X3"), ("Y",)),
        ))
        return tuple(rows)

    report = RegionReport("ces3", _evaluate("ces3", build, ledger))
    ledger.log("ces3")
    return report


# ---------------------------------------------------------------------------
# hybrid layered + linear evaluator


def eval_hybrid(source: SourceModel, channel: DMChannel, dist: HybridDist) -> RegionReport:
    """Full hybrid condition family; raises if the source admits no additive part.

    The -lin-ab rows condition on TL = aT1 + bT2 and VL = aV1 + bV2 (mod q).
    """
    q = dist.q
    additive = additive_common_search(source, q)
    if not additive.found:
        raise ValueError(
            f"source has no additive relabeling over F_{q}; the hybrid family is undefined"
        )
    lin = list(itertools.product(range(q), repeat=2))[1:]
    derived = {f"{x}L{a}{b}": ((f"{x}1", f"{x}2"), (a, b), q) for a, b in lin for x in "TV"}
    ledger = _EntropyLedger(three_user_factors(source, channel, dist, additive.functions), derived)

    S = ("S1", "S2", "S3")
    X = ("X1", "X2", "X3")
    T = ("T1", "T2", "T3")
    V = ("V1", "V2", "V3")
    all_u = ("U123", "U12", "U13", "U23")
    lin_groups = [("sum", (), ())] + [
        (f"joint-wgroup-{_subset_tag(s)}", ("W123",) + tuple("W" + b for b in s),
         ("U123",) + tuple("U" + b for b in s))
        for s in W_SUBSETS
    ]

    def build():
        rows = []
        for i in (1, 2, 3):
            j, k = sorted({1, 2, 3} - {i})
            rows.append((
                f"solo-{i}",
                ledger.cond_entropy((f"S{i}",), (f"S{j}", f"S{k}")),
                ledger.mi(
                    (f"X{i}",), ("Y",),
                    (f"S{j}", f"S{k}") + all_u + V + (f"X{j}", f"X{k}"),
                ),
            ))
        for b, subset in itertools.product(PAIRS, W_SUBSETS):
            tag = _subset_tag(subset)
            i, j = PAIR_USERS[b]
            k = PAIR_COMPLEMENT[b]
            w_axes = tuple("W" + s for s in subset)
            # U_ik and U_jk always participate; the subset adds its own layers.
            u_axes = tuple(dict.fromkeys(
                ("U123", "U" + _pair_name(i, k), "U" + _pair_name(j, k)) + tuple("U" + s for s in subset)
            ))
            rows.append((
                f"pair-{b}-wgroup-{tag}",
                ledger.cond_entropy((f"S{i}", f"S{j}"), (f"S{k}",) + w_axes),
                ledger.mi(
                    (f"X{i}", f"X{j}"), ("Y",),
                    (f"S{k}",) + w_axes + u_axes + (f"V{k}", f"X{k}"),
                ),
            ))
            rows.append((
                f"pair-{b}-wgroup-{tag}-t",
                ledger.cond_entropy((f"S{i}", f"S{j}"), (f"S{k}",) + w_axes + T),
                ledger.mi(
                    (f"X{i}", f"X{j}"), ("Y",),
                    (f"S{k}",) + w_axes + u_axes + T + V + (f"X{k}",),
                ),
            ))
        for subset in W_SUBSETS:
            tag = _subset_tag(subset)
            w_axes = ("W123",) + tuple("W" + s for s in subset)
            u_axes = ("U123",) + tuple("U" + s for s in subset)
            rows.append((
                f"joint-wgroup-{tag}-t",
                ledger.cond_entropy(S, w_axes + T),
                ledger.mi(X, ("Y",), w_axes + u_axes + T + V),
            ))
        rows.append((
            "sum-t",
            ledger.cond_entropy(S, T),
            ledger.mi(X, ("Y",), T + V),
        ))
        for prefix, w_axes, u_axes in lin_groups:
            # conditioning on 0*T1 + 0*T2 is conditioning on a constant
            rows.append((
                f"{prefix}-lin-00-unconditioned",
                ledger.cond_entropy(S, w_axes),
                ledger.mi(X, ("Y",), w_axes + u_axes),
            ))
            for a, b2 in lin:
                tl, vl = f"TL{a}{b2}", f"VL{a}{b2}"
                with ledger.holding(S + X + ("Y",) + w_axes + u_axes + ("T1", "T2", "V1", "V2", tl, vl)):
                    rows.append((
                        f"{prefix}-lin-{a}{b2}",
                        ledger.cond_entropy(S, w_axes + (tl,)),
                        ledger.mi(X, ("Y",), w_axes + u_axes + (tl, vl)),
                    ))
        return tuple(rows)

    report = RegionReport("hybrid", _evaluate("hybrid", build, ledger))
    ledger.log("hybrid")
    return report


# ---------------------------------------------------------------------------
# quaternary example: thresholds and frontier


def _noise_entropy(delta: float) -> float:
    return entropy(JointPMF([("N", 4)], quaternary_noise_law(delta)))


def _row_entropy(p: np.ndarray) -> np.ndarray:
    """Entropy in bits of each law whose cells are p[0], p[1], ..., 0 log 0 = 0.

    The p log2 p terms are summed by row_sums: bit for bit the .sum(axis=-1)
    of the cells-last rows (a law of zero terms gives -0.0).
    """
    positive = p > 0.0
    if positive.all():
        terms = np.log2(p)
        terms *= p
    else:
        terms = np.where(positive, p * np.log2(np.where(positive, p, 1.0)), 0.0)
    return -row_sums(terms)


def _eta_image_entropies(alpha, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """H((E + N) mod 4) and H(((V xor E) + V + N) mod 4) for E ~ Ber(alpha), V uniform.

    Floats for a scalar alpha, else arrays of its shape.  Shifted noise rows are
    added in push_forward's np.add.at cell order: bit for bit the image laws.
    """
    a = np.asarray(alpha, dtype=np.float64)
    if not np.all((a >= 0.0) & (a <= 1.0)):
        raise ValueError("alpha must lie in [0, 1]")
    noise = quaternary_noise_law(delta).reshape((4,) + (1,) * a.ndim)  # cells first
    up1, up2 = noise[[3, 0, 1, 2]], noise[[2, 3, 0, 1]]  # the law of N + 1 and N + 2 mod 4
    keep, flip = (1.0 - a) * noise, a * up1
    z1 = keep + flip
    flip = 0.5 * flip
    # (v, e) = (0, 0), (0, 1), (1, 0), (1, 1) shift the noise by 0, 1, 2, 1
    z2 = 0.5 * keep + flip + 0.5 * ((1.0 - a) * up2) + flip
    h1, h2 = _row_entropy(z1), _row_entropy(z2)
    return (h1, h2) if np.ndim(alpha) else (float(h1), float(h2))


def eta1(alpha, delta: float):
    """Entropy cost H((E + N) mod 4) - H(N) of a Bernoulli(alpha) corruption; alpha may be an array."""
    return _eta_image_entropies(alpha, delta)[0] - _noise_entropy(delta)


def eta2(alpha, delta: float):
    """Output-uniformity penalty 2 - H(((V xor E) + V + N) mod 4); alpha may be an array."""
    return 2.0 - _eta_image_entropies(alpha, delta)[1]


def gamma_star(delta: float) -> float:
    """Bias threshold: h_b inverse of the structured-input information 2 - H(N)."""
    return binary_entropy_inverse(2.0 - _noise_entropy(delta))


def example_conditions(sigma: float, gamma: float, delta: float, alpha: float) -> RegionReport:
    """Reduced three-row report of the X1 = V1 xor E1 construction."""
    for name, val in (("sigma", sigma), ("gamma", gamma)):
        if not 0.0 <= val <= 0.5:
            raise ValueError(f"{name} must lie in [0, 1/2]")
    cap = 2.0 - _noise_entropy(delta)
    hg = binary_entropy(gamma)
    hs = binary_entropy(sigma)
    rows = (
        InequalityRecord("gamma-line", hg, (1.0 - alpha) * cap),
        InequalityRecord("sigma-line", hs, eta1(alpha, delta)),
        InequalityRecord("sum-line", hg + hs, cap - eta2(alpha, delta)),
    )
    return RegionReport("frontier-example", rows)


@dataclass(frozen=True)
class FrontierPoint:
    gamma: float
    delta: float
    sigma0: float
    alpha: float
    level: float


def _golden_max(f, lo, hi, iters: int):
    """Golden-section (argmax, max) on every lane of [lo, hi], f scoring all lanes' points per call.

    Each lane follows the one-lane search's trajectory bit for bit.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = f(x1), f(x2)
    for _ in range(iters):
        left = f1 >= f2
        hi, lo = np.where(left, x2, hi), np.where(left, lo, x1)
        x = np.where(left, hi - invphi * (hi - lo), lo + invphi * (hi - lo))
        fx = f(x)
        x1, x2 = np.where(left, x, x2), np.where(left, x1, x)
        f1, f2 = np.where(left, fx, f2), np.where(left, f1, fx)
    mid = 0.5 * (lo + hi)
    return mid, f(mid)


def _check_grid_step(grid_step: float) -> None:
    if not 0.0 < grid_step <= 0.5:
        raise ValueError("grid_step must lie in (0, 1/2]")


# Step of the frontier's grid over the corruption rate, before its golden refinement.
_FRONTIER_GRID_STEP = 1e-3


def sigma0_frontier_points(gammas, delta: float) -> tuple[FrontierPoint, ...]:
    """Largest sigma the construction supports at each bias in gammas.

    At bias gamma, maximizes min(eta1(a), cap - eta2(a) - h_b(gamma)) over
    the admissible corruption rates a in [0, 1 - h_b(gamma) / cap], then
    inverts h_b.  All points share one objective call over their
    concatenated grids and one golden refinement, whose lanes are the
    points with more than one grid point; each point is bit for bit its
    own one-point search.  Every gamma must lie in [0, gamma_star(delta)],
    checked for the whole batch before any work.
    """
    h_noise = _noise_entropy(delta)
    cap = 2.0 - h_noise
    gstar = binary_entropy_inverse(cap)
    gammas = [float(g) for g in gammas]
    for gamma in gammas:
        if gamma > gstar + 1e-12:
            raise ValueError(f"gamma {gamma} exceeds the threshold {gstar}")
        if not 0.0 <= gamma:
            raise ValueError("gamma must be non-negative")
    if not gammas:
        return ()
    hgs = np.array([binary_entropy(min(g, 0.5)) for g in gammas])
    alpha_maxs = [max(0.0, 1.0 - hg / cap) for hg in hgs.tolist()]
    counts = np.array([max(2, int(math.ceil(m / _FRONTIER_GRID_STEP)) + 1) if m > 0.0 else 1
                       for m in alpha_maxs])

    def objective(a, hg):
        h1, h2 = _eta_image_entropies(a, delta)
        return np.minimum(h1 - h_noise, cap - (2.0 - h2) - hg)

    alphas = np.concatenate([np.linspace(0.0, m, c) for m, c in zip(alpha_maxs, counts.tolist())])
    values = objective(alphas, np.repeat(hgs, counts))
    starts = np.cumsum(counts) - counts
    # np.argmax per point's grid: the first index holding its maximum
    top = np.repeat(np.maximum.reduceat(values, starts), counts)
    best = np.minimum.reduceat(np.where(values == top, np.arange(values.size), values.size), starts)
    alpha_hat, level = alphas[best], values[best]
    lanes = np.flatnonzero(counts > 1)
    if lanes.size:
        lo = alphas[np.maximum(starts, best - 1)[lanes]]
        hi = alphas[np.minimum(starts + counts - 1, best + 1)[lanes]]
        hg_lanes = hgs[lanes]
        a_ref, v_ref = _golden_max(lambda a: objective(a, hg_lanes), lo, hi, iters=48)
        better = v_ref > level[lanes]
        alpha_hat[lanes[better]], level[lanes[better]] = a_ref[better], v_ref[better]
    points = []
    for gamma, a, v in zip(gammas, alpha_hat.tolist(), level.tolist()):
        # At the threshold bias the admissible interval collapses to {0} and the
        # objective is zero up to bisection residue; snap that residue to an
        # exact endpoint rather than reporting h_b^{-1}(1e-13).
        sigma0 = 0.0 if v <= 1e-11 else binary_entropy_inverse(v)
        points.append(FrontierPoint(gamma, delta, sigma0, a, v))
    return tuple(points)


def sigma0_frontier(gamma: float, delta: float) -> FrontierPoint:
    """The frontier at one bias: sigma0_frontier_points([gamma], delta)[0]."""
    return sigma0_frontier_points([gamma], delta)[0]


# ---------------------------------------------------------------------------
# product-strategy search

# Coarse grid rows per top_k selection.  The chunks fix only the tie rule: each
# keeps its top_k by argpartition, and kept rows are ranked in chunk order.
_GRID_CHUNK = 1 << 18
# Largest coarse grid searched, about a minute at about 0.5 us a row: m = 22
# points a coordinate (coarse_step 1/21) is admitted, m = 23 is not.
_MAX_GRID_ROWS = 1 << 27
# Grid rows per kernel call.  The grid phase at m = 11, in-process (2-vCPU host,
# numpy 2.4.6, medians of 11 interleaved runs, against 4k-row slices on one
# thread): on one thread 8k-row slices took 0.88 of the time and 2k-row ones
# 1.17; on two threads 4k-row slices took 0.76, 8k-row ones 0.59 and 16k-row
# ones 0.52.  Larger slices spend longer in numpy loops that release the GIL,
# but each thread keeps a slice's temporaries, about 1 MiB at 8k rows, and at
# 16k rows the benchmark's peak RSS rose by 3.4 MiB.
_SLICE_ROWS = 1 << 13
# source cells (a, b, c) in the order their terms are added
_SOURCE_CELLS = tuple(itertools.product(range(2), repeat=3))


@dataclass(frozen=True)
class ProductSearchConfig:
    coarse_step: float = 0.1
    top_k: int = 32
    sweeps: int = 4
    golden_iters: int = 48

    def __post_init__(self):
        if not 0.0 < self.coarse_step <= 0.5:
            raise ValueError("coarse_step must lie in (0, 1/2]")
        if self.top_k < 1 or self.sweeps < 1 or self.golden_iters < 1:
            raise ValueError("search sizes must be positive")
        if self.grid_points**6 > _MAX_GRID_ROWS:
            raise ValueError(f"coarse_step {self.coarse_step} gives {self.grid_points}^6 grid "
                             f"rows, above the {_MAX_GRID_ROWS} row cap")

    @property
    def grid_points(self) -> int:
        """Points per coordinate of the coarse grid, 0 and 1 included."""
        return int(round(1.0 / self.coarse_step)) + 1


@dataclass(frozen=True)
class ProductSearchResult:
    value: float
    params: tuple[float, ...]
    candidates: tuple


def _flip_table(pairs) -> np.ndarray:
    """(..., 2, 2) table P(X | S) from (..., 2) rows (p|s=0, p|s=1), p|s = P(X = 1 | S = s)."""
    return np.stack([1.0 - pairs, pairs], axis=-1)


def _flip_tables(params) -> list[np.ndarray]:
    """The three users' (..., 2, 2) tables P(X_i | S_i) from (..., 6) flip rows
    (p1|s=0, p1|s=1, p2|s=0, ..., p3|s=1), where p_i|s = P(X_i = 1 | S_i = s).
    """
    return [_flip_table(params[..., 2 * u:2 * u + 2]) for u in range(3)]


def _induced_law(source_probs: np.ndarray, t1, t2, t3) -> np.ndarray:
    """The input law P(X1 = w, X2 = x, X3 = y) of the users' flip tables: (..., 2, 2, 2, n).

    t1 and t2 are (2, ..., 2, n) arrays holding P(X_i = x | S_i = s) at
    [s, ..., x, :].  t3 is one too, or a pair of (..., 2, n) arrays, one per s,
    whose shapes may differ: user 3's s = 0 and s = 1 rows may lie on axes of
    their own.  All shapes broadcast.  Each source cell's term
    ((P(a, b, c) t1[a, w]) t2[b, x]) t3[c, y] is taken at the broadcast shape
    of the rows it reads, one product per c for its four (a, b) cells, and the
    terms are summed in lexicographic order: bit for bit the sum at each row.
    """
    lead = (2, 2) + (1,) * (np.ndim(t1) + 1)
    terms = [
        ((source_probs[:, :, c].reshape(lead) * t1[:, None, ..., :, None, None, :])
         * t2[None, :, ..., None, :, None, :]) * t3[c][..., None, None, :, :]
        for c in (0, 1)
    ]
    total = terms[0][0, 0] + terms[1][0, 0]
    for a, b, c in _SOURCE_CELLS[2:]:
        total += terms[c][a, b]
    return total


def _mi_kernel(source_probs: np.ndarray, channel_table: np.ndarray):
    """Map from the users' flip tables to I(X1X2X3; Y) in bits, one value per row.

    The tables are as _induced_law takes them; the values of its (..., n)
    rows come out flat, n major.  The input law is copied cell-major, and its
    Y law is one einsum there, the in-order sum over the 8 input cells, whose
    (|Y|, rows) output _row_entropy reads as it is: row_sums adds its rows'
    terms by whole columns in numpy's order.  H(Y | X) is contracted on a
    row-major copy.  Both are the batched einsum's arithmetic bit for bit,
    whatever the rows and |Y|.
    """
    hcond = _row_entropy(np.moveaxis(channel_table, -1, 0))
    cell_rows = channel_table.reshape(8, -1)

    def tables_mi(t1, t2, t3) -> np.ndarray:
        law = _induced_law(source_probs, t1, t2, t3)
        cells = np.ascontiguousarray(law.reshape(-1, 8, law.shape[-1]).transpose(1, 2, 0))
        del law  # at most two slice-sized copies of the law live at once
        cells = cells.reshape(8, -1)
        hyx = np.einsum("gwxy,wxy->g", np.ascontiguousarray(cells.T).reshape(-1, 2, 2, 2), hcond)
        y_law = np.einsum("kg,kz->zg", cells, cell_rows)
        del cells  # before the entropy terms: every core holds one slice's temporaries
        return _row_entropy(y_law) - hyx

    return tables_mi


def _rows_mi(tables_mi, params: np.ndarray) -> np.ndarray:
    """tables_mi (see _mi_kernel) of each row of 6 flip parameters (see _flip_tables).

    The three users' tables are built as one contiguous (3, 2, 2, rows) array
    from a contiguous copy of the parameter columns: the kernel runs slower
    on tables that are views of a non-contiguous array.
    """
    flips = np.ascontiguousarray(params.T)
    return tables_mi(*np.stack([1.0 - flips, flips], axis=1).reshape(3, 2, 2, -1))


def _grid_slices(tables_mi, m: int):
    """Values of the m^6-row coarse grid in row order, one slice per yield.

    Grid row r has digits mixed_radix(r, m, 6) over np.linspace(0, 1, m), so
    user u's table is digit pair u, one of m^2.  A slice is one user-1 table
    against a run of user-2 tables and every user-3 table: about _SLICE_ROWS
    rows, whatever m.  User 3's s = 0 and s = 1 rows lie on broadcast axes
    of their own, before the run's axis, so each input-law term is taken once
    per user-2 table and user-3 digit it depends on.  Its values equal
    tables_mi on those rows' own tables.  The slices are computed on
    available_cores() threads (see _in_row_order), and no value depends on
    the slice's thread.
    """
    grid = np.linspace(0.0, 1.0, m)
    flips = _flip_table(grid)
    tables = flips[mixed_radix(np.arange(m * m), m, 2)]
    cells = np.ascontiguousarray(tables.transpose(1, 2, 0))[:, None, None]
    t3 = (flips[:, None, :, None], flips[None, :, :, None])
    run = max(1, _SLICE_ROWS // (m * m))

    def grid_slice(start):
        i1, i2 = start
        return tables_mi(cells[..., i1, None], cells[..., i2:i2 + run], t3)

    starts = ((i1, i2) for i1 in range(m * m) for i2 in range(0, m * m, run))
    yield from _in_row_order(grid_slice, starts, available_cores())


def _in_row_order(fn, items, workers: int):
    """fn(item) for each item, yielded in item order, computed on `workers` threads.

    Items are taken in runs of `workers`: the calling thread computes a run's
    first item while workers - 1 pool threads compute the rest, and the run's
    values are yielded once all of them are done, so at most one item per
    worker is in flight and none while the caller holds a value.  With one
    worker no pool is made.  The pool lives as long as the generator: an
    error in fn, or closing the generator early, starts no further item and
    joins the pool threads before the generator returns.
    """
    if workers <= 1:
        yield from map(fn, items)
        return
    from concurrent.futures import ThreadPoolExecutor

    items = iter(items)
    pool = ThreadPoolExecutor(max_workers=workers - 1)
    try:
        while run := list(itertools.islice(items, workers)):
            futures = [pool.submit(fn, item) for item in run[1:]]
            yield from [fn(run[0])] + [future.result() for future in futures]
    finally:
        pool.shutdown(cancel_futures=True)


def _grid_top(slices, total: int, top_k: int) -> tuple[np.ndarray, np.ndarray, int]:
    """(values, grid row ids) of the coarse grid's top_k under the tie rule (see
    _GRID_CHUNK), and the number of slices streamed.

    The streamed slices fill one _GRID_CHUNK buffer at a time.
    """
    chunk = np.empty(min(_GRID_CHUNK, total))
    kept_vals: list[np.ndarray] = []
    kept_ids: list[np.ndarray] = []
    start = filled = count = 0
    for count, vals in enumerate(slices, start=1):
        while vals.size:
            size = min(_GRID_CHUNK, total - start)
            n = min(size - filled, vals.size)
            chunk[filled:filled + n] = vals[:n]
            filled, vals = filled + n, vals[n:]
            if filled == size:
                take = min(top_k, size)
                part = np.argpartition(-chunk[:size], take - 1)[:take]
                kept_vals.append(chunk[part])
                kept_ids.append(start + part)
                start, filled = start + size, 0
    all_vals = np.concatenate(kept_vals)
    order = np.argsort(-all_vals, kind="stable")[:top_k]
    return all_vals[order], np.concatenate(kept_ids)[order], count


def max_product_mi(channel: DMChannel, source: SourceModel,
                   config: ProductSearchConfig | None = None) -> ProductSearchResult:
    """Deterministic maximization of I(inputs; output) over product strategies.

    Coarse 6-dimensional grid, then coordinate-wise golden refinement of the
    top_k grid points in lockstep.  The grid is evaluated separably: one
    user-1 table and a run of user-2 tables per slice, against user 3's
    s = 0 and s = 1 table rows on broadcast axes of their own, so each
    input-law term is taken once per grid digit it depends on (see
    _grid_slices).  The slices are computed on every core
    (rng.available_cores): on the calling thread and a thread pool that
    lives for the grid phase only.  The refinement stays on the calling
    thread: its kernel calls, a row per lane, are bound by the interpreter.
    It runs the same kernel on its rows, so every grid value is bit for bit
    its own row's, whatever its slice or thread, and ties cannot reorder.
    Only one _GRID_CHUNK value buffer, the kept rows and one slice in flight
    per core are held; params are rebuilt for the kept rows only.  A grid
    above _MAX_GRID_ROWS rows is refused when the config is built, before
    any work.  candidates holds every refined (value, params) pair, best
    first.  Tie rule: each _GRID_CHUNK chunk keeps its top_k by
    argpartition, then stable sorts rank the kept rows in chunk order and
    the refined rows in that selection order.  One DEBUG line on the trimac
    logger gives the grid rows, the slices _grid_top received, refinement
    kernel calls and each phase's seconds.
    """
    if channel.input_sizes != (2, 2, 2) or source.sizes != (2, 2, 2):
        raise ValueError("product search expects binary sources and binary channel inputs")
    cfg = config or ProductSearchConfig()
    kernel = _mi_kernel(source.joint.probs, channel.transition.table)
    calls = 0

    def tables_mi(*tables):
        nonlocal calls
        calls += 1
        return kernel(*tables)

    started = time.perf_counter()
    m = cfg.grid_points
    vals, ids, slices = _grid_top(_grid_slices(kernel, m), m**6, cfg.top_k)
    params = np.linspace(0.0, 1.0, m)[mixed_radix(ids, m, 6)]
    grid_s = time.perf_counter() - started

    for _ in range(cfg.sweeps):
        for c in range(6):
            lo = np.maximum(0.0, params[:, c] - cfg.coarse_step)
            hi = np.minimum(1.0, params[:, c] + cfg.coarse_step)
            # each lane scores its candidate's row with coordinate c moved to the lane's point
            t_best, v_best = _golden_max(
                lambda t, c=c: _rows_mi(tables_mi, np.where(np.arange(6) == c, t[:, None], params)),
                lo, hi, cfg.golden_iters)
            better = v_best > vals
            params[better, c] = t_best[better]
            vals = np.where(better, v_best, vals)
    _LOG.debug("product search: %d grid rows in %d slices, %.3f s; %d refinement kernel calls, "
               "%.3f s", m**6, slices, grid_s, calls,
               time.perf_counter() - started - grid_s)
    refined = sorted(zip(vals.tolist(), map(tuple, params.tolist())), key=lambda r: -r[0])
    best_val, best_params = refined[0]
    return ProductSearchResult(best_val, best_params, tuple(refined))


def product_conditionals(params) -> tuple[ConditionalPMF, ConditionalPMF, ConditionalPMF]:
    """Three (|S_i|, |X_i|) = (2, 2) flip conditionals from a 6-parameter row."""
    params = tuple(float(x) for x in params)
    if len(params) != 6 or not all(0.0 <= x <= 1.0 for x in params):
        raise ValueError("params must be six probabilities")
    return tuple(_cond(table, [(f"S{u}", 2)], [(f"X{u}", 2)])
                 for u, table in enumerate(_flip_tables(np.array(params)), start=1))


def _trivial_layers(source: SourceModel):
    """A one-symbol U123 and one-symbol pair layers sized for this source."""
    pair_conds = {}
    for b, res in gkw_pairs(source).items():
        n = res.component_count
        pair_conds[b] = _cond(np.ones((n, 1, 1)), [("W" + b, n), ("U123", 1)], [("U" + b, 1)])
    return JointPMF([("U123", 1)], [1.0]), pair_conds


def product_ces_dist(source: SourceModel, x_tables) -> CESDist:
    """Layered spec with every coordination layer trivial and product inputs."""
    u123, pair_conds = _trivial_layers(source)
    x_conds = []
    for i, raw in enumerate(x_tables, start=1):
        table = np.asarray(raw.table if isinstance(raw, ConditionalPMF) else raw, dtype=np.float64)
        ba, bb = USER_PAIRS[i]
        x_conds.append(_cond(
            table.reshape(table.shape[0], 1, 1, 1, table.shape[-1]),
            [(f"S{i}", table.shape[0]), ("U123", 1), ("U" + ba, 1), ("U" + bb, 1)],
            [(f"X{i}", table.shape[-1])],
        ))
    return CESDist(u123, pair_conds, tuple(x_conds))


def hybrid_example_dist(source: SourceModel, alpha: float) -> HybridDist:
    """The binary construction X1 = V1 xor E1 (E1 ~ Ber(alpha)), X2 = V2, X3 = V3."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    u123, pair_conds = _trivial_layers(source)
    x_conds = []
    for i in (1, 2, 3):
        ns = source.sizes[i - 1]
        table = np.zeros((ns, 1, 1, 1, 2, 2))
        for v in range(2):
            if i == 1:
                table[:, 0, 0, 0, v, v] = 1.0 - alpha
                table[:, 0, 0, 0, v, v ^ 1] = alpha
            else:
                table[:, 0, 0, 0, v, v] = 1.0
        ba, bb = USER_PAIRS[i]
        x_conds.append(_cond(
            table,
            [(f"S{i}", ns), ("U123", 1), ("U" + ba, 1), ("U" + bb, 1), (f"V{i}", 2)],
            [(f"X{i}", 2)],
        ))
    return HybridDist(2, u123, pair_conds, tuple(x_conds))


# ---------------------------------------------------------------------------
# total-variation separation


def min_tv_to_structured(input_joint: JointPMF, grid_step: float = 1.0 / 400.0):
    """Grid minimum of TV(input law, structured member) and its argmin.

    The structured family has two free cell masses, gridded over [0, 1/2].
    """
    if input_joint.shape != (2, 2, 2):
        raise ValueError("input law must be over three binary axes")
    _check_grid_step(grid_step)
    p = input_joint.probs
    a00, a11, a01, a10 = p[0, 0, 0], p[1, 1, 0], p[0, 1, 1], p[1, 0, 1]
    off = 1.0 - (a00 + a11 + a01 + a10)
    m = int(round(0.5 / grid_step)) + 1
    g = np.linspace(0.0, 0.5, m)
    d_a = np.abs(a00 - g) + np.abs(a11 - (0.5 - g))
    d_b = np.abs(a01 - g) + np.abs(a10 - (0.5 - g))
    tv = 0.5 * (off + d_a[:, None] + d_b[None, :])
    flat = int(np.argmin(tv))
    i, j = divmod(flat, m)
    return float(tv[i, j]), (float(g[i]), float(g[j]))


@dataclass(frozen=True)
class TVSample:
    sigma: float
    gamma: float
    params: tuple[float, ...]
    tv: float


@dataclass(frozen=True)
class TVBoundReport:
    """Sampled TV distances of product strategies; the JSON keys are the fields and satisfied."""

    delta: float
    gamma_star: float
    bound: float
    grid_slack: float
    samples: tuple[TVSample, ...]
    min_tv: float

    @property
    def satisfied(self) -> bool:
        return self.min_tv >= self.bound - self.grid_slack


def tv_bound_check(delta: float, sample_count: int, seed: int,
                   grid_step: float = 1.0 / 400.0) -> TVBoundReport:
    """Sampled check that product strategies stay TV-far from structured laws.

    Each sample draws a non-degenerate source (sigma in (0, 1/2], gamma in
    (0, gamma_star]) and random flip conditionals, forms the induced input
    law, and measures its grid-minimum TV distance to the structured family.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be positive")
    _check_grid_step(grid_step)
    gstar = gamma_star(delta)
    bound = 1.0 / 6.0 - gstar / 3.0
    rng = stream(seed, 40)
    samples = []
    for _ in range(sample_count):
        sigma = 0.5 * (1.0 - float(rng.random()))
        gamma = gstar * (1.0 - float(rng.random()))
        params = rng.random(6)
        source = make_sigma_gamma_triple(sigma, gamma)
        tables = (t[..., None] for t in _flip_tables(params))
        induced = _induced_law(source.joint.probs, *tables)[..., 0]
        law = JointPMF([("X1", 2), ("X2", 2), ("X3", 2)], induced)
        tv, _ = min_tv_to_structured(law, grid_step)
        samples.append(TVSample(sigma, gamma, tuple(float(x) for x in params), tv))
    min_tv = min(s.tv for s in samples)
    return TVBoundReport(delta, gstar, bound, grid_step, tuple(samples), min_tv)


# ---------------------------------------------------------------------------
# feedback block conditions


@dataclass(frozen=True)
class MacFBReport(RegionReport):
    """Feedback-block report plus the laws and terms behind every row.

    joint chains the factors out on first access.  entropy_terms /
    w_entropy_terms map frozen axis groups to bits; mi_groups / w_groups map
    a row id to ((sign, group), ...), the groups its rhs / lhs expression
    reads, so each side can be recomputed term by term; derived_axes
    describes the linear axes (TA*, WA*), the coupling (T1, T2, -(T1 + T2))
    mod q of T and of W, as {"base": names, "coeffs": ints, "q": modulus}.
    """

    factors: tuple
    w_joint: JointPMF
    entropy_terms: dict
    w_entropy_terms: dict
    mi_groups: dict
    w_groups: dict
    derived_axes: dict
    alpha: float

    @functools.cached_property
    def joint(self) -> JointPMF:
        return chain_all(self.factors)


def eval_macfb(rates, alpha: float, dist: MacFBDist, channel: DMChannel,
               w_laws=None) -> MacFBReport:
    """Feedback block conditions from the two-copy joint.

    The previous block (axes suffixed t) is a full class member; the
    current block reuses its T axes through V = (T1t, T2t, -(T1t + T2t))
    mod q, uniform on the zero-sum plane as T is uniform (WA is the same
    map of W).  rates are matched against alpha * H(W_i) as equalities;
    the remaining rows bound scaled W entropies by mutual informations on
    the two-copy joint, which stays factored: no term needs it multiplied out.
    """
    rates = tuple(float(r) for r in rates)
    if len(rates) != 3 or not all(math.isfinite(r) and r >= 0.0 for r in rates):
        raise ValueError("rates must be three finite non-negative numbers")
    if not (math.isfinite(alpha) and alpha >= 0.0):
        raise ValueError("alpha must be finite and non-negative")
    q = dist.q
    nu = dist.p_u.shape[0]
    for i in (1, 2, 3):
        if dist.x_conds[i - 1].table.shape[-1] != channel.input_sizes[i - 1]:
            raise FactorizationError(
                f"x{i} conditional does not match channel input {i}"
            )

    # V = (T1, T2, -(T1 + T2)) mod q, one coefficient row per V axis: zero-sum for every T
    coupling = ((1, 0, 0), (0, 1, 0), (q - 1, q - 1, 0))

    def couple(*t):
        return tuple(sum(c * x for c, x in zip(row, t)) % q for row in coupling)

    if w_laws is None:
        w_laws = tuple(np.full(q, 1.0 / q) for _ in range(3))
    if len(w_laws) != 3:
        raise ValueError("w_laws must hold one law per user")
    w_names = [("W1", q), ("W2", q), ("W3", q)]
    w_factors = (
        [_indep([w_names[i]], np.asarray(w_laws[i], dtype=np.float64)) for i in range(3)]
        + [deterministic_conditional(w_names, [(f"WA{i}", q)], lambda *w, i=i: couple(*w)[i - 1])
           for i in (1, 2, 3)]
    )

    ct = channel.transition.table

    def block(sfx):
        return [
            _cond(t.table, [(f"U{sfx}", nu), (f"T{i}{sfx}", q), (f"V{i}{sfx}", q)],
                  [(f"X{i}{sfx}", t.table.shape[-1])])
            for i, t in enumerate(dist.x_conds, start=1)
        ] + [_cond(ct, [(f"X{i}{sfx}", channel.input_sizes[i - 1]) for i in (1, 2, 3)],
                   [(f"Y{sfx}", ct.shape[-1])])]

    # two-copy joint: prior block first, then the current one
    factors = [
        _indep([("Ut", nu)], dist.p_u.probs),
        _indep([("V1t", q), ("V2t", q), ("V3t", q)], _plane_probs(q)),
        _indep([("T1t", q), ("T2t", q), ("T3t", q)], _uniform_cube(q)),
        *block("t"),
        _indep([("U", nu)], dist.p_u.probs),
        deterministic_conditional([(f"T{i}t", q) for i in (1, 2, 3)],
                                  [(f"V{i}", q) for i in (1, 2, 3)], couple),
        _indep([("T1", q), ("T2", q), ("T3", q)], _uniform_cube(q)),
        *block(""),
    ]
    derived_axes = {
        f"{ax}{i}": {"base": tuple(f"{base}{k}" for k in (1, 2, 3)),
                     "coeffs": coupling[i - 1], "q": q}
        for ax, base in (("TA", "T"), ("WA", "W")) for i in (1, 2, 3)
    }
    ledger = _EntropyLedger(factors, {
        name: (info["base"], info["coeffs"], q) for name, info in derived_axes.items()
        if name.startswith("TA")
    })

    w_ledger = _EntropyLedger(w_factors)
    rows = []

    def add(rid, lhs, mis=(), rhs=0.0, equality=False):
        """Row rid: alpha times a W entropy against rhs plus I(a; b | g) per (a, b, g)."""
        for a, b, g in mis:
            rhs += ledger.mi(a, b, g)
        rows.append((rid, alpha * lhs, rhs, equality))

    def build():
        for i in (1, 2, 3):
            add(f"rate-match-{i}", w_ledger.cond_entropy((f"W{i}",)), rhs=rates[i - 1], equality=True)
        for i in (1, 2, 3):
            add(f"sum-decode-{i}", w_ledger.cond_entropy((f"WA{i}",), (f"W{i}",)),
                [((f"TA{i}",), ("Y",), ("U", f"T{i}", f"V{i}", f"X{i}"))])
        for i in (1, 2, 3):
            j, k = sorted({1, 2, 3} - {i})
            add(f"cross-pair-{i}", w_ledger.cond_entropy((f"W{j}", f"W{k}"), (f"WA{i}", f"W{i}")), [(
                (f"T{j}t", f"X{j}t", f"T{k}t", f"X{k}t"),
                ("Y", "Yt"),
                ("Ut", f"X{i}t", f"T{i}t", f"V{i}t", "U", f"X{i}", f"T{i}", f"V{i}", f"V{j}t", f"V{k}t"),
            )])
        for subset in USER_SUBSETS:
            rest = sorted({1, 2, 3} - set(subset))
            given = ("U",) + tuple(f"{ax}{i}" for i in rest for ax in ("X", "T", "V")) + ("V1t", "V2t", "V3t")
            add(f"list-{_subset_tag(subset)}",
                w_ledger.cond_entropy(tuple(f"W{i}" for i in subset)) if subset else 0.0,
                [(tuple(f"X{i}" for i in subset), ("Y",), given), (("U",), ("Y",), ())])
        return rows

    records = _evaluate("macfb", build, ledger, w_ledger)
    ledger.log("macfb")

    def groups(side):
        return tuple((sign, group) for sign, _, group in _leaves(side))

    return MacFBReport(
        "macfb", records, ledger.factors, chain_all(w_factors), dict(ledger.terms),
        dict(w_ledger.terms), {rid: groups(rhs) for rid, _, rhs, _ in rows},
        {rid: groups(lhs) for rid, lhs, _, _ in rows}, derived_axes, alpha,
    )
