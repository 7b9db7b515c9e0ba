"""Dense joint distributions over named finite axes, and their information measures.

A JointPMF is a numpy tensor with one named axis per variable; a
ConditionalPMF is one factor of a law, P(targets | givens).  `chain_all`
multiplies an ordered list of conditionals out into one tensor, but the
region evaluators keep large laws factored and read each entropy off a
marginal contracted from the factors it needs; a small chained law keeps
its nonzero cells (`support_cells`), and `cells_marginal` sums a marginal
from them in numpy's own association, so its bits are `ndarray.sum`'s;
`row_sums` adds short rows the same way, a whole column per numpy call.
Tensors are capped at 1e8 cells, checked before anything is allocated;
axis names are unique per tensor; all masses are validated at
construction.

The module also owns the package's one inverse-CDF draw, `sample_given`,
whose rule is count(cdf <= u): a uniform u picks the first symbol whose
cumulative mass exceeds it, so a zero-mass symbol is never drawn.
`sample_cells` is that draw over a flattened joint.  Beside it sits the
one digit codec: `mixed_radix` enumerates digit tuples and `radix_ids`
inverts it.

Entropies are in bits throughout, with the 0 log 0 = 0 convention.
"""

from __future__ import annotations

import math
import operator

import numpy as np

__all__ = [
    "JointPMF",
    "ConditionalPMF",
    "entropy",
    "array_entropy",
    "row_sums",
    "segment_entropies",
    "support_cells",
    "cells_marginal",
    "conditional_entropy",
    "mutual_information",
    "clamp_mi",
    "binary_entropy",
    "binary_entropy_inverse",
    "chain",
    "chain_all",
    "check_cells",
    "push_forward",
    "marginalize",
    "deterministic_conditional",
    "mixed_radix",
    "radix_ids",
    "sample_cells",
    "sample_given",
]

MAX_CELLS = 10**8
MASS_TOL = 1e-12
# Mutual information may come out slightly negative from float round-off.
MI_CLAMP = -1e-10


def _norm_axes(axes) -> tuple[tuple[str, int], ...]:
    """(name, size) pairs, each size an integer (a numpy one too) of at least 1."""
    out = []
    for name, size in axes:
        if not isinstance(name, str) or not name:
            raise ValueError("axis names must be non-empty strings")
        try:
            size = operator.index(size)
        except TypeError:
            raise ValueError(f"axis {name!r} size {size!r} is not an integer") from None
        if size < 1:
            raise ValueError(f"axis {name!r} size must be >= 1, got {size}")
        out.append((name, size))
    names = [n for n, _ in out]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate axis names in {names}")
    return tuple(out)


def check_cells(shape) -> None:
    """Raise before a tensor of this shape would pass the MAX_CELLS cap."""
    cells = math.prod(shape)
    if cells > MAX_CELLS:
        raise ValueError(f"{cells} cells exceeds the {MAX_CELLS} dense-tensor cap")


def _norm_names(names) -> tuple[str, ...]:
    if isinstance(names, str):
        return (names,)
    return tuple(names)


class JointPMF:
    """Joint distribution over named finite axes, stored dense and read-only."""

    def __init__(self, axes, probs):
        self.axes = _norm_axes(axes)
        self.names = tuple(n for n, _ in self.axes)
        shape = tuple(size for _, size in self.axes)
        check_cells(shape)
        p = np.array(probs, dtype=np.float64, copy=True, order="C").reshape(shape)
        if p.size and not p.min() >= 0.0:
            raise ValueError("negative or NaN probability mass")
        total = float(p.sum())
        if abs(total - 1.0) > MASS_TOL:
            raise ValueError(f"total mass {total!r} is not 1 within {MASS_TOL}")
        p.flags.writeable = False
        self.probs = p

    @classmethod
    def _wrap(cls, axes, probs: np.ndarray) -> "JointPMF":
        """A tensor already known to be a law (a law times a conditional): no copy, no checks."""
        self = cls.__new__(cls)
        self.axes = _norm_axes(axes)
        self.names = tuple(n for n, _ in self.axes)
        probs.flags.writeable = False
        self.probs = probs
        return self

    @property
    def shape(self) -> tuple[int, ...]:
        return self.probs.shape

    def axis_index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"no axis named {name!r}; have {self.names}") from None

    def marginal_array(self, keep) -> np.ndarray:
        """Marginal tensor over `keep` in the given order."""
        keep = _norm_names(keep)
        idx = [self.axis_index(n) for n in keep]
        drop = tuple(i for i in range(len(self.axes)) if i not in idx)
        m = self.probs.sum(axis=drop) if drop else self.probs
        kept_in_orig = [i for i in range(len(self.axes)) if i not in drop]
        perm = [kept_in_orig.index(i) for i in idx]
        return np.transpose(m, axes=perm)

    def to_json(self) -> dict:
        return {
            "axes": [{"name": n, "size": size} for n, size in self.axes],
            "probs": [float(x) for x in self.probs.ravel()],
        }


class ConditionalPMF:
    """P(targets | givens), stored as a tensor of shape given_shape + target_shape."""

    def __init__(self, given_axes, target_axes, table):
        self.given_axes = _norm_axes(given_axes) if given_axes else ()
        self.target_axes = _norm_axes(target_axes)
        g_names = {n for n, _ in self.given_axes}
        if any(n in g_names for n, _ in self.target_axes):
            raise ValueError("target axes overlap given axes")
        g_shape = tuple(size for _, size in self.given_axes)
        t_shape = tuple(size for _, size in self.target_axes)
        tab = np.array(table, dtype=np.float64, copy=True).reshape(g_shape + t_shape)
        if tab.size and not tab.min() >= 0.0:
            raise ValueError("negative or NaN conditional mass")
        flat = tab.reshape(int(np.prod([*g_shape, 1], dtype=np.int64)), -1)
        sums = flat.sum(axis=1)
        if sums.size and np.abs(sums - 1.0).max() > MASS_TOL:
            worst = float(np.abs(sums - 1.0).max())
            raise ValueError(f"a conditional slice misses mass 1 by {worst!r}")
        tab = np.ascontiguousarray(tab)
        tab.flags.writeable = False
        self.table = tab

    @property
    def given_names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.given_axes)

    @property
    def target_names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.target_axes)

    @classmethod
    def from_joint(cls, joint: JointPMF) -> "ConditionalPMF":
        """Wrap an unconditional law as a conditional with no given axes."""
        return cls((), joint.axes, joint.probs)


def marginalize(p: JointPMF, keep) -> JointPMF:
    """Marginal joint over `keep`, axes in the requested order."""
    keep = _norm_names(keep)
    return JointPMF([p.axes[p.axis_index(n)] for n in keep], p.marginal_array(keep))


def entropy(p: JointPMF, axes=None) -> float:
    """H of the marginal over `axes` (all axes when omitted), in bits."""
    if axes is None:
        m = p.probs
    else:
        axes = _norm_names(axes)
        idx = sorted(p.axis_index(n) for n in axes)
        drop = tuple(i for i in range(len(p.axes)) if i not in idx)
        m = p.probs.sum(axis=drop) if drop else p.probs
    return array_entropy(m)


def array_entropy(m: np.ndarray) -> float:
    """H of a mass tensor in bits, summed over its positive cells in C order."""
    flat = np.ravel(m)
    pos = flat[flat > 0.0]
    return float(-(pos * np.log2(pos)).sum() + 0.0)  # keep -0.0 out of reports


def row_sums(cols: np.ndarray) -> np.ndarray:
    """Bit for bit ndarray.sum(axis=-1) of the rows whose cells are cols[0], cols[1], ...

    cols is a float array whose first axis holds a row's k >= 1 cells, at
    any strides; the sums have the shape of one column.  numpy reduces each
    row of a C-contiguous array by one call of its pairwise_sum
    (numpy/_core/src/umath/loops_utils.h.src), added to a 0.0 start: fewer
    than 8 cells in order; 8 to 128 cells in 8 lanes, lane j taking cells
    j, j + 8, ... up to the last multiple of 8, combined as
    ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then the rest in
    order; above 128 cells, the sum of the two parts split at half the
    count, rounded down to a multiple of 8.  Here each add is one numpy call
    over whole columns, where the reduce makes one call per row.  Only a
    zero's sign can tell the 0.0 start apart, so adding 0.0 at any point of
    the sum, once or more, gives the same bits.
    """
    n = len(cols)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return row_sums(cols[:half]) + row_sums(cols[half:])
    if n < 8:
        total = cols[0] + 0.0
        rest = cols[1:]
    else:
        whole = n - n % 8
        r = list(cols[:8])
        for i in range(8, whole, 8):
            r = [lane + col for lane, col in zip(r, cols[i:i + 8])]
        total = r[0] + r[1]
        total += r[2] + r[3]
        quad = r[4] + r[5]
        quad += r[6] + r[7]
        total += quad
        total += 0.0
        rest = cols[whole:]
    for col in rest:
        total += col
    return total


def segment_entropies(parts) -> list[float]:
    """H in bits of each segment of each part, in order, bit for bit array_entropy of it alone.

    A part is (flat, bounds): a 1-D mass array whose segment i is
    flat[bounds[i]:bounds[i + 1]].  One segment's entropy is
    -(pos * log2(pos)).sum() over its positive cells pos in order.  Here the
    positive cells of every segment are concatenated and their p*log2(p)
    terms taken in one pass; then the segments with the same number of
    positive cells are summed together, one row each, by one .sum(axis=1),
    which adds each row as numpy adds it alone.
    """
    pos, counts = [], []
    for flat, bounds in parts:
        cut = flat[bounds[0]:bounds[-1]]
        positive = cut > 0.0
        pos.append(cut[positive])
        if len(bounds) == 2:
            counts.append([pos[-1].size])
        else:
            at = np.searchsorted(np.flatnonzero(positive), np.subtract(bounds, bounds[0]))
            counts.append(np.diff(at))
    counts = np.concatenate(counts)
    first = (np.cumsum(counts) - counts).tolist()
    pos = np.concatenate(pos) if len(pos) > 1 else pos[0]
    terms = np.log2(pos)
    terms *= pos
    del pos
    rows_by_count = {}
    for row, count in enumerate(counts.tolist()):
        rows_by_count.setdefault(count, []).append(row)
    sums = np.empty(counts.size)
    for count, rows in rows_by_count.items():
        if len(rows) == 1:
            sums[rows[0]] = terms[first[rows[0]]:first[rows[0]] + count].sum()
        else:
            starts = np.array([first[row] for row in rows])
            sums[rows] = terms[starts[:, None] + np.arange(count)].sum(axis=1)
    return (-sums + 0.0).tolist()  # keep -0.0 out of reports


def support_cells(probs: np.ndarray):
    """The nonzero cells of a C-contiguous tensor as (flat ids ascending, digits, masses).

    digits holds one row per axis.  None for a tensor that is not
    C-contiguous: cells_marginal reproduces numpy's sums only in C order.
    """
    if not probs.flags.c_contiguous:
        return None
    ids = np.flatnonzero(probs)
    dtype = np.min_scalar_type(max(probs.shape, default=1) - 1)
    digits = np.array(np.unravel_index(ids, probs.shape), dtype=dtype).reshape(probs.ndim, -1)
    return ids, digits, probs.ravel()[ids]


def cells_marginal(shape, cells, keeps) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Marginals of one law over several keep sets, each bit for bit probs.sum(axis=<the rest>).

    cells is support_cells(probs), or None; keeps holds one row per
    marginal, True on each axis it keeps.  Returns (flat, bounds, left):
    marginal g is flat[bounds[g]:bounds[g + 1]] in C order.  left marks
    the marginals whose slices the caller fills with numpy's sum: all of
    them without cells, else those whose trailing summed run has 8 or more
    cells, which numpy sums pairwise (cheap on the dense tensor).

    numpy drops size-1 axes, merges neighbouring axes that are both kept
    or both summed, and walks the tensor in C order.  When the trailing
    summed run has fewer than 8 cells, it adds each run in order from 0.0
    (pairwise_sum adds runs that short in order; a trailing kept axis makes
    runs of one cell) and adds the run sums into the output in memory
    order.  Here one in-order bincount per distinct run length adds the
    runs, shared by every marginal with that length; one int64 product of
    the stride matrix by the digits gives each run's output cell, offset
    by its marginal's bound; and one in-order bincount adds the run sums.
    A zero cell adds nothing.
    """
    keep = np.asarray(keeps, dtype=bool).reshape(-1, len(shape))
    sizes = np.where(keep, shape, 1)
    inner = np.cumprod(sizes[:, ::-1], axis=1)[:, ::-1]  # inner[g, a]: cells of g from axis a on
    bounds = np.zeros(len(keep) + 1, dtype=np.int64)
    np.cumsum(inner[:, 0], out=bounds[1:])
    if cells is None:
        return np.empty(bounds[-1]), bounds, np.ones(len(keep), dtype=bool)
    tail = np.cumprod((1, *shape[::-1]))[::-1]  # tail[a]: cells of the law from axis a on
    run = tail[np.where(sizes > 1, np.arange(len(shape)), -1).max(axis=1) + 1]
    left = run >= 8
    ids, digits, mass = cells
    stride = inner // sizes * keep
    keys, weights = [], []
    for length in sorted(set(run[~left].tolist())):
        rows = np.flatnonzero(run == length)
        heads, sums = digits, mass
        if length > 1:
            runs = ids // length
            opens = np.empty(runs.size, dtype=bool)
            opens[:1] = True
            np.not_equal(runs[1:], runs[:-1], out=opens[1:])
            heads, sums = digits[:, opens], np.bincount(np.cumsum(opens) - 1, weights=mass)
        # run by run, each marginal's output cell: every marginal's runs stay in order
        keys.append((heads.T @ stride[rows].T + bounds[rows]).ravel())
        weights.append(np.repeat(sums, rows.size))
    if keys:
        return np.bincount(np.concatenate(keys), np.concatenate(weights), bounds[-1]), bounds, left
    return np.empty(bounds[-1]), bounds, left


def conditional_entropy(p: JointPMF, target, given=()) -> float:
    """H(target | given) = H(target, given) - H(given)."""
    target = _norm_names(target)
    given = _norm_names(given)
    if set(target) & set(given):
        raise ValueError("target and given overlap")
    if not given:
        return entropy(p, target)
    return entropy(p, target + given) - entropy(p, given)


def mutual_information(p: JointPMF, a, b, given=()) -> float:
    """I(a; b | given) in bits, clamped at tiny negative round-off."""
    a = _norm_names(a)
    b = _norm_names(b)
    given = _norm_names(given)
    if (set(a) & set(b)) or (set(a) & set(given)) or (set(b) & set(given)):
        raise ValueError("a, b, given must be pairwise disjoint")
    return clamp_mi(conditional_entropy(p, a, given) - conditional_entropy(p, a, b + given))


def clamp_mi(mi: float) -> float:
    """A mutual information difference with round-off below zero set to 0; raises below MI_CLAMP."""
    if mi < 0.0:
        if mi < MI_CLAMP:
            raise ValueError(f"mutual information {mi!r} below round-off clamp {MI_CLAMP}")
        mi = 0.0
    return mi


def binary_entropy(p: float) -> float:
    """h_b(p) in bits for p in [0, 1]."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if p == 0.0 or p == 1.0:
        return 0.0
    return float(-p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p))


def binary_entropy_inverse(h: float) -> float:
    """The p in [0, 1/2] with h_b(p) = h, by bisection to |h_b(p) - h| <= 1e-12."""
    if not 0.0 <= h <= 1.0:
        raise ValueError("h must lie in [0, 1]")
    if h == 0.0:
        return 0.0
    if h == 1.0:
        return 0.5
    lo, hi = 0.0, 0.5
    mid = 0.25
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        val = binary_entropy(mid)
        if abs(val - h) <= 1e-12:
            return mid
        if val < h:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-18:
            break
    return mid


def chain(base: JointPMF, cond: ConditionalPMF) -> JointPMF:
    """Extend `base` by the conditional law, giving a joint over both axis sets.

    cond's given axes must all be present in base; target axes are appended.
    Mass is preserved exactly up to float arithmetic.
    """
    for name, size in cond.given_axes:
        if base.shape[base.axis_index(name)] != size:
            raise ValueError(f"axis {name!r} size mismatch between base and conditional")
    t_shape = tuple(size for _, size in cond.target_axes)
    check_cells(base.shape + t_shape)
    # Align cond.table to base's axis order, singleton for non-given axes.
    given = cond.given_names
    perm = sorted(range(len(given)), key=lambda i: base.axis_index(given[i]))
    tab = np.transpose(
        cond.table,
        axes=[*perm, *range(len(given), len(given) + len(t_shape))],
    )
    aligned_shape = tuple(
        base.shape[i] if base.names[i] in given else 1 for i in range(len(base.shape))
    )
    tab = tab.reshape(aligned_shape + t_shape)
    out = base.probs.reshape(base.shape + (1,) * len(t_shape)) * tab
    return JointPMF._wrap(base.axes + cond.target_axes, out)


def chain_all(factors) -> JointPMF:
    """Joint law of conditionals listed givens first, chained in order.

    The cell cap is checked on the whole product before anything is allocated.
    """
    first, *rest = factors
    check_cells([size for f in (first, *rest) for _, size in f.target_axes])
    joint = JointPMF(first.target_axes, first.table)
    for cond in rest:
        joint = chain(joint, cond)
    return joint


def _cellwise(fn, shape, axes) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Index rows of every cell of `shape` and fn's destinations on them, each range-checked."""
    grids = np.indices(shape).reshape(len(shape), -1)
    out = fn(*grids)
    dest = out if isinstance(out, tuple) else (out,)
    if len(dest) != len(axes):
        raise ValueError(f"fn returned {len(dest)} index arrays for {len(axes)} axes")
    # a destination constant over some axes is broadcast to every cell
    dest = tuple(np.broadcast_to(d, grids.shape[1:]) for d in dest)
    for d, (name, size) in zip(dest, axes):
        if d.min() < 0 or d.max() >= size:
            raise ValueError(f"derived axis {name!r} values escape [0, {size})")
    return grids, dest


def push_forward(p: JointPMF, mapping, new_axes) -> JointPMF:
    """Image law of `p` under `mapping`.

    mapping takes one flat index array per axis of p, covering every cell,
    and returns one index array (or a tuple of them) per new axis.
    """
    new_axes = _norm_axes(new_axes)
    out_shape = tuple(size for _, size in new_axes)
    check_cells(out_shape)
    _, dest = _cellwise(mapping, p.shape, new_axes)
    out = np.zeros(out_shape, dtype=np.float64)
    np.add.at(out, dest, p.probs.ravel())
    return JointPMF(new_axes, out)


def deterministic_conditional(given_axes, target_axes, fn) -> ConditionalPMF:
    """Conditional that puts mass 1 on fn(given symbols) for every given cell (fn as in push_forward)."""
    given_axes = _norm_axes(given_axes)
    target_axes = _norm_axes(target_axes)
    g_shape = tuple(size for _, size in given_axes)
    t_shape = tuple(size for _, size in target_axes)
    check_cells(g_shape + t_shape)
    grids, dest = _cellwise(fn, g_shape, target_axes)
    table = np.zeros(g_shape + t_shape, dtype=np.float64)
    table[tuple(grids) + dest] = 1.0
    return ConditionalPMF(given_axes, target_axes, table)


def mixed_radix(ids, base: int, width: int) -> np.ndarray:
    """Base-`base` digits of each id, most significant first, shape (len(ids), width).

    Over ids 0, 1, ... the rows run in itertools.product(range(base), repeat=width) order.
    """
    rest = np.array(ids, dtype=np.int64)
    out = np.empty((rest.shape[0], width), dtype=np.int64)
    for pos in range(width - 1, -1, -1):
        out[:, pos] = rest % base
        rest //= base
    return out


def radix_ids(digits, base: int) -> np.ndarray:
    """Inverse of mixed_radix along the last axis: the id of each base-`base` digit row."""
    digits = np.asarray(digits, dtype=np.int64)
    return digits @ base ** np.arange(digits.shape[-1] - 1, -1, -1, dtype=np.int64)


def _pinned_cdf(probs: np.ndarray) -> np.ndarray:
    """Cumulative sums along the last axis, every entry at or past its row total set to 1.

    A law may miss mass 1 by up to MASS_TOL; unpinned, a uniform draw above a
    row's total would land past its last cell with mass.
    """
    cdf = np.cumsum(probs, axis=-1)
    cdf[cdf >= cdf[..., -1:]] = 1.0
    return cdf


def sample_cells(p: JointPMF, size, rng: np.random.Generator) -> tuple[np.ndarray, ...]:
    """Draw iid cells from the joint, `size` a count or a shape; one index array per axis."""
    return np.unravel_index(sample_given(p.probs.ravel(), (), rng.random(size)), p.shape)


def sample_given(table: np.ndarray, given, u: np.ndarray) -> np.ndarray:
    """One target symbol per cell of the given index arrays, from a conditional table.

    table is laid out given axes first, target axis last; given holds one
    index array per given axis, all of one shape, which the result takes
    (no arrays for a table with no given axes: the result takes u's shape).
    u holds one uniform in [0, 1) per drawn symbol, in that shape: for
    instance generator.random(shape), or rows of rng.uniforms.

    The drawn symbol is count(cdf <= u) over the row's pinned CDF, the rule
    of np.searchsorted(cdf, u, side="right"): symbol t is drawn for u in
    [cdf[t-1], cdf[t]), which is empty when t has no mass.  The cells of a
    row with cdf <= u are a prefix of it, so a table with one row is
    bisected; otherwise the draw adds one target column at a time, read at
    the flat given cell.
    """
    cdf = _pinned_cdf(np.asarray(table))
    cell = np.ravel_multi_index(tuple(given), cdf.shape[:-1])
    if np.shape(cell) not in ((), u.shape):
        raise ValueError(f"uniforms of shape {u.shape} for draws of shape {np.shape(cell)}")
    rows = cdf.reshape(-1, cdf.shape[-1])
    if rows.shape[0] == 1:
        return np.searchsorted(rows[0], u, side="right")
    out = np.zeros(u.shape, dtype=np.int64)
    for column in rows.T[:-1]:  # the last entry is pinned to 1, above every uniform
        out += column[cell] <= u
    return out
