"""The batched line searches against the per-point code they replaced.

The reference functions below are the former implementations, kept as
oracles: the one-lane golden-section search, the product search that refined
one candidate row at a time through one-row kernel calls, and eta1/eta2 as
entropies of push_forward image laws.  The batched code must equal them
exactly, not within a tolerance: on the small-gamma plateau of the frontier
and among the tied maxima of the product search, the last bit decides which
point is reported.

product_search_pins.json holds max_product_mi results recorded from the
per-row implementation on the acceptance-test sources and on a source whose
quick search has three exactly tied maxima; they pin the tie order.

The coarse grid is evaluated separably, slice by slice; every streamed
value must equal the row kernel's on that row, whatever the number of
threads computing the slices, and the row kernel must equal the batched
einsum it replaced, so grid ties cannot reorder.
"""

from __future__ import annotations

import itertools
import json
import logging
import math
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from trimac.channels import DMChannel, build_quaternary_channel, quaternary_noise_law
from trimac.cli import run
from trimac.probcore import (
    ConditionalPMF,
    JointPMF,
    binary_entropy,
    binary_entropy_inverse,
    entropy,
    mixed_radix,
    push_forward,
)
from trimac.regions import (
    FrontierPoint,
    ProductSearchConfig,
    _flip_table,
    _flip_tables,
    _golden_max,
    _grid_slices,
    _in_row_order,
    _mi_kernel,
    _rows_mi,
    eta1,
    eta2,
    gamma_star,
    max_product_mi,
    sigma0_frontier,
    sigma0_frontier_points,
)
import trimac.regions as regions
from trimac.sources import SourceModel, make_sigma_gamma_triple

PINS = json.loads((Path(__file__).parent / "product_search_pins.json").read_text())
QUICK = ProductSearchConfig(coarse_step=0.2, top_k=12, sweeps=2, golden_iters=32)
SMALL = ProductSearchConfig(coarse_step=0.25, top_k=4, sweeps=2, golden_iters=24)
TIED = (0.40036971481613076, 0.44812267709330644)


# ---------------------------------------------------------------------------
# reference implementations


def golden_max_oracle(f, lo, hi, iters):
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = f(x1), f(x2)
    for _ in range(iters):
        if f1 >= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = f(x2)
    mid = 0.5 * (lo + hi)
    return mid, f(mid)


def noise_entropy(delta):
    return entropy(JointPMF([("N", 4)], quaternary_noise_law(delta)))


def eta1_oracle(alpha, delta):
    noise = quaternary_noise_law(delta)
    base = JointPMF([("E", 2), ("N", 4)], np.outer([1.0 - alpha, alpha], noise))
    image = push_forward(base, lambda e, n: ((e + n) % 4,), [("Z", 4)])
    return entropy(image) - noise_entropy(delta)


def eta2_oracle(alpha, delta):
    noise = quaternary_noise_law(delta)
    probs = np.multiply.outer([0.5, 0.5], np.outer([1.0 - alpha, alpha], noise))
    base = JointPMF([("V", 2), ("E", 2), ("N", 4)], probs)
    image = push_forward(base, lambda v, e, n: (((v ^ e) + v + n) % 4,), [("Z", 4)])
    return 2.0 - entropy(image)


def frontier_oracle(gamma, delta, grid_step=1e-3):
    cap = 2.0 - noise_entropy(delta)
    hg = binary_entropy(min(gamma, 0.5))
    alpha_max = max(0.0, 1.0 - hg / cap)

    def objective(a):
        return min(eta1_oracle(a, delta), cap - eta2_oracle(a, delta) - hg)

    count = max(2, int(math.ceil(alpha_max / grid_step)) + 1) if alpha_max > 0.0 else 1
    alphas = np.linspace(0.0, alpha_max, count)
    values = np.array([objective(float(a)) for a in alphas])
    best = int(np.argmax(values))
    alpha_hat, level = float(alphas[best]), float(values[best])
    if count > 1:
        lo = float(alphas[max(0, best - 1)])
        hi = float(alphas[min(count - 1, best + 1)])
        a_ref, v_ref = golden_max_oracle(objective, lo, hi, iters=48)
        if v_ref > level:
            alpha_hat, level = a_ref, v_ref
    if level <= 1e-11:
        return FrontierPoint(gamma, delta, 0.0, alpha_hat, level)
    return FrontierPoint(gamma, delta, binary_entropy_inverse(level), alpha_hat, level)


def mi_kernel_oracle(source_probs, channel_table):
    w = channel_table
    wpos = np.where(w > 0.0, w, 1.0)
    hcond = -(w * np.log2(wpos)).sum(axis=-1)

    def batch(params):
        cs = [np.stack([1.0 - params[:, 2 * u:2 * u + 2], params[:, 2 * u:2 * u + 2]], axis=2)
              for u in range(3)]
        induced = np.einsum("abc,gaw,gbx,gcy->gwxy", source_probs, cs[0], cs[1], cs[2])
        ylaw = np.einsum("gwxy,wxyz->gz", induced, w)
        hy = -np.where(ylaw > 0.0, ylaw * np.log2(np.where(ylaw > 0.0, ylaw, 1.0)), 0.0).sum(axis=1)
        hyx = np.einsum("gwxy,wxy->g", induced, hcond)
        return hy - hyx

    return batch


def product_search_oracle(channel, source, cfg, chunk=1 << 18):
    batch = mi_kernel_oracle(source.joint.probs, channel.transition.table)
    m = int(round(1.0 / cfg.coarse_step)) + 1
    values = np.linspace(0.0, 1.0, m)
    total = m**6
    kept_vals, kept_params = [], []
    for start in range(0, total, chunk):
        ids = np.arange(start, min(start + chunk, total), dtype=np.int64)
        params = np.empty((ids.shape[0], 6))
        rest = ids
        for pos in range(5, -1, -1):
            params[:, pos] = values[rest % m]
            rest = rest // m
        vals = batch(params)
        take = min(cfg.top_k, vals.shape[0])
        part = np.argpartition(-vals, take - 1)[:take]
        kept_vals.append(vals[part])
        kept_params.append(params[part])
    all_vals = np.concatenate(kept_vals)
    all_params = np.concatenate(kept_params)
    order = np.argsort(-all_vals, kind="stable")[:cfg.top_k]

    refined = []
    for idx in order:
        p = all_params[idx].copy()
        val = float(all_vals[idx])
        for _ in range(cfg.sweeps):
            for c in range(6):
                lo = max(0.0, p[c] - cfg.coarse_step)
                hi = min(1.0, p[c] + cfg.coarse_step)

                def line(t, c=c, p=p):
                    row = p.copy()
                    row[c] = t
                    return float(batch(row[None, :])[0])

                t_best, v_best = golden_max_oracle(line, lo, hi, cfg.golden_iters)
                if v_best > val:
                    p[c] = t_best
                    val = v_best
        refined.append((val, tuple(float(x) for x in p)))
    refined.sort(key=lambda r: -r[0])
    return refined[0][0], refined[0][1], tuple(refined)


# ---------------------------------------------------------------------------
# eta curves and the frontier


@pytest.mark.parametrize("delta", [0.05, 0.1, 0.2, 0.25])
def test_eta_curves_equal_the_push_forward_laws_exactly(delta):
    alphas = np.linspace(0.0, 1.0, 2001)
    want1 = [eta1_oracle(float(a), delta) for a in alphas]
    want2 = [eta2_oracle(float(a), delta) for a in alphas]
    assert [eta1(float(a), delta) for a in alphas] == want1
    assert [eta2(float(a), delta) for a in alphas] == want2
    assert eta1(alphas, delta).tolist() == want1
    assert eta2(alphas, delta).tolist() == want2


def test_eta_shapes_types_and_range_check():
    assert type(eta1(0.3, 0.25)) is float
    assert type(eta2(0.3, 0.25)) is float
    assert type(eta1(np.float64(0.3), 0.25)) is float
    grid = np.linspace(0.0, 1.0, 6).reshape(2, 3)
    assert eta1(grid, 0.25).shape == (2, 3)
    assert eta2(grid, 0.25).shape == (2, 3)
    for bad in (-0.1, 1.5, float("nan"), np.array([0.2, 1.01])):
        with pytest.raises(ValueError):
            eta1(bad, 0.25)
        with pytest.raises(ValueError):
            eta2(bad, 0.25)


@pytest.mark.parametrize("delta", [0.1, 0.25])
def test_frontier_equals_the_per_point_search(delta):
    for g in np.linspace(0.0, gamma_star(delta), 50):
        got, want = sigma0_frontier(float(g), delta), frontier_oracle(float(g), delta)
        assert repr(got) == repr(want)


@pytest.mark.parametrize("delta", [0.25, 0.2, 0.1, 0.01, 0.001])
def test_frontier_batch_equals_the_one_point_calls(delta):
    # each batch ends past gamma_star by the 1e-12 the check allows, where the
    # admissible interval is {0}: a one-point grid and no golden lane
    gstar = gamma_star(delta)
    for steps in (2, 7, 50, 200):
        gammas = np.linspace(0.0, gstar, steps).tolist() + [gstar + 1e-12]
        points = sigma0_frontier_points(gammas, delta)
        assert points == tuple(sigma0_frontier(g, delta) for g in gammas)
        assert points[-1].alpha == 0.0 and points[-1].sigma0 == 0.0
        assert points[-2].sigma0 == 0.0 and all(p.sigma0 > 0.0 for p in points[:-2])
    assert sigma0_frontier_points([], delta) == ()
    assert sigma0_frontier_points([gstar], delta) == (sigma0_frontier(gstar, delta),)


def _counting_eta(monkeypatch):
    calls = []
    inner = regions._eta_image_entropies

    def counted(alpha, delta):
        calls.append(np.shape(alpha))
        return inner(alpha, delta)

    monkeypatch.setattr(regions, "_eta_image_entropies", counted)
    return calls


def test_frontier_batch_makes_one_pass_over_all_points(monkeypatch, tmp_path):
    # one grid call, the two golden seeds, 48 golden steps and the midpoint
    calls = _counting_eta(monkeypatch)
    argv = ["frontier", "--delta", "0.25", "--gamma-steps", "50", "--out-dir", str(tmp_path)]
    assert run(argv) == 0
    assert len(calls) <= 52
    assert calls[1:] == [calls[1]] * (len(calls) - 1) and calls[1][0] <= 50


def test_frontier_batch_is_refused_before_any_work(monkeypatch):
    calls = _counting_eta(monkeypatch)
    gstar = gamma_star(0.25)
    with pytest.raises(ValueError, match="exceeds the threshold"):
        sigma0_frontier_points([0.01, 0.02, gstar + 1e-9], 0.25)
    with pytest.raises(ValueError, match="must be non-negative"):
        sigma0_frontier_points([0.01, -0.1, gstar], 0.25)
    with pytest.raises(ValueError, match="must be non-negative"):
        sigma0_frontier_points([float("nan")], 0.25)
    assert calls == []
    assert sigma0_frontier_points([gstar + 1e-13], 0.25)[0].sigma0 == 0.0


def test_golden_lanes_follow_the_scalar_search():
    # step functions make f1 == f2 ties common, which pick the left bracket
    rng = np.random.default_rng(5)
    scale, shift = rng.uniform(1.0, 9.0, 40), rng.uniform(0.0, 6.0, 40)
    lo, hi = rng.uniform(-1.0, 0.5, 40), rng.uniform(0.6, 2.0, 40)

    def f(x, lanes=slice(None)):
        return np.round(4.0 * np.sin(scale[lanes] * x + shift[lanes])) / 4.0

    mids, vals = _golden_max(f, lo, hi, 30)
    for i in range(40):
        mid, val = golden_max_oracle(lambda x, i=i: float(f(x, i)), float(lo[i]), float(hi[i]), 30)
        assert (mids[i], vals[i]) == (mid, val)


# ---------------------------------------------------------------------------
# product search


def _dead_channel():
    table = np.zeros((2, 2, 2, 2))
    table[..., 0] = 1.0
    return DMChannel("dead", ConditionalPMF([("X1", 2), ("X2", 2), ("X3", 2)], [("Y", 2)], table))


def _random_case(outputs=3):
    rng = np.random.default_rng(11)
    source = SourceModel(JointPMF([("S1", 2), ("S2", 2), ("S3", 2)], rng.dirichlet(np.ones(8))))
    table = rng.dirichlet(np.ones(outputs), size=(2, 2, 2))
    channel = DMChannel("random", ConditionalPMF([("X1", 2), ("X2", 2), ("X3", 2)],
                                                 [("Y", outputs)], table))
    return channel, source


def _cases():
    quaternary = build_quaternary_channel(0.25)
    cases = [
        pytest.param(quaternary, make_sigma_gamma_triple(s, g), QUICK, id=f"quick-{s}-{g}")
        for s, g in ((0.05, 0.1), (0.3, 0.2), TIED)
    ]
    return cases + [
        pytest.param(quaternary, make_sigma_gamma_triple(0.1, 0.1), SMALL, id="small"),
        pytest.param(*_random_case(), SMALL, id="small-random-channel"),
        # 9 outputs: numpy sums each Y law's row in 8 lanes plus a tail, not in order
        pytest.param(*_random_case(9), SMALL, id="small-random-9-outputs"),
        pytest.param(_dead_channel(), make_sigma_gamma_triple(0.1, 0.1), QUICK, id="quick-dead"),
    ]


@pytest.mark.parametrize("channel,source,cfg", _cases())
def test_product_search_equals_the_per_row_refinement(channel, source, cfg):
    value, params, candidates = product_search_oracle(channel, source, cfg)
    got = max_product_mi(channel, source, cfg)
    assert repr((got.value, got.params, got.candidates)) == repr((value, params, candidates))


@pytest.mark.parametrize("case", sorted(PINS))
def test_product_search_keeps_the_recorded_tie_order(case):
    pin = PINS[case]
    cfg = ProductSearchConfig(**pin["config"]) if pin["config"] else None
    got = max_product_mi(build_quaternary_channel(pin["delta"]),
                         make_sigma_gamma_triple(pin["sigma"], pin["gamma"]), cfg)
    assert got.value == pin["value"]
    assert list(got.params) == pin["params"]
    assert [[v, list(p)] for v, p in got.candidates] == pin["candidates"]
    if case == "quick-exact-tie":  # three distinct maxima tie exactly: only the tie rule orders them
        top = pin["candidates"][:3]
        assert len({v for v, _ in top}) == 1 and len({tuple(p) for _, p in top}) == 3


# ---------------------------------------------------------------------------
# the separable coarse grid


def _kernel_cases():
    return [pytest.param(*case.values[:2], id=case.id) for case in _cases()]


def _grid_params(m, ids):
    return np.linspace(0.0, 1.0, m)[mixed_radix(ids, m, 6)]


@pytest.mark.parametrize("m", [6, 11])
@pytest.mark.parametrize("channel,source", _kernel_cases())
def test_streamed_grid_equals_the_row_kernel_on_every_row(channel, source, m):
    kernel = _mi_kernel(source.joint.probs, channel.transition.table)
    streamed = np.concatenate(list(_grid_slices(kernel, m)))
    assert streamed.shape == (m**6,)
    for start in range(0, m**6, 1 << 18):
        ids = np.arange(start, min(start + (1 << 18), m**6))
        assert np.array_equal(streamed[ids], _rows_mi(kernel, _grid_params(m, ids)))
    if m == 6:
        oracle = mi_kernel_oracle(source.joint.probs, channel.transition.table)
        assert np.array_equal(streamed, oracle(_grid_params(m, np.arange(m**6))))


@pytest.mark.parametrize("channel,source", _kernel_cases())
def test_mi_kernel_equals_the_einsum_oracle_on_random_rows(channel, source):
    rng = np.random.default_rng(23)
    rows = rng.uniform(size=(50_000, 6))
    rows[rng.random(rows.shape) < 0.15] = 0.0
    rows[rng.random(rows.shape) < 0.15] = 1.0
    kernel = _mi_kernel(source.joint.probs, channel.transition.table)
    oracle = mi_kernel_oracle(source.joint.probs, channel.transition.table)
    assert np.array_equal(_rows_mi(kernel, rows), oracle(rows))
    for n in (1, 2, 12, 32):  # the refinement's batch sizes
        assert np.array_equal(_rows_mi(kernel, rows[-n:]), oracle(rows[-n:]))
    # the grid's layout: user 3's s = 0 and s = 1 rows on broadcast axes of their own, before
    # the n rows of users 1 and 2; the values come out n first
    n, k, l = 7, 5, 3
    t1, t2, _ = (np.ascontiguousarray(t.transpose(1, 2, 0))[:, None, None]
                 for t in _flip_tables(rows[:n]))
    s0, s1 = _flip_table(rows[:k, 4]), _flip_table(rows[:l, 5])
    got = kernel(t1, t2, (s0[:, None, :, None], s1[None, :, :, None]))
    user3 = np.stack(np.meshgrid(rows[:k, 4], rows[:l, 5], indexing="ij"), axis=-1).reshape(-1, 2)
    full = np.hstack([np.repeat(rows[:n, :4], k * l, axis=0), np.tile(user3, (n, 1))])
    assert np.array_equal(got, oracle(full))


def test_grid_slices_hold_nothing_from_one_slice_to_the_next():
    channel, source = build_quaternary_channel(0.25), make_sigma_gamma_triple(0.3, 0.2)
    kernel = _mi_kernel(source.joint.probs, channel.transition.table)
    peaks = []
    for count in (1, 20):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            held = 0
            for vals in itertools.islice(_grid_slices(kernel, 22), count):
                held = max(held, tracemalloc.get_traced_memory()[0] - base - vals.nbytes)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        # the m^2 tables and one slice's values; an m^4 cache of the input law would be 14 MiB
        assert held < 2**20
    assert peaks[1] - peaks[0] < 2**20


@pytest.mark.parametrize("m", [6, 11])
@pytest.mark.parametrize("channel,source", _kernel_cases())
def test_grid_slices_do_not_depend_on_the_worker_count(channel, source, m, monkeypatch):
    kernel = _mi_kernel(source.joint.probs, channel.transition.table)
    slices = []
    interval = sys.getswitchinterval()
    # more workers than a 2-core host has, switching threads often, all reading one grid
    sys.setswitchinterval(1e-5)
    try:
        for workers in (1, 2, 3):
            monkeypatch.setattr(regions, "available_cores", lambda workers=workers: workers)
            slices.append([vals.tobytes() for vals in _grid_slices(kernel, m)])
    finally:
        sys.setswitchinterval(interval)
    assert slices[1] == slices[0] and slices[2] == slices[0]


def test_grid_slices_hold_one_slice_in_flight_per_worker(monkeypatch):
    channel, source = build_quaternary_channel(0.25), make_sigma_gamma_triple(0.3, 0.2)
    kernel = _mi_kernel(source.joint.probs, channel.transition.table)
    peaks = {}
    for workers, count in ((1, 20), (2, 1), (2, 20)):
        monkeypatch.setattr(regions, "available_cores", lambda workers=workers: workers)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            held = 0
            for vals in itertools.islice(_grid_slices(kernel, 22), count):
                held = max(held, tracemalloc.get_traced_memory()[0] - base - vals.nbytes)
            peaks[workers, count] = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # no slice is in flight while one is yielded: the tables, the pool and its run's values
        assert held < 2**20
    assert peaks[2, 20] - peaks[2, 1] < 2**20
    # a second slice in flight on the pool thread would add a whole slice's temporaries
    assert peaks[2, 20] < 2 * peaks[1, 20] + 2**18


def _started_items(workers, fail_at=None):
    """_in_row_order over 0..99 that records each item started, and raises at fail_at."""
    started, lock = [], threading.Lock()

    def fn(item):
        with lock:
            started.append(item)
        if item == fail_at:
            assert threading.current_thread() is not threading.main_thread()
            raise RuntimeError(f"item {item}")
        return item

    return _in_row_order(fn, range(100), workers), started


@pytest.mark.parametrize("workers", [2, 3])
def test_pool_error_and_early_close_start_no_further_item(workers):
    baseline = threading.active_count()
    values, started = _started_items(workers, fail_at=5)  # a pool item of the run ending at 5
    with pytest.raises(RuntimeError, match="item 5"):
        list(values)
    assert threading.active_count() == baseline
    time.sleep(0.05)
    assert sorted(started) == list(range(6))
    values, started = _started_items(workers)
    assert list(itertools.islice(values, 4)) == [0, 1, 2, 3]
    values.close()
    assert threading.active_count() == baseline
    time.sleep(0.05)
    assert sorted(started) == list(range(-(-4 // workers) * workers))
    values, started = _started_items(workers)
    assert list(values) == list(range(100)) and sorted(started) == list(range(100))
    assert threading.active_count() == baseline


@pytest.mark.parametrize("workers", [2, 3])
def test_no_item_runs_while_the_caller_holds_a_value(workers):
    running, most, lock = [0], [0], threading.Lock()

    def fn(item):
        with lock:
            running[0] += 1
            most[0] = max(most[0], running[0])
        time.sleep(0.001)  # time for an item queued ahead to start
        with lock:
            running[0] -= 1
        return item

    for item in _in_row_order(fn, range(60), workers):
        time.sleep(0.001)
        assert running[0] == 0, item
    assert most[0] == workers  # a whole run at once, and never more


def test_grid_kernel_error_on_a_pool_thread_propagates_and_joins_the_pool(monkeypatch):
    channel, source = build_quaternary_channel(0.25), make_sigma_gamma_triple(0.3, 0.2)
    kernel = _mi_kernel(source.joint.probs, channel.transition.table)
    calls = []

    def failing(*tables):
        on_main = threading.current_thread() is threading.main_thread()
        calls.append(on_main)
        if len(calls) > 4 and not on_main:  # the pool's slice of the third run
            raise FloatingPointError("pool slice")
        return kernel(*tables)

    monkeypatch.setattr(regions, "available_cores", lambda: 2)
    baseline = threading.active_count()
    with pytest.raises(FloatingPointError, match="pool slice"):
        list(_grid_slices(failing, 11))
    assert threading.active_count() == baseline
    started = len(calls)
    time.sleep(0.05)
    assert len(calls) == started <= 6


def test_refinement_runs_with_no_pool_thread(monkeypatch):
    monkeypatch.setattr(regions, "available_cores", lambda: 2)
    baseline, counts = threading.active_count(), []
    golden = regions._golden_max

    def counted(*args):
        counts.append(threading.active_count())
        return golden(*args)

    monkeypatch.setattr(regions, "_golden_max", counted)
    max_product_mi(build_quaternary_channel(0.25), make_sigma_gamma_triple(0.3, 0.2), QUICK)
    assert counts and set(counts) == {baseline}


def test_grid_cap_refuses_before_any_allocation():
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for step in (0.01, 0.04, 1.0 / 22.0):
            with pytest.raises(ValueError, match="row cap"):
                ProductSearchConfig(coarse_step=step)
        grew = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert grew < 64 * 1024  # a kernel slice alone is 256 KiB
    assert ProductSearchConfig(coarse_step=0.05).grid_points == 21
    assert ProductSearchConfig(coarse_step=1.0 / 21.0).grid_points == 22


def test_default_search_peak_memory_stays_bounded():
    channel, source = build_quaternary_channel(0.25), make_sigma_gamma_triple(0.3, 0.2)
    tracemalloc.start()
    try:
        max_product_mi(channel, source)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the 11^6-row grid's full value vector alone would be 13.5 MiB
    assert peak < 12 * 2**20


def test_search_logs_one_line_and_debug_leaves_region_bytes_unchanged(tmp_path, caplog):
    argv = ["region", "--family", "ces3", "--sigma", "0.3", "--gamma", "0.2", "--delta", "0.25",
            "--search", "full"]
    outputs = []
    for level in (logging.WARNING, logging.DEBUG):
        out = tmp_path / logging.getLevelName(level)
        out.mkdir()
        with caplog.at_level(level, logger="trimac"):
            assert run(argv + ["--out-dir", str(out)]) == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert outputs[0] == outputs[1]
    assert sorted(outputs[0]) == ["region.csv", "region.json"]
    lines = [r.getMessage() for r in caplog.records
             if r.name == "trimac" and r.getMessage().startswith("product search: ")]
    assert len(lines) == 1
    head, tail = lines[0].split("; ")
    assert head.startswith("product search: 1771561 grid rows in 242 slices, ")
    assert tail.startswith("1224 refinement kernel calls, ")
    assert float(head.split(", ")[1].split()[0]) > 0.0 and float(tail.split(", ")[1].split()[0]) > 0.0
