"""Batch experiment runner: simulations, region reports, frontier sweeps.

Every subcommand reads an optional flat key=value config file, whose lines
its parser reads as flags (flags on the command line win), writes a CSV
and a JSON report with deterministic names into the output directory (flag
--out-dir, else TRIMAC_OUT_DIR, else the working directory), and prints a
one-line summary.  Re-running the same configuration reproduces the output
files byte for byte.  Exit codes: 0 success, 2 for configuration or guard
problems, 1 for runtime failures.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import asdict, astuple, dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .channels import (
    build_additive_pair_channel,
    build_quaternary_channel,
)
from .coding import (
    build_linear_jscc,
    build_unstructured_jscc,
    candidate_space,
    check_decode_cost,
    ml_decode,
    ml_decode_additive_pair,
    monte_carlo_error,
)
from .commonparts import additive_common_search, gkw_mutual, gkw_pairs
from .gfcore import verify_image_probability
from .macfb import FBConfig, ptp_simulation, run_fb_simulation, structure_necessity_probe
from .probcore import ConditionalPMF, JointPMF, binary_entropy
from .regions import (
    CES2Dist,
    MacFBDist,
    ProductSearchConfig,
    eval_ces2,
    eval_ces3,
    eval_cl2,
    eval_hybrid,
    eval_macfb,
    gamma_star,
    hybrid_example_dist,
    max_product_mi,
    min_tv_to_structured,
    product_ces_dist,
    product_conditionals,
    sigma0_frontier_points,
    tv_bound_check,
)
from .rng import available_cores, stream
from .sources import make_additive_triple, make_sigma_gamma_triple, source_to_json

__all__ = ["run", "main"]

OUT_DIR_ENV = "TRIMAC_OUT_DIR"

_FAMILY_PRESETS = {
    "ces2": "skewed-pair",
    "cl2": "adder-pair",
    "ces3": "product-argmax",
    "hybrid": "example-sigma-gamma",
    "macfb": "fb-example",
}

_QUICK_SEARCH = ProductSearchConfig(coarse_step=0.2, top_k=12, sweeps=2, golden_iters=32)


class _ConfigError(Exception):
    pass


@dataclass
class _Emission:
    summary: str
    csv_header: list[str]
    csv_rows: list[list] | np.ndarray  # an int array's cells need no _fmt
    json_obj: dict
    plot: list[tuple[float, float]] | None = None
    exit_code: int = 0


def _norm(rows: np.ndarray) -> np.ndarray:
    return rows / rows.sum(axis=-1, keepdims=True)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


# ---------------------------------------------------------------------------
# emission plumbing


def _out_dir(args) -> Path:
    root = args.out_dir or os.environ.get(OUT_DIR_ENV) or "."
    path = Path(root)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_outputs(name: str, args, emission: _Emission) -> None:
    root = _out_dir(args)
    with open(root / f"{name}.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(emission.csv_header)
        if isinstance(emission.csv_rows, np.ndarray):
            writer.writerows(emission.csv_rows.tolist())
        else:
            writer.writerows([_fmt(cell) for cell in row] for row in emission.csv_rows)
    with open(root / f"{name}.json", "w") as fh:
        json.dump(emission.json_obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if getattr(args, "emit_plot_data", False):
        if emission.plot is None:
            raise ValueError(f"{name} has no plot series for --emit-plot-data")
        with open(root / f"{name}.dat", "w") as fh:
            fh.write(f"# {name}: two-column series for gnuplot\n")
            for x, y in emission.plot:
                fh.write(f"{x!r} {y!r}\n")


def _region_rows(report) -> list[list]:
    rows = []
    for rec in report.records:
        rows.append([rec.ineq_id, rec.lhs, rec.rhs, rec.slack, rec.equality, rec.satisfied])
    return rows


# ---------------------------------------------------------------------------
# handlers


def _build_source(args):
    if args.source == "sigma-gamma":
        return make_sigma_gamma_triple(args.sigma, args.gamma)
    return make_additive_triple(args.p1, args.p2)


def _build_channel(args):
    if args.channel == "additive-pair":
        return build_additive_pair_channel(args.delta)
    return build_quaternary_channel(args.delta)


def _handle_simulate_mac(args) -> _Emission:
    try:
        n_list = [int(tok) for tok in args.n_list.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"could not parse --n-list {args.n_list!r} as integers") from None
    if not n_list:
        raise ValueError("--n-list must name at least one block length")
    source = _build_source(args)
    channel = _build_channel(args)
    if args.scheme == "identical-linear":
        def factory_for(n):
            return lambda s: build_linear_jscc(source, 2, n, s)
        decoder = ml_decode_additive_pair if channel.kind == "additive-pair" else ml_decode
    else:
        f = args.flip
        if not 0.0 <= f <= 1.0:
            raise ValueError("--flip must lie in [0, 1]")
        tables = [np.array([[1.0 - f, f], [f, 1.0 - f]]) for _ in range(3)]

        def factory_for(n):
            return lambda s: build_unstructured_jscc(source, tables, n, s)
        decoder = ml_decode
    generic = decoder is ml_decode
    if generic:
        support = source.support().shape[0]
        for n in n_list:
            check_decode_cost(support, n, args.trials)
    workers = args.workers or available_cores()
    runs = []
    for n in n_list:
        # one candidate space per block length, shared by its trials and freed after them
        decode = partial(ml_decode, space=candidate_space(source, n)) if generic else decoder
        runs.append(monte_carlo_error(channel, factory_for(n), decode, args.trials, args.seed,
                                      workers=workers))
    header = [
        "n (symbols)", "trials (count)", "errors (count)", "p_hat (probability)",
        "ci_lo (probability)", "ci_hi (probability)", "seed (id)",
        "scheme (id)", "channel (id)",
    ]
    rows = [astuple(r) for r in runs]
    obj = {
        "channel": channel.kind,
        "delta": args.delta,
        "scheme": args.scheme,
        "source": source_to_json(source),
        "runs": [r.to_json() for r in runs],
    }
    rates = " ".join(f"n={r.n}:p={r.p_hat!r}" for r in runs)
    return _Emission(
        f"scheme={args.scheme} channel={channel.kind} trials={args.trials} {rates}",
        header, rows, obj, plot=[(float(r.n), r.p_hat) for r in runs],
    )


def _handle_simulate_macfb(args) -> _Emission:
    config = FBConfig(args.k, args.n, args.blocks, args.delta, args.seed)
    report = run_fb_simulation(
        config, sum_decoder=args.sum_decoder, typicality_margin=args.typicality_margin
    )
    obj = report.to_json()
    if args.with_ptp:
        obj["ptp"] = ptp_simulation(config, report.decoder).to_json()
    header = [
        "block (index)", "sum_error (count)", "pair_error (count)",
        "third_error (count)", "message_error (count)",
    ]
    block = np.arange(1, report.delivered + 1)
    rows = np.column_stack((block, report.sum_errors, report.pair_errors, report.third_errors,
                            report.message_errors))
    running = list(zip(block.astype(float).tolist(),
                       (np.cumsum(report.message_errors) / block).tolist()))
    summary = (
        f"k={config.k} n={config.n} blocks={config.blocks} "
        f"sum_rate={report.error_rate('sum')!r} message_rate={report.error_rate('message')!r}"
    )
    return _Emission(summary, header, rows, obj, plot=running)


def _resolve_gamma(raw: str, delta: float) -> float:
    if raw == "star":
        return gamma_star(delta)
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"--gamma must be a float or 'star', got {raw!r}") from None


def _region_ces2(args):
    r = stream(args.seed, 8)
    pj = np.zeros((3, 2))
    pj[0, 0], pj[1, 0], pj[2, 1] = 0.2, 0.3, 0.5
    u12 = _norm(r.random(2) + 0.05)
    t1 = _norm(r.random((3, 2, 2)) + 0.05)
    t2 = _norm(r.random((2, 2, 3)) + 0.05)
    ct = _norm(r.random((2, 3, 4)) + 0.05)
    dist = CES2Dist(
        JointPMF([("U12", 2)], u12),
        ConditionalPMF([("S1", 3), ("U12", 2)], [("X1", 2)], t1),
        ConditionalPMF([("S2", 2), ("U12", 2)], [("X2", 3)], t2),
    )
    pair = JointPMF([("S1", 3), ("S2", 2)], pj)
    chan = ConditionalPMF([("X1", 2), ("X2", 3)], [("Y", 4)], ct)
    return eval_ces2(pair, chan, dist), {"seed": args.seed}


def _region_cl2(args):
    table = np.zeros((2, 2, 3))
    for x1 in range(2):
        for x2 in range(2):
            table[x1, x2, x1 + x2] = 1.0
    chan = ConditionalPMF([("X1", 2), ("X2", 2)], [("Y", 3)], table)
    p_u = JointPMF([("U", 1)], [1.0])
    half = ConditionalPMF([("U", 1)], [("X1", 2)], np.array([[0.5, 0.5]]))
    return eval_cl2((args.r1, args.r2), chan, p_u, half, half), {"r1": args.r1, "r2": args.r2}


def _region_ces3(args):
    gamma = _resolve_gamma(args.gamma, args.delta)
    source = make_sigma_gamma_triple(args.sigma, gamma)
    channel = build_quaternary_channel(args.delta)
    search = _QUICK_SEARCH if args.search == "quick" else None
    result = max_product_mi(channel, source, search)
    dist = product_ces_dist(source, product_conditionals(result.params))
    rep = eval_ces3(source, channel, dist)
    params = {
        "sigma": args.sigma, "gamma": gamma, "delta": args.delta,
        "search": args.search, "product_mi": result.value,
    }
    return rep, params


def _region_hybrid(args):
    gamma = _resolve_gamma(args.gamma, args.delta)
    source = make_sigma_gamma_triple(args.sigma, gamma)
    channel = build_quaternary_channel(args.delta)
    rep = eval_hybrid(source, channel, hybrid_example_dist(source, args.alpha))
    return rep, {"sigma": args.sigma, "gamma": gamma, "delta": args.delta, "alpha": args.alpha}


def _region_macfb(args):
    r = stream(args.seed, 9)
    p_u = JointPMF([("U", 2)], _norm(r.random(2) + 0.05))
    x_conds = tuple(
        ConditionalPMF(
            [("U", 2), ("T", 2), ("V", 2)], [(f"X{i}", 2)], _norm(r.random((2, 2, 2, 2)) + 0.05)
        )
        for i in (1, 2, 3)
    )
    dist = MacFBDist(2, p_u, x_conds)
    w_laws = (np.array([0.7, 0.3]), np.array([0.6, 0.4]), np.array([0.9, 0.1]))
    rates = tuple(args.alpha * binary_entropy(float(w[1])) for w in w_laws)
    channel = build_quaternary_channel(args.delta)
    rep = eval_macfb(rates, args.alpha, dist, channel, w_laws=w_laws)
    return rep, {"alpha": args.alpha, "delta": args.delta, "seed": args.seed, "rates": list(rates)}


def _handle_region(args) -> _Emission:
    family = args.family
    preset = _FAMILY_PRESETS[family]
    builder = {
        "ces2": _region_ces2,
        "cl2": _region_cl2,
        "ces3": _region_ces3,
        "hybrid": _region_hybrid,
        "macfb": _region_macfb,
    }[family]
    report, params = builder(args)
    header = [
        "inequality (id)", "lhs (bits)", "rhs (bits)", "slack (bits)",
        "equality (flag)", "satisfied (flag)",
    ]
    obj = {
        "family": family,
        "preset": preset,
        "params": params,
        "satisfied": report.satisfied,
        "worst": report.worst.ineq_id,
        "records": report.to_json()["records"],
    }
    worst = report.worst
    summary = (
        f"family={family} preset={preset} satisfied={_fmt(report.satisfied)} "
        f"worst={worst.ineq_id} slack={worst.slack!r}"
    )
    return _Emission(summary, header, _region_rows(report), obj)


def _handle_frontier(args) -> _Emission:
    if args.gamma_steps < 2:
        raise ValueError("--gamma-steps must be at least 2")
    gstar = gamma_star(args.delta)
    grid = np.linspace(0.0, gstar, args.gamma_steps)
    points = sigma0_frontier_points(grid.tolist(), args.delta)
    header = ["gamma (probability)", "sigma0 (probability)"]
    rows = [[p.gamma, p.sigma0] for p in points]
    obj = {
        "delta": args.delta,
        "gamma_star": gstar,
        "points": [
            {"gamma": p.gamma, "sigma0": p.sigma0, "alpha": p.alpha, "level_bits": p.level}
            for p in points
        ],
    }
    summary = (
        f"delta={args.delta!r} gamma_star={gstar!r} points={len(points)} "
        f"sigma0_at_star={points[-1].sigma0!r}"
    )
    return _Emission(summary, header, rows, obj, plot=[(p.gamma, p.sigma0) for p in points])


def _handle_common_parts(args) -> _Emission:
    source = _build_source(args)
    mutual = gkw_mutual(source)
    pair_results = gkw_pairs(source)
    additive = additive_common_search(source, args.q)
    header = ["part (id)", "components (count)", "entropy (bits)", "found (flag)"]
    rows = [["mutual", mutual.component_count, mutual.entropy, True]]
    for b, res in pair_results.items():
        rows.append([f"pair-{b}", res.component_count, res.entropy, True])
    rows.append([
        "additive",
        0 if additive.pmf is None else additive.pmf.shape[0],
        additive.entropy,
        additive.found,
    ])
    obj = {
        "source": source_to_json(source),
        "mutual": {"components": mutual.component_count, "entropy_bits": mutual.entropy},
        "pairs": {
            b: {"components": res.component_count, "entropy_bits": res.entropy}
            for b, res in pair_results.items()
        },
        "additive": {
            "found": additive.found,
            "q": additive.q,
            "entropy_bits": additive.entropy,
        },
    }
    summary = (
        f"mutual_components={mutual.component_count} "
        f"additive_found={_fmt(additive.found)} additive_entropy={additive.entropy!r}"
    )
    return _Emission(summary, header, rows, obj)


def _handle_structure_measure(args) -> _Emission:
    if args.target == "codebooks":
        if getattr(args, "emit_plot_data", False):
            raise ValueError("codebooks target has no plot series for --emit-plot-data")
        report = structure_necessity_probe(args.k, args.n, args.delta, args.trials, args.seed)
        header = [
            "scheme (id)", "trials (count)", "errors (count)", "p_hat (probability)",
            "ci_lo (probability)", "ci_hi (probability)", "sumset_size (count)",
            "gap (bits per use)",
        ]
        rows = [
            [r.scheme, r.trials, r.errors, r.p_hat, r.ci_lo, r.ci_hi,
             r.sumset.size_sum, r.sumset.gap]
            for r in report.rows
        ]
        linear = report.row("identical-linear")
        random = report.row("independent-random")
        summary = (
            f"linear_p={linear.p_hat!r} random_p={random.p_hat!r} "
            f"linear_gap={linear.sumset.gap!r} random_gap={random.sumset.gap!r}"
        )
        return _Emission(summary, header, rows, report.to_json())
    if args.law:
        probs = np.array([float(tok) for tok in args.law.split(",")])
        if probs.size != 8 or probs.min() < 0.0 or abs(probs.sum() - 1.0) > 1e-9:
            raise ValueError("--law needs 8 comma-separated probabilities summing to 1")
        law = JointPMF([("X1", 2), ("X2", 2), ("X3", 2)], probs.reshape(2, 2, 2))
        tv, _ = min_tv_to_structured(law, args.grid_step)
        obj = {"law": probs.tolist(), "min_tv": tv, "grid_step": args.grid_step}
        return _Emission(
            f"min_tv={tv!r}",
            ["sample (index)", "sigma (probability)", "gamma (probability)", "tv (distance)"],
            [[0, float("nan"), float("nan"), tv]],
            obj,
            plot=[(0.0, tv)],
        )
    report = tv_bound_check(args.delta, args.count, args.seed, args.grid_step)
    header = ["sample (index)", "sigma (probability)", "gamma (probability)", "tv (distance)"]
    rows = [
        [i, s.sigma, s.gamma, s.tv] for i, s in enumerate(report.samples)
    ]
    obj = {
        **asdict(report),
        "satisfied": report.satisfied,
        "samples": [{"sigma": s.sigma, "gamma": s.gamma, "tv": s.tv} for s in report.samples],
    }
    summary = (
        f"samples={len(report.samples)} min_tv={report.min_tv!r} "
        f"bound={report.bound!r} satisfied={_fmt(report.satisfied)}"
    )
    plot = [(float(i), s.tv) for i, s in enumerate(report.samples)]
    return _Emission(summary, header, rows, obj, plot=plot)


def _handle_verify_lemmas(args) -> _Emission:
    lemma = "image-probability"
    report = verify_image_probability(args.q, args.k, args.n)
    header = [
        "lemma (id)", "q (modulus)", "k (rows)", "n (cols)", "matrices (count)",
        "index_pairs (count)", "max_deviation (probability)", "ok (flag)",
    ]
    rows = [[
        lemma, report.q, report.k, report.n, report.matrices,
        report.index_pairs, report.max_abs_deviation, report.ok,
    ]]
    obj = {"lemma": lemma, **asdict(report)}
    summary = (
        f"lemma={lemma} q={report.q} k={report.k} n={report.n} "
        f"deviation={report.max_abs_deviation!r} ok={_fmt(report.ok)}"
    )
    return _Emission(summary, header, rows, obj, exit_code=0 if report.ok else 1)


# ---------------------------------------------------------------------------
# argument plumbing


def _add_common(parser: argparse.ArgumentParser, plot: bool = False) -> None:
    parser.add_argument("--config", help="flat key=value file of flags; flags given here win")
    parser.add_argument("--out-dir", help=f"output directory (default ${OUT_DIR_ENV} or .)")
    if plot:
        parser.add_argument(
            "--emit-plot-data", action="store_true",
            help="also write a gnuplot-ready two-column .dat series",
        )


def _add_source_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--source", choices=("additive", "sigma-gamma"), default="sigma-gamma")
    parser.add_argument("--p1", type=float, default=0.05, help="additive source: P(S1=1)")
    parser.add_argument("--p2", type=float, default=0.05, help="additive source: P(S2=1)")
    parser.add_argument("--sigma", type=float, default=0.05)
    parser.add_argument("--gamma", type=float, default=0.05)


# Each subcommand's parser builder returns (parser, handler, required flags).
# The required flags are marked required only once a config file has been
# read (see run), so a config file may name them.


def _simulate_mac_parser():
    p = argparse.ArgumentParser(prog="trimac simulate-mac")
    _add_common(p, plot=True)
    _add_source_flags(p)
    # the default additive-pair decoder needs a product law on (S1, S2)
    p.set_defaults(source="additive")
    p.add_argument("--channel", choices=("additive-pair", "quaternary"), default="additive-pair")
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--scheme", choices=("identical-linear", "unstructured"),
                   default="identical-linear")
    p.add_argument("--flip", type=float, default=0.1,
                   help="unstructured scheme: symbolwise flip probability")
    p.add_argument("--n-list", default="8,12,16", help="comma-separated block lengths")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=0,
                   help="0 means every core in the process's CPU affinity mask (as nproc "
                   "counts them); results are partition-independent")
    return p, _handle_simulate_mac, ()


def _simulate_macfb_parser():
    p = argparse.ArgumentParser(prog="trimac simulate-macfb")
    _add_common(p, plot=True)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--blocks", type=int, default=501)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sum-decoder", choices=("ml", "typicality"), default="ml")
    p.add_argument("--typicality-margin", type=float, default=0.08)
    p.add_argument("--with-ptp", action="store_true",
                   help="append a matched single-user BSC run to the JSON report")
    return p, _handle_simulate_macfb, ()


def _region_parser():
    p = argparse.ArgumentParser(prog="trimac region")
    _add_common(p)
    family = p.add_argument("--family", choices=tuple(_FAMILY_PRESETS),
                            help="required, on the command line or in --config")
    p.add_argument("--sigma", type=float, default=0.0)
    p.add_argument("--gamma", default="star", help="float or 'star' for the threshold bias")
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--delta", type=float, default=0.25)
    p.add_argument("--r1", type=float, default=0.74)
    p.add_argument("--r2", type=float, default=0.74)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--search", choices=("quick", "full"), default="quick",
                   help="product-argmax preset: search effort")
    return p, _handle_region, (family,)


def _frontier_parser():
    p = argparse.ArgumentParser(prog="trimac frontier")
    _add_common(p, plot=True)
    p.add_argument("--delta", type=float, default=0.25)
    p.add_argument("--gamma-steps", type=int, default=50)
    return p, _handle_frontier, ()


def _common_parts_parser():
    p = argparse.ArgumentParser(prog="trimac common-parts")
    _add_common(p)
    _add_source_flags(p)
    p.add_argument("--q", type=int, default=2, help="modulus for the zero-sum relabeling search")
    return p, _handle_common_parts, ()


def _structure_measure_parser():
    p = argparse.ArgumentParser(prog="trimac structure-measure")
    _add_common(p, plot=True)
    p.add_argument("--target", choices=("input-law", "codebooks"), default="input-law")
    p.add_argument("--delta", type=float, default=0.25)
    p.add_argument("--count", type=int, default=25, help="input-law: sampled product strategies")
    p.add_argument("--grid-step", type=float, default=1.0 / 400.0)
    p.add_argument("--law", help="input-law: 8 comma-separated joint probabilities")
    p.add_argument("--k", type=int, default=8)
    p.add_argument("--n", type=int, default=16)
    p.add_argument("--trials", type=int, default=400)
    p.add_argument("--seed", type=int, default=0)
    return p, _handle_structure_measure, ()


def _verify_lemmas_parser():
    p = argparse.ArgumentParser(prog="trimac verify-lemmas")
    _add_common(p)
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--n", type=int, default=2)
    return p, _handle_verify_lemmas, ()


# subcommand name -> parser builder; run builds only the named one
_PARSERS = {
    "simulate-mac": _simulate_mac_parser,
    "simulate-macfb": _simulate_macfb_parser,
    "region": _region_parser,
    "frontier": _frontier_parser,
    "common-parts": _common_parts_parser,
    "structure-measure": _structure_measure_parser,
    "verify-lemmas": _verify_lemmas_parser,
}


def _config_flags(path: str, known: dict) -> list[str]:
    """A config file's key=value lines as --key=value flags.

    known is the subcommand's namespace from a first parse; a key must name
    one of its flags other than --config.  A boolean flag's value is
    1/true/yes, read as the bare flag, or 0/false/no, read as no flag.
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise _ConfigError(f"cannot read config file: {exc}") from None
    flags = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise _ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip().replace("-", "_"), value.strip()
        if key not in known or key == "config":
            raise _ConfigError(f"unknown config key: {key}")
        flag = "--" + key.replace("_", "-")
        if not isinstance(known[key], bool):
            flags.append(f"{flag}={value}")
        elif value.lower() in ("1", "true", "yes"):
            flags.append(flag)
        elif value.lower() not in ("0", "false", "no"):
            raise _ConfigError(f"config key {key}: expected a boolean, got {value!r}")
    return flags


def run(argv) -> int:
    """Dispatch one subcommand; returns the process exit code."""
    argv = list(argv)
    if not argv or argv[0] in ("-h", "--help"):
        print("usage: trimac <subcommand> [flags]; subcommands: " + ", ".join(_PARSERS))
        return 0 if argv else 2
    name = argv[0]
    build = _PARSERS.get(name)
    if build is None:
        print(f"unknown subcommand {name!r}; choose from: " + ", ".join(_PARSERS), file=sys.stderr)
        return 2
    parser, handler, required = build()
    try:
        args = parser.parse_args(argv[1:])
        # config flags come first, so a flag given on the command line wins
        flags = _config_flags(args.config, vars(args)) if args.config else []
        for action in required:
            action.required = True
        args = parser.parse_args(flags + argv[1:])
    except _ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        emission = handler(args)
        _write_outputs(name, args, emission)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - surfaced as a runtime failure
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(emission.summary)
    return emission.exit_code


def main() -> None:
    sys.exit(run(sys.argv[1:]))
