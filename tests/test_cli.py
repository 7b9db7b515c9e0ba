"""End-to-end subcommand tests: files, exit codes, determinism."""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
import shlex
import time
from pathlib import Path

import pytest

from trimac import cli
from trimac.cli import run


def _read(path):
    return json.loads(path.read_text())


def _digests(root):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in root.iterdir()}


def test_no_args_and_help():
    assert run([]) == 2
    assert run(["--help"]) == 0
    assert run(["transmogrify"]) == 2


def test_run_builds_only_the_named_parser(tmp_path, capsys, monkeypatch):
    built = []
    for name, build in list(cli._PARSERS.items()):
        monkeypatch.setitem(cli._PARSERS, name,
                            lambda build=build, name=name: built.append(name) or build())
    assert run(["verify-lemmas", "--out-dir", str(tmp_path)]) == 0
    assert built == ["verify-lemmas"]
    # help and the unknown-subcommand message still name every subcommand, building none
    assert run(["--help"]) == 0
    assert run(["transmogrify"]) == 2
    assert built == ["verify-lemmas"]
    out, err = capsys.readouterr()
    names = ("simulate-mac, simulate-macfb, region, frontier, common-parts, "
             "structure-measure, verify-lemmas")
    assert out.splitlines()[-1] == "usage: trimac <subcommand> [flags]; subcommands: " + names
    assert err == f"unknown subcommand 'transmogrify'; choose from: {names}\n"


def test_verify_lemmas_is_exact(tmp_path, capsys):
    code = run(["verify-lemmas", "--q", "2", "--k", "2", "--n", "2", "--out-dir", str(tmp_path)])
    assert code == 0
    assert "deviation=0.0 ok=true" in capsys.readouterr().out
    blob = _read(tmp_path / "verify-lemmas.json")
    assert blob["ok"] is True
    assert blob["max_abs_deviation"] == 0.0
    rows = (tmp_path / "verify-lemmas.csv").read_text().splitlines()
    assert rows[0].startswith("lemma (id),q (modulus)")
    assert rows[1].endswith(",0.0,true")
    assert run(["verify-lemmas", "--lemma", "rank-nullity"]) == 2


def test_frontier_ends_at_zero_and_is_deterministic(tmp_path):
    args = ["frontier", "--delta", "0.25", "--gamma-steps", "9", "--emit-plot-data",
            "--out-dir", str(tmp_path)]
    assert run(args) == 0
    first = _digests(tmp_path)
    assert set(first) == {"frontier.csv", "frontier.json", "frontier.dat"}
    assert run(args) == 0
    assert _digests(tmp_path) == first
    rows = (tmp_path / "frontier.csv").read_text().splitlines()
    assert rows[0] == "gamma (probability),sigma0 (probability)"
    assert len(rows) == 10
    assert rows[1].startswith("0.0,")
    assert rows[-1].endswith(",0.0")
    blob = _read(tmp_path / "frontier.json")
    sigmas = [p["sigma0"] for p in blob["points"]]
    assert sigmas[-1] == 0.0
    assert all(s > 0.0 for s in sigmas[:-1])
    dat = (tmp_path / "frontier.dat").read_text().splitlines()
    assert dat[0].startswith("#") and len(dat) == 10
    assert run(["frontier", "--gamma-steps", "1"]) == 2


def test_region_example_at_the_threshold_bias(tmp_path, capsys):
    code = run(["region", "--family", "hybrid", "--sigma", "0", "--gamma", "star",
                "--alpha", "0", "--out-dir", str(tmp_path)])
    assert code == 0
    assert "satisfied=true" in capsys.readouterr().out
    blob = _read(tmp_path / "region.json")
    assert blob["satisfied"] is True
    assert blob["family"] == "hybrid"
    assert len(blob["records"]) == 96
    rows = (tmp_path / "region.csv").read_text().splitlines()
    assert rows[0].split(",")[0] == "inequality (id)"
    assert len(rows) == 97
    assert run(["region", "--family", "hybrid", "--gamma", "soon"]) == 2
    assert run(["region", "--family", "cl2", "--preset", "example-sigma-gamma"]) == 2


def test_region_families_all_evaluate(tmp_path, capsys):
    for family, expect in (("ces2", None), ("cl2", "satisfied=true"),
                           ("macfb", "satisfied=")):
        assert run(["region", "--family", family, "--out-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        if expect:
            assert expect in out
    worse = run(["region", "--family", "cl2", "--r1", "0.76", "--r2", "0.76",
                 "--out-dir", str(tmp_path)])
    assert worse == 0
    assert "satisfied=false worst=rate-sum" in capsys.readouterr().out


def test_region_product_argmax_reports_the_search_value(tmp_path):
    code = run(["region", "--family", "ces3", "--sigma", "0.05", "--gamma", "0.05",
                "--delta", "0.25", "--search", "quick", "--out-dir", str(tmp_path)])
    assert code == 0
    blob = _read(tmp_path / "region.json")
    assert blob["preset"] == "product-argmax"
    assert 0.0 < blob["params"]["product_mi"] < 0.5


def test_simulate_macfb_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "fb.cfg"
    cfg.write_text("# comment\nk=3\nn=8\nblocks=61\ndelta=0.1\nseed=4\nwith-ptp=true\n")
    code = run(["simulate-macfb", "--config", str(cfg), "--blocks", "41",
                "--out-dir", str(tmp_path)])
    assert code == 0
    blob = _read(tmp_path / "simulate-macfb.json")
    assert blob["config"]["blocks"] == 41  # flag beats config
    assert blob["config"]["seed"] == 4
    assert "ptp" in blob
    rows = (tmp_path / "simulate-macfb.csv").read_text().splitlines()
    assert len(rows) == 41  # header + 40 delivered blocks
    bad = tmp_path / "bad.cfg"
    bad.write_text("verbosity=3\n")
    assert run(["simulate-macfb", "--config", str(bad)]) == 2
    assert run(["simulate-macfb", "--config", str(tmp_path / "ghost.cfg")]) == 2
    assert run(["simulate-macfb", "--k", "25", "--n", "30"]) == 2


@pytest.mark.parametrize("line", [
    "sum-decoder=viterbi",  # outside choices
    "k=three",  # not an int
    "delta=",  # not a float
    "with-ptp=maybe",  # not a boolean
    "help=1",
    "config=other.cfg",
    "blocks 41",  # no '='
])
def test_config_keys_are_refused_like_flags(tmp_path, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    assert run(["simulate-macfb", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
    assert not (tmp_path / "simulate-macfb.json").exists()


def test_config_false_boolean_leaves_the_flag_off(tmp_path):
    cfg = tmp_path / "fb.cfg"
    cfg.write_text("blocks=5\nwith_ptp=false\nemit-plot-data=No\n")
    assert run(["simulate-macfb", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 0
    assert "ptp" not in _read(tmp_path / "simulate-macfb.json")
    assert not (tmp_path / "simulate-macfb.dat").exists()
    cfg.write_text("blocks=5\nwith_ptp=0\n")
    assert run(["simulate-macfb", "--config", str(cfg), "--with-ptp",
                "--out-dir", str(tmp_path)]) == 0
    assert "ptp" in _read(tmp_path / "simulate-macfb.json")  # the flag wins


def test_config_may_name_a_required_flag(tmp_path, capsys):
    cfg = tmp_path / "region.cfg"
    cfg.write_text("family=cl2\nr1=0.76\nr2=0.76\n")
    assert run(["region", "--config", str(cfg), "--out-dir", str(tmp_path / "a")]) == 0
    assert "family=cl2 preset=adder-pair satisfied=false" in capsys.readouterr().out
    assert run(["region", "--family", "cl2", "--r1", "0.76", "--r2", "0.76",
                "--out-dir", str(tmp_path / "b")]) == 0
    assert _digests(tmp_path / "a") == _digests(tmp_path / "b")
    # the command line still wins, and a missing or bad family still exits 2
    assert run(["region", "--config", str(cfg), "--family", "ces2",
                "--out-dir", str(tmp_path / "c")]) == 0
    assert _read(tmp_path / "c" / "region.json")["family"] == "ces2"
    cfg.write_text("r1=0.7\n")
    assert run(["region", "--config", str(cfg)]) == 2
    assert "required: --family" in capsys.readouterr().err
    cfg.write_text("family=cl3\n")
    assert run(["region", "--config", str(cfg)]) == 2


def test_config_may_name_every_optional_flag(tmp_path):
    # each subcommand's non-required flags, set in a config file, give the
    # bytes the same flags give on the command line
    cases = {
        "simulate-mac": "source=additive\np1=0.1\np2=0.05\nsigma=0.05\ngamma=0.05\n"
                        "channel=additive-pair\ndelta=0.1\nscheme=identical-linear\n"
                        "flip=0.2\nn-list=4,5\ntrials=6\nseed=3\nworkers=1\n"
                        "emit-plot-data=true\n",
        "simulate-macfb": "k=2\nn=6\nblocks=9\ndelta=0.05\nseed=2\nsum-decoder=typicality\n"
                          "typicality-margin=0.1\nwith-ptp=yes\nemit_plot_data=1\n",
        "region": "sigma=0.1\ngamma=0.05\nalpha=0.2\ndelta=0.2\nr1=0.7\nr2=0.7\nseed=5\n"
                  "search=quick\n",
        "frontier": "delta=0.2\ngamma-steps=4\nemit-plot-data=true\n",
        "common-parts": "source=additive\np1=0.2\np2=0.3\nsigma=0.1\ngamma=0.1\nq=2\n",
        "structure-measure": "target=input-law\ndelta=0.2\ncount=2\ngrid-step=0.05\n"
                             "law=0.25,0,0,0.25,0,0.25,0.25,0\nk=3\nn=6\ntrials=5\nseed=1\n"
                             "emit-plot-data=true\n",
        "verify-lemmas": "q=3\nk=1\nn=2\n",
    }
    for name, text in cases.items():
        extra = ["--family", "cl2"] if name == "region" else []
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(text)
        flags = []
        for line in text.splitlines():
            key, _, value = line.partition("=")
            key = "--" + key.replace("_", "-")
            flags += [key] if key in ("--with-ptp", "--emit-plot-data") else [key, value]
        via_config, via_flags = tmp_path / name / "config", tmp_path / name / "flags"
        assert run([name, *extra, "--config", str(cfg), "--out-dir", str(via_config)]) == 0
        assert run([name, *extra, *flags, "--out-dir", str(via_flags)]) == 0
        assert _digests(via_config) == _digests(via_flags), name
        assert len(_digests(via_config)) >= 2
    cfg = tmp_path / "out.cfg"
    cfg.write_text(f"out-dir={tmp_path / 'from-config'}\nq=3\nk=1\n")
    assert run(["verify-lemmas", "--config", str(cfg)]) == 0
    assert (tmp_path / "from-config" / "verify-lemmas.csv").exists()


def test_simulate_mac_partition_independent(tmp_path):
    base = ["simulate-mac", "--channel", "additive-pair", "--delta", "0.1",
            "--source", "additive", "--p1", "0.05", "--p2", "0.05",
            "--n-list", "4", "--trials", "24", "--seed", "3"]
    assert run(base + ["--workers", "1", "--out-dir", str(tmp_path / "a")]) == 0
    assert run(base + ["--workers", "3", "--out-dir", str(tmp_path / "b")]) == 0
    report_a = (tmp_path / "a" / "simulate-mac.json").read_text()
    report_b = (tmp_path / "b" / "simulate-mac.json").read_text()
    assert report_a == report_b
    blob = json.loads(report_a)
    assert blob["runs"][0]["trials"] == 24
    assert run(["simulate-mac", "--n-list", "zero,"]) == 2


def test_simulate_mac_workers_0_takes_the_affinity_mask(tmp_path, monkeypatch):
    seen, simulate = [], cli.monte_carlo_error

    def recording(*args, workers):
        seen.append(workers)
        return simulate(*args, workers=workers)

    monkeypatch.setattr(cli, "available_cores", lambda: 3)
    monkeypatch.setattr(cli, "monte_carlo_error", recording)
    assert run(["simulate-mac", "--n-list", "4,5", "--trials", "4", "--workers", "0",
                "--out-dir", str(tmp_path)]) == 0
    assert seen == [3, 3]


def test_structure_measure_both_targets(tmp_path, capsys):
    assert run(["structure-measure", "--count", "3", "--seed", "7",
                "--out-dir", str(tmp_path), "--emit-plot-data"]) == 0
    assert "satisfied=true" in capsys.readouterr().out
    blob = _read(tmp_path / "structure-measure.json")
    assert blob["min_tv"] >= blob["bound"] - blob["grid_slack"]
    assert len(blob["samples"]) == 3

    member = "0.25,0,0,0.25,0,0.25,0.25,0"
    assert run(["structure-measure", "--law", member, "--out-dir", str(tmp_path)]) == 0
    assert _read(tmp_path / "structure-measure.json")["min_tv"] == 0.0
    assert run(["structure-measure", "--law", "0.5,0.5"]) == 2

    assert run(["structure-measure", "--target", "codebooks", "--k", "4", "--n", "10",
                "--trials", "60", "--seed", "1", "--out-dir", str(tmp_path)]) == 0
    rows = (tmp_path / "structure-measure.csv").read_text().splitlines()
    assert rows[0].split(",")[0] == "scheme (id)"
    assert rows[1].startswith("identical-linear")
    assert rows[2].startswith("independent-random")
    assert run(["structure-measure", "--target", "codebooks", "--emit-plot-data"]) == 2


def test_common_parts_sigma_gamma_values(tmp_path, capsys):
    code = run(["common-parts", "--source", "sigma-gamma", "--sigma", "0.1",
                "--gamma", "0.2", "--out-dir", str(tmp_path)])
    assert code == 0
    assert "additive_found=true" in capsys.readouterr().out
    blob = _read(tmp_path / "common-parts.json")
    assert blob["mutual"]["components"] == 1
    assert blob["additive"]["found"] is True
    # the bitwise relabeling recovers both independent coordinates
    want = sum(-p * math.log2(p) - (1 - p) * math.log2(1 - p) for p in (0.1, 0.2))
    assert blob["additive"]["entropy_bits"] == pytest.approx(want, abs=1e-12)
    rows = (tmp_path / "common-parts.csv").read_text().splitlines()
    assert len(rows) == 6
    assert rows[1].startswith("mutual,1,")


def test_confidence_interval_cells_are_plain_numbers(tmp_path):
    assert run(["simulate-mac", "--channel", "additive-pair", "--source", "additive",
                "--n-list", "4", "--trials", "12", "--seed", "2", "--workers", "1",
                "--out-dir", str(tmp_path / "mac")]) == 0
    assert run(["structure-measure", "--target", "codebooks", "--k", "4", "--n", "10",
                "--trials", "30", "--seed", "1", "--out-dir", str(tmp_path / "books")]) == 0
    for path in (tmp_path / "mac" / "simulate-mac.csv",
                 tmp_path / "books" / "structure-measure.csv"):
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        cols = [c for c in rows[0] if c.startswith("ci_")]
        assert len(cols) == 2, path.name
        for row in rows:
            for col in cols:
                assert 0.0 <= float(row[col]) <= 1.0, (path.name, col, row[col])


def test_simulate_mac_runs_with_default_flags(tmp_path):
    # the default decoder needs a product law on (S1, S2), so the default source is additive
    assert run(["simulate-mac", "--n-list", "4", "--trials", "2", "--out-dir", str(tmp_path)]) == 0
    assert _read(tmp_path / "simulate-mac.json")["source"]["family"] == "additive"


def test_simulate_mac_refuses_oversized_binary_enumeration(tmp_path, capsys):
    argv = ["simulate-mac", "--source", "additive", "--n-list", "27", "--trials", "1",
            "--out-dir", str(tmp_path)]
    assert run(argv) == 2
    assert "cap" in capsys.readouterr().err


def test_simulate_mac_checks_decode_work_before_the_first_trial(tmp_path, capsys):
    # the default --n-list 8,12,16 with 200 trials: n = 12 alone is about
    # 4e10 candidate-positions, minutes of work, and n = 16 passes MAX_CANDIDATES
    start = time.perf_counter()
    assert run(["simulate-mac", "--channel", "quaternary", "--out-dir", str(tmp_path)]) == 2
    assert time.perf_counter() - start < 1.0
    assert "work cap" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())
    assert run(["simulate-mac", "--channel", "quaternary", "--n-list", "8,16", "--trials", "1",
                "--out-dir", str(tmp_path)]) == 2
    assert "guard" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_non_finite_inputs_and_bad_grid_steps_exit_2(tmp_path):
    out = ["--out-dir", str(tmp_path)]
    assert run(["structure-measure", "--law", ",".join(["nan"] * 8)] + out) == 2
    assert run(["region", "--family", "cl2", "--r1", "nan"] + out) == 2
    assert run(["region", "--family", "macfb", "--alpha", "nan"] + out) == 2
    for step in ("0", "-0.001", "2", "nan"):
        assert run(["structure-measure", "--count", "2", "--grid-step", step] + out) == 2
        assert run(["structure-measure", "--law", "0.25,0,0,0.25,0,0.25,0.25,0",
                    "--grid-step", step] + out) == 2
    assert not any(tmp_path.iterdir())


def test_readme_examples_run(tmp_path, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"^Examples:\n\n```sh\n(.*?)^```", readme, re.S | re.M).group(1)
    lines = [line for line in block.splitlines() if line.startswith("trimac ")]
    assert len(lines) >= 5
    for line in lines:
        argv = shlex.split(line)[1:]
        assert run([*argv, "--out-dir", str(tmp_path / argv[0])]) == 0, line


# The report writers state their JSON keys through dataclasses.asdict; each
# run's CSV and JSON text is pinned in writer_pins.json, recorded from the
# writers that listed every field by hand.
PINNED_RUNS = {
    "simulate-mac-linear": ["simulate-mac", "--n-list", "4,6", "--trials", "12",
                            "--workers", "1"],
    "simulate-mac-unstructured": ["simulate-mac", "--scheme", "unstructured", "--n-list", "4",
                                  "--trials", "12", "--workers", "1"],
    "simulate-macfb-k3": ["simulate-macfb", "--k", "3", "--n", "8", "--blocks", "40",
                          "--with-ptp"],
    # k = 14 is past the sumset's pair guard: code_sumset is null
    "simulate-macfb-k14": ["simulate-macfb", "--k", "14", "--n", "24", "--blocks", "4",
                           "--delta", "0.02", "--with-ptp"],
    "structure-measure-input-law": ["structure-measure", "--count", "3"],
    "structure-measure-codebooks": ["structure-measure", "--target", "codebooks", "--k", "4",
                                    "--n", "8", "--trials", "40"],
    "verify-lemmas": ["verify-lemmas", "--q", "2", "--k", "2", "--n", "2"],
}
WRITER_PINS = json.loads((Path(__file__).parent / "writer_pins.json").read_text())


@pytest.mark.parametrize("name", sorted(PINNED_RUNS))
def test_report_writers_keep_their_bytes(tmp_path, name):
    argv = PINNED_RUNS[name]
    assert run([*argv, "--out-dir", str(tmp_path)]) == 0
    for ext in ("csv", "json"):
        assert (tmp_path / f"{argv[0]}.{ext}").read_text() == WRITER_PINS[name][ext]


def test_frontier_keeps_the_per_point_search_bytes(tmp_path):
    # digests recorded from the frontier that searched one gamma at a time
    pins = json.loads((Path(__file__).parent / "frontier_pins.json").read_text())
    assert run([*pins["argv"], "--out-dir", str(tmp_path)]) == 0
    assert _digests(tmp_path) == pins["sha256"]
