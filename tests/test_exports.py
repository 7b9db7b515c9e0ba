"""The package's export lists name only what exists."""

import importlib
import pkgutil

import pytest

import trimac

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(trimac.__path__))


@pytest.mark.parametrize("name", ["trimac", *(f"trimac.{m}" for m in SUBMODULES)])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from trimac import *", namespace)
    assert set(trimac.__all__) <= namespace.keys()


def test_removed_library_api_stays_out():
    # no command, demo or workload used these; the JSON helpers went with their round-trip
    # tests, the strategy samplers and the Monte Carlo estimator with the exact measure
    from trimac import channels, commonparts, probcore, sources

    removed = {
        trimac: ["unstructuredness_estimate"],
        channels: ["channel_to_json", "channel_from_json", "output_distribution"],
        commonparts: ["StrategySampler", "identical_affine_sampler",
                      "memoryless_conditional_sampler", "unstructuredness_estimate"],
        sources: ["source_from_json"],
        probcore: ["tv_distance", "add_derived_axis"],
        probcore.JointPMF: ["from_json"],
    }
    assert [n for owner, names in removed.items() for n in names if hasattr(owner, n)] == []
