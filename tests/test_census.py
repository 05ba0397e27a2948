"""``scripts/census.py``: every knock-out names an attribute that
exists, and every census pin parses.  The census itself (~25 s) runs
in its own CI job."""

import glob
import importlib.util
from pathlib import Path

import pytest

from repro.fortran.parser import parse_source

ROOT = Path(__file__).resolve().parents[1]


def _load():
    spec = importlib.util.spec_from_file_location(
        "census", ROOT / "scripts" / "census.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


census = _load()


@pytest.mark.parametrize("component", census.COMPONENTS,
                         ids=lambda c: f"{c.family}:{c.name}")
def test_every_knock_out_patches_a_live_attribute(component):
    with census._patch(component, component.knock):
        pass


@pytest.mark.parametrize("path", sorted(glob.glob(
    str(ROOT / "tests" / "polaris" / "census" / "*.f"))),
    ids=lambda p: Path(p).name)
def test_every_pin_parses(path):
    with open(path) as f:
        assert parse_source(f.read()).units
