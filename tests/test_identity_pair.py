"""tools/identity_pair.py: its grid is deterministic and sees a one-ulp change."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from causaltraj import tensor as T

TOOL = Path(__file__).resolve().parent.parent / "tools" / "identity_pair.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("identity_pair", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(scope="module")
def reference(tool):
    return tool.grid(tiny=True)


def test_the_tiny_grid_gives_equal_hashes_twice(tool, reference):
    assert any("ssm" in name for name in reference)
    assert any("pointnet" in name for name in reference)
    assert set(tool.compare(reference, tool.grid(tiny=True)).values()) == {"equal"}


def test_a_silu_one_ulp_off_flips_only_ssm_entries(tool, reference, monkeypatch):
    silu = T.silu

    def silu_one_ulp_up(a):
        out = silu(a)
        out.data = np.nextafter(out.data, np.inf)
        return out

    monkeypatch.setattr(T, "silu", silu_one_ulp_up)
    status = tool.compare(reference, tool.grid(tiny=True))
    flipped = {name for name, s in status.items() if s != "equal"}
    ssm = {name for name in status if "ssm" in name}
    assert flipped <= ssm
    # every teacher-forced step and every training result of the ssm model sees it
    assert {name for name in ssm if name.startswith(("step/", "train/"))} <= flipped


def test_compare_names_missing_entries(tool):
    assert tool.compare({"a": "1", "b": "2"}, {"a": "1", "c": "3"}) == {
        "a": "equal", "b": "missing", "c": "missing"}
    assert tool.compare({"a": "1"}, {"a": "2"}) == {"a": "different"}
