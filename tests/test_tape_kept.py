"""tools/tape_kept.py: what a recorded graph keeps, per op and per array."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from causaltraj import tensor as T
from causaltraj.encoders import SSM_CONV_WIDTH, SSMBlock
from causaltraj.tensor import Tensor

TOOL = Path(__file__).resolve().parent.parent / "tools" / "tape_kept.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("tape_kept", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def leaf(rng, shape):
    return Tensor(rng.normal(size=shape), requires_grad=True)


def test_mul_of_silu_keeps_each_operand_once(tool):
    rng = np.random.default_rng(0)
    a, z = leaf(rng, (5, 4)), leaf(rng, (3, 5, 4))
    y = T.mul(a, T.silu(z))
    got = tool.kept(y)
    # the mul keeps a for the silu's gradient and the silu output's recipe, which
    # reads z; the silu keeps z directly and through its sigmoid's recipe
    assert set(got["arrays"]) == {id(a.data), id(z.data)}
    assert got["ops"] == {"mul": {id(a.data), id(z.data)}, "silu": {id(z.data)}}
    assert dict(got["holders"][id(z.data)]) == {"mul": 1, "silu": 1}
    report = tool.report(got)
    assert report.splitlines()[0] == f"kept {(a.data.nbytes + z.data.nbytes) / 2**20:.2f} MiB in 2 arrays"


def test_excluded_arrays_and_views(tool):
    rng = np.random.default_rng(1)
    w, x = leaf(rng, (4, 3)), leaf(rng, (2, 4))
    y = T.linear(T.reshape(x, (1, 2, 4)), w)
    got = tool.kept(y, exclude=[w])
    # the linear keeps x's reshaped view for the weight's gradient: x's own array
    assert list(got["arrays"]) == [id(x.data)]


def test_an_ssm_block_keeps_no_padded_conv_input(tool):
    rng = np.random.default_rng(2)
    blk = SSMBlock(rng, 8, state=4, headdim=4)
    L, Tn = 2, 7
    out = blk(leaf(rng, (L, Tn, 8)))
    shapes = {a.shape for a in tool.kept(out, blk.parameters())["arrays"].values()}
    assert (L, Tn + SSM_CONV_WIDTH - 1, blk.conv_dim) not in shapes
    assert (L, Tn, blk.conv_dim) in shapes            # the conv output, which silu keeps
