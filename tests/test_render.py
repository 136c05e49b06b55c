"""SVG scene rendering sanity checks."""

import numpy as np
import pytest

from causaltraj.errors import ShapeError
from causaltraj.render import AGENT_COLORS, render_scene, save_scene


def scene():
    rng = np.random.default_rng(0)
    context = rng.uniform(10, 40, (4, 3, 2))
    future = rng.uniform(10, 40, (5, 3, 2))
    samples = [rng.uniform(10, 40, (5, 3, 2)) for _ in range(2)]
    cats = np.array([0, 1, 2])
    return context, cats, future, samples


def test_element_counts():
    context, cats, future, samples = scene()
    svg = render_scene(context, cats, future=future, samples=samples)
    assert svg.count("<circle") == 3
    # per agent: 2 sample lines + 1 context line + 1 future line
    assert svg.count("<polyline") == 3 * 4
    assert svg.count("stroke-dasharray") == 3
    for color in AGENT_COLORS:
        assert color in svg


def test_context_only():
    context, cats, _, _ = scene()
    svg = render_scene(context, cats)
    assert svg.count("<polyline") == 3
    assert "dasharray" not in svg


def test_rejects_bad_shapes():
    context, cats, _, _ = scene()
    with pytest.raises(ShapeError):
        render_scene(context[:, :, :1], cats)
    with pytest.raises(ShapeError):
        render_scene(context, cats[:2])


def test_save_writes_newline_terminated_file(tmp_path):
    context, cats, _, _ = scene()
    p = tmp_path / "x.svg"
    save_scene(p, context, cats)
    text = p.read_text()
    assert text.endswith("</svg>\n")


def test_failed_write_keeps_old_file(tmp_path):
    class Unwritable:
        def __array__(self, dtype=None, copy=None):
            raise RuntimeError("disk went away")

    context, cats, future, samples = scene()
    p = tmp_path / "x.svg"
    save_scene(p, context, cats, future)
    before = p.read_bytes()
    with pytest.raises(RuntimeError):
        save_scene(p, context, cats, future, samples=[samples[0], Unwritable()])
    assert p.read_bytes() == before
    assert [f.name for f in tmp_path.iterdir()] == ["x.svg"]
