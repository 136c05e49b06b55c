"""What a recorded graph keeps for its backward, per op and per array.

Run from the repository root, on one training step of a preset and encoder:

    python3 tools/tape_kept.py --preset small --temporal ssm
    python3 tools/tape_kept.py --preset full --temporal pointnet

Each preset runs at its training benchmark's shape: ``small`` at
``train_small_ssm``'s (N = 5, batch 32), ``full`` at ``train_full``'s (N = 11,
batch 8), both with 24 frames, context 10, M = 8 and seed 0. The tool runs the
step's forward pass, then walks the graph from the loss without running
backward. A node keeps the arrays its backward closure reaches: through closure
cells, nested functions, tuples and lists, and ``tensor._Rebuild`` recipes
(their build function and their sources), so an array behind a chain of
recipes is found too. A kept view counts as the array that owns its memory.
The model's parameters are excluded. Each array is credited once to every op
that holds it, so the op totals can add up to more than the graph's total,
which counts each array once.
"""

from __future__ import annotations

import argparse
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from causaltraj import tensor as T                          # noqa: E402
from causaltraj.data import synth_forking_play              # noqa: E402
from causaltraj.model import ModelConfig, TrajectoryModel   # noqa: E402
from causaltraj.trainer import epoch_batches                # noqa: E402

MIB = float(1 << 20)
TOP = 25                        # largest arrays listed


def owner(a: np.ndarray) -> np.ndarray:
    """The array that owns the memory of ``a`` (``a`` itself unless it is a view)."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def op_name(node: T._Node) -> str:
    """The op that recorded ``node``: the function its backward closure was defined in."""
    return node.backward.__qualname__.split(".")[0].lstrip("_")


def node_arrays(node: T._Node) -> list[np.ndarray]:
    """The owners of every array ``node``'s backward reaches, each once."""
    found: dict[int, np.ndarray] = {}
    seen: set[int] = set()
    stack = [node.backward]
    while stack:
        obj = stack.pop()
        if isinstance(obj, np.ndarray):
            o = owner(obj)
            found[id(o)] = o
        elif id(obj) in seen:
            continue
        elif isinstance(obj, T._Rebuild):
            seen.add(id(obj))
            stack.append(obj.build)
            stack.extend(obj.sources)
        elif isinstance(obj, (tuple, list)):
            stack.extend(obj)
        elif callable(obj) and getattr(obj, "__closure__", None):
            seen.add(id(obj))
            stack.extend(cell.cell_contents for cell in obj.__closure__)
    return list(found.values())


def kept(root: T.Tensor, exclude=()) -> dict:
    """What the graph under ``root`` keeps, leaving out the arrays of ``exclude``.

    Returns ``{"arrays": {id: array}, "ops": {op: set of ids}, "holders": {id:
    {op: node count}}}``, keyed by the id of each kept array's owner.
    """
    skip = {id(owner(t.data)) for t in exclude}
    arrays: dict[int, np.ndarray] = {}
    ops: dict[str, set[int]] = defaultdict(set)
    holders: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    stack, seen = [root._node], set()
    while stack:
        node = stack.pop()
        if type(node) is not T._Node or id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node.parents)
        name = op_name(node)
        for a in node_arrays(node):
            if id(a) in skip:
                continue
            arrays[id(a)] = a
            ops[name].add(id(a))
            holders[id(a)][name] += 1
    return {"arrays": arrays, "ops": dict(ops), "holders": holders}


def mib(arrays: dict, ids) -> float:
    return sum(arrays[i].nbytes for i in ids) / MIB


def report(result: dict) -> str:
    arrays, ops, holders = result["arrays"], result["ops"], result["holders"]
    lines = [f"kept {mib(arrays, arrays):.2f} MiB in {len(arrays)} arrays", "", "per op (MiB):"]
    for name, ids in sorted(ops.items(), key=lambda kv: -mib(arrays, kv[1])):
        lines.append(f"  {name:<20} {mib(arrays, ids):8.2f}  ({len(ids)} arrays)")
    lines += ["", f"largest arrays (of {len(arrays)}):"]
    for i in sorted(arrays, key=lambda i: -arrays[i].nbytes)[:TOP]:
        a = arrays[i]
        held = ", ".join(f"{op} x{n}" if n > 1 else op for op, n in sorted(holders[i].items()))
        shape = "[" + ", ".join(map(str, a.shape)) + "]"
        lines.append(f"  {a.nbytes / MIB:6.2f}  {shape:<22} {a.dtype.name:<8} {held}")
    return "\n".join(lines)


# (players, batch) of each preset's training benchmark; the rest of the shape is shared
SHAPES = {"small": (4, 32), "full": (10, 8)}
FRAMES, CONTEXT, COMPONENTS, SEED = 24, 10, 8, 0


def training_step(preset: str, temporal: str):
    """The model and the loss of one recorded training step (forward only)."""
    players, batch = SHAPES[preset]
    common = dict(num_agents=players + 1, num_components=COMPONENTS, context_frames=CONTEXT,
                  future_frames=FRAMES - CONTEXT, temporal=temporal, seed=SEED)
    cfg = ModelConfig.small(**common) if preset == "small" else ModelConfig(**common)
    model = TrajectoryModel(cfg)
    ts = synth_forking_play(batch, frames=FRAMES, players=players, seed=SEED).trajectories
    positions, categories = next(epoch_batches(ts, batch, 0, 0))
    loss, _ = model.loss(positions, categories)
    return model, loss


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--preset", choices=tuple(SHAPES), default="small")
    ap.add_argument("--temporal", choices=("pointnet", "ssm"), default="ssm")
    a = ap.parse_args(argv)
    model, loss = training_step(a.preset, a.temporal)
    players, batch = SHAPES[a.preset]
    print(f"{a.preset} {a.temporal}: N = {players + 1}, batch {batch}, "
          f"{FRAMES} frames, context {CONTEXT}, M = {COMPONENTS}")
    print(report(kept(loss, model.parameters())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
