"""Compare the float32 erf kernel with scipy's on every float32 in [0, 4].

Run from the repository root (needs scipy, the test extra):

    PYTHONPATH=src python3 tools/erf_sweep.py

Above 4, erf rounds to 1 in float32, and erf is odd, so this covers every
float32 input whose result can differ. The kernel runs over blocks of
``tensor._ERF_BLOCK`` elements, as ``gelu`` runs it. Prints the largest
distance in ulp from scipy's float32 erf (float64 erf rounded to float32),
the input where it occurs, how many inputs sit at each distance, and the
run time.
"""

from __future__ import annotations

import json
import time

import numpy as np
from scipy import special

from causaltraj import tensor as T

CHUNK = 1 << 22     # inputs per scipy call: 16 MB of float32


def main() -> None:
    stop = int(np.float32(4.0).view(np.int32)) + 1
    block = T._ERF_BLOCK
    s, t = np.empty(block, np.float32), np.empty(block, np.float32)
    counts: dict[int, int] = {}
    worst, worst_x = -1, 0.0
    start = time.perf_counter()
    for lo in range(0, stop, CHUNK):
        x = np.arange(lo, min(lo + CHUNK, stop), dtype=np.int32).view(np.float32)
        got = x.copy()
        for b in range(0, got.size, block):
            z = got[b:b + block]
            T._erf_inplace(z, s[:z.size], t[:z.size])
        dist = np.abs(got.view(np.int32) - special.erf(x).view(np.int32))
        for d, n in zip(*np.unique(dist, return_counts=True)):
            counts[int(d)] = counts.get(int(d), 0) + int(n)
        i = int(dist.argmax())
        if dist[i] > worst:
            worst, worst_x = int(dist[i]), float(x[i])
    print(json.dumps({"inputs": stop, "max_ulp": worst, "at": worst_x,
                      "inputs_per_ulp": counts,
                      "seconds": round(time.perf_counter() - start, 1)}))


if __name__ == "__main__":
    main()
