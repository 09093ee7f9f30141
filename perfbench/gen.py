"""Seeded input generator: writes Erdos-Renyi connected graphs as edge lists.

Runs in a process of its own, so that the memory and time it spends do not
show in the workload process; it imports numpy only, never resq.  Graph i of
a set is drawn from ``numpy.random.default_rng([seed, stream, i])``, so the
same arguments always write the same files.

    python3 perfbench/gen.py --n 2000 --p 0.005 --seed 1 --stream 0 \
        --count 8 --out-dir DIR
"""

from __future__ import annotations

import argparse
import json
import os

import numpy as np


def _components(n: int, u: np.ndarray, v: np.ndarray) -> int:
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    count = n
    for a, b in zip(u.tolist(), v.tolist()):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            count -= 1
    return count


def random_connected_edges(
    n: int, p: float, rng: np.random.Generator, max_draws: int = 1000
) -> tuple[np.ndarray, np.ndarray]:
    """Edges (u < v) of a G(n, p) draw, redrawn until the graph is connected."""
    iu, ju = np.triu_indices(n, k=1)
    for _ in range(max_draws):
        keep = rng.random(iu.size) < p
        u, v = iu[keep], ju[keep]
        if _components(n, u, v) == 1:
            return u, v
    raise RuntimeError(f"no connected G({n}, {p}) in {max_draws} draws")


def format_edge_list(n: int, u: np.ndarray, v: np.ndarray) -> str:
    return f"{n}\n" + "".join(f"{a} {b}\n" for a, b in zip(u.tolist(), v.tolist()))


def write_graphs(
    n: int, p: float, seed: int, stream: int, count: int, out_dir: str
) -> list[dict]:
    """Write graphs 0..count-1 of a stream; return one manifest entry each."""
    os.makedirs(out_dir, exist_ok=True)
    manifest = []
    for i in range(count):
        u, v = random_connected_edges(n, p, np.random.default_rng([seed, stream, i]))
        path = os.path.join(out_dir, f"g{i:04d}.el")
        with open(path, "w", encoding="ascii") as fh:
            fh.write(format_edge_list(n, u, v))
        manifest.append({"path": path, "n": n, "m": int(u.size)})
    return manifest


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, required=True)
    ap.add_argument("--p", type=float, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--stream", type=int, required=True)
    ap.add_argument("--count", type=int, required=True)
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args(argv)
    manifest = write_graphs(args.n, args.p, args.seed, args.stream, args.count, args.out_dir)
    with open(os.path.join(args.out_dir, "manifest.json"), "w", encoding="ascii") as fh:
        json.dump(manifest, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
