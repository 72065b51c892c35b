#!/usr/bin/env python3
"""Records the production shapes of each seed's replayed query.

    python3 perfbench/shapes.py [--seeds 1-10]

Runs the traced query-cold workload per seed (its replay covers the
rotation's first target) and writes perfbench/shapes.json: LogME pairs,
graph nodes and edges, walk tokens, and GBDT rows x features x trees.
A micro-benchmark that claims the production shape matches one of these.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SHAPES = {
    "logme_pairs": "transferability.logme_calls",
    "graph_nodes": "core.graph_builder.nodes",
    "graph_edges": "core.graph_builder.edges",
    "walk_tokens": "embedding.walk_tokens",
    "gbdt_rows": "ml.gbdt.rows",
    "gbdt_features": "ml.gbdt.features",
    "gbdt_trees": "ml.gbdt.trees",
}


def seed_range(text):
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    args = parser.parse_args()
    shapes = {}
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
             "query-cold", "--seed", str(seed), "--seconds", "1", "--trace",
             "1"], cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
        shapes[str(seed)] = {key: int(metrics[name]["value"])
                             for key, name in SHAPES.items()}
        print(seed, shapes[str(seed)], flush=True)
    out = ROOT / "perfbench" / "shapes.json"
    out.write_text(json.dumps(shapes, indent=1) + "\n")


if __name__ == "__main__":
    main()
