#!/usr/bin/env python3
"""Offline anchor run: rebuilds the desk-scale fixture networks and prints
their metric rows next to the published reference values.

The published tables were computed from block ranges that were never
disclosed, so exact reproduction is impossible; these fixtures are
constructed to match the one row whose structure is fully determined
(55 nodes / 40 edges / 15 components, largest 19/18).

Usage: python3 scripts/paper_anchors.py [--trials N] [--seed S]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from conftest import forest_blocks  # fixture builders live with the tests

from chaingraph.baseline import small_world_report
from chaingraph.graph import build_graph, project_simple
from chaingraph.metrics import (
    connected_components,
    distance_summary,
    general_metrics,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=20)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    simple = project_simple(build_graph(forest_blocks()))
    components = connected_components(simple)
    report = general_metrics(simple, components)
    print("General metrics (fixture vs. published 1-block row):")
    print(f"  nodes={report.n} (55)  edges={report.m} (40)  "
          f"avg_clus={report.avg_clustering} (0)  components={report.num_components} (15)")
    print(f"  largest component: {report.largest_component_nodes}/"
          f"{report.largest_component_edges} nodes/edges (19/18)")

    dist = distance_summary(simple, components)
    print(f"\nMain-component distances: L={dist.average_distance:.4f} (1.89)  "
          f"diameter={dist.diameter} (2)")

    sw = small_world_report(simple, components, trials=args.trials, seed=args.seed)
    print(f"\nSmall-world comparison over {sw.trials} G({sw.n},{sw.m}) trials, "
          f"seed {sw.seed}:")
    print(f"  cc={sw.cc} (0)  L={sw.avg_distance:.2f} (1.89)  "
          f"cc_RG={sw.cc_rg:.3f} (0.05)  L_RG={sw.l_rg:.2f} (2.94)  sigma={sw.sigma} (0)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
