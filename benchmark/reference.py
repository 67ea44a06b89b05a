"""Fixed pure-Python work that gauges how fast the machine runs right now.

    python3 benchmark/reference.py

The benchmark starts this between builds. It builds, walks and prints
random trees much as treescape does, but its code and its input never
change, so the ratio of a build's wall time to the reference's wall time
next to it cancels the slow and fast spells of a shared machine.
"""

import random

import inputs

ROUNDS = 120


def main():
    rng = random.Random(20160628)
    for _ in range(ROUNDS):
        tree = inputs.random_rooted(128, rng)
        tree.clusters()
        tree.newick(rng)


if __name__ == "__main__":
    main()
