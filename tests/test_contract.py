"""The paper contract on the benchmark's ten databases, pinned as sha256 digests.

Each workload's databases are drawn with generate_synthetic at the
workload's default seed plus j * 1,000,000, and mined at its fractional
min-sup as resolve_sigma reads it, the way the benchmark draws and mines
them. Two digests are pinned per database: the PC-tree's shape (its heads,
and each node's birth, value, parent value, child values in order and count)
and the walk (examined, the sorted support map and maximal). The digests
were computed with the code of commit fac386e; a change that moves one
changes the tree or the walk the paper describes.
"""

import hashlib

import pytest

from pcmine.cli import resolve_sigma
from pcmine.dataset_io import SyntheticSpec, generate_synthetic
from pcmine.pc_miner import mine
from pcmine.pc_tree import build_tree

SEED_STRIDE = 1_000_000

# name: (transactions, items, density, default seed, min-sup, databases)
WORKLOADS = {
    "sparse-walk": (1000, 20, 0.3, 7, "0.05", 6),
    "wide-build": (8000, 60, 0.1, 3, "0.105", 3),
    "dense-dup": (40000, 12, 0.6, 1, "0.05", 1),
}

GOLDEN = {  # database: (tree digest, walk digest)
    "sparse-walk-0": ("d8c20373c62fd667e0bba8460669c9afddba94ce1b5fac21a03189270ed1cc7b",
                     "6e079b175fd8307f72f016b046a435bca3b77a3bdb64448fefd54105ccbf0dac"),
    "sparse-walk-1": ("245eb410a3259e034875fbfc9ac6e27b6da4246cf45235989be37ed52b91cce8",
                     "5e73a412a3159adb529cdbe41b0e2d7f4b04ab6a6f3200c516e90e9b93627f94"),
    "sparse-walk-2": ("03af7dbfbd7f92e55319d7ae6ca1ec9220784146e16f7720fbf0a7177283d6bd",
                     "5a38fb915e28aca2d01457e70b691db32143c870fcb98461df5d38500ae590c4"),
    "sparse-walk-3": ("786e92caf6dc98e2c82c3350efae3aca40057401c6e944f9ce67255816f40cf6",
                     "fa35e97d379ffe63dee7430f47f6aab5cb51a49ac913dcee475958091656fac4"),
    "sparse-walk-4": ("ae3a6e77d56b7b4c45a6ee091a58da7509916056a5e314b6c5caad2ab87eec2e",
                     "7a023ab5c005bc96d2a1032969341b6d6d65f1c1e81b749d9b3f6c24a8755ee3"),
    "sparse-walk-5": ("9cffa7882424d8c1b2062b611a9e03bb6af386842cd51764a920281e86531fcc",
                     "111c9471c34a695dac4a02b0f50f976b8bab3ece2cfcadfea64bc4ffa2772467"),
    "wide-build-0": ("62321aaf94628bbe1d9ec9d3606c386695f4a4dd615cbafdb3add90ecf0043ad",
                    "0204aa1fe88f3f304f3c509c2245feab976ce62d45694723cd60be0e14a6430a"),
    "wide-build-1": ("144627c7d6f3f6f618ea024815f7d79667a6507b9b255568d310b7677f7d9c44",
                    "ec57c013b72001ef8b86cbd07d2e5a67d9851fc33bfaba6f297ac57354bb3982"),
    "wide-build-2": ("f90299fb3ce5ded1ee7690ed0e6e86f33006ea71cf3ca7e71826e9293ce8aa46",
                    "c7fbfd46af2a4225cd56b2b8e0e18e52dbd20c3492bff39db49a8717b09843f6"),
    "dense-dup-0": ("4d8cc6be7efce2d0b36bbb580dcc58cae26cec9cc032acfccb8dd62a3cde466d",
                   "1ba8dc367924f2924f96e0b53492b7d122a5255920d4bf8c4bec1b4cd19b947c"),
}

DATABASES = [f"{workload}-{j}" for workload, spec in WORKLOADS.items() for j in range(spec[-1])]


def database(name):
    """The named benchmark database and its absolute threshold."""
    workload, j = name.rsplit("-", 1)
    transactions, items, density, seed, min_sup, _ = WORKLOADS[workload]
    db = generate_synthetic(
        SyntheticSpec(transactions, items, density, seed + int(j) * SEED_STRIDE))
    return db, resolve_sigma(min_sup, len(db))


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def tree_digest(tree) -> str:
    """The heads, then (birth, value, parent value, child values, count) by birth."""
    counts = tree.index.counts
    nodes = []
    stack = [(child, None) for child in tree.root.children]
    while stack:
        node, above = stack.pop()
        nodes.append((node.birth, node.value, above,
                      tuple(child.value for child in node.children), counts[node.birth]))
        stack.extend((child, node.value) for child in node.children)
    return digest((tree.heads(), sorted(nodes)))


def walk_digest(result) -> str:
    return digest((result.examined, sorted(result.frequent.items()), result.maximal))


@pytest.mark.parametrize("name", DATABASES)
def test_benchmark_database_keeps_the_papers_tree_and_walk(name):
    db, sigma = database(name)
    tree = build_tree(db)
    tree_golden, walk_golden = GOLDEN[name]
    assert tree_digest(tree) == tree_golden, f"{name}: the tree moved"
    assert walk_digest(mine(tree, sigma)) == walk_golden, f"{name}: the walk moved"
