"""Frequent-itemset mining on prime-coded transactions.

Itemsets are encoded as square-free integers, one prime per item, so subset
tests become divisibility tests. A divisibility-ordered tree (the PC-tree)
captures a transaction database in one pass, and the PC-miner enumerates all
frequent itemsets from the tree's candidate head set. Brute-force and Apriori
reference miners are included as oracles and comparison baselines.
"""

from .baselines import (
    BaselineResult,
    TransactionDB,
    UniverseTooLargeError,
    apriori_mine,
    brute_force_mine,
)
from .dataset_io import (
    STATS_HEADER,
    StatsRow,
    SyntheticSpec,
    TransactionParseError,
    generate_synthetic,
    load_transactions,
)
from .pc_miner import (
    MiningResult,
    candidate_head,
    candidate_head_set,
    maximal_frequent,
    mine,
)
from .pc_tree import PCNode, PCTree, build_tree
from .prime_codec import (
    ForeignPrimeError,
    Itemset,
    PrimeTable,
    UnknownItemError,
    as_itemset,
    build_prime_table,
    decode,
    divides,
    encode,
    first_n_primes,
)

__version__ = "0.1.0"

__all__ = [
    "BaselineResult",
    "ForeignPrimeError",
    "Itemset",
    "MiningResult",
    "PCNode",
    "PCTree",
    "PrimeTable",
    "STATS_HEADER",
    "StatsRow",
    "SyntheticSpec",
    "TransactionDB",
    "TransactionParseError",
    "UniverseTooLargeError",
    "UnknownItemError",
    "apriori_mine",
    "as_itemset",
    "brute_force_mine",
    "build_prime_table",
    "build_tree",
    "candidate_head",
    "candidate_head_set",
    "decode",
    "divides",
    "encode",
    "first_n_primes",
    "generate_synthetic",
    "load_transactions",
    "maximal_frequent",
    "mine",
]
