"""Codec tests: known values, an independent sieve oracle, and round-trip laws."""

from itertools import combinations, takewhile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcmine.pc_tree import PCNode
from pcmine.prime_codec import (
    ForeignPrimeError,
    UnknownItemError,
    as_itemset,
    build_prime_table,
    decode,
    divides,
    encode,
    first_n_primes,
)

A, B, C, D, E, F = range(6)


def sieve_oracle(limit):
    """Sieve of Eratosthenes up to a limit, written independently of first_n_primes."""
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            flags[p * p:: p] = bytearray(len(flags[p * p:: p]))
    return [i for i, keep in enumerate(flags) if keep]


def test_first_n_primes_known_values():
    assert first_n_primes(0) == []
    assert first_n_primes(1) == [2]
    assert first_n_primes(6) == [2, 3, 5, 7, 11, 13]
    assert first_n_primes(10)[-1] == 29


def test_first_n_primes_against_sieve():
    got = first_n_primes(200)
    assert got == sieve_oracle(got[-1])
    assert len(got) == 200


def trial_division_oracle(n):
    """The first n primes by trial division against the primes found so far."""
    primes = [2] if n else []
    candidate = 3
    while len(primes) < n:
        if all(candidate % p for p in takewhile(lambda p: p * p <= candidate, primes)):
            primes.append(candidate)
        candidate += 2
    return primes


def test_first_n_primes_matches_trial_division():
    assert first_n_primes(10_000) == trial_division_oracle(10_000)
    for n in range(12):  # around the small-n limit and the n >= 6 bound
        assert first_n_primes(n) == trial_division_oracle(n)


def test_first_n_primes_rejects_negative():
    with pytest.raises(ValueError):
        first_n_primes(-1)


def test_prime_table_is_ascending_and_bijective():
    table = build_prime_table({9, 3, 5})
    assert table.prime_for(3) == 2
    assert table.prime_for(5) == 3
    assert table.prime_for(9) == 5
    assert table.item_for(5) == 9
    assert len(table) == 3 and 9 in table and 4 not in table
    with pytest.raises(UnknownItemError, match="item 4 is not in this prime table"):
        table.prime_for(4)
    assert repr(table) == "PrimeTable(3 items)"
    # a tree node shows its value, the code of its items in this table
    assert repr(PCNode(encode((3, 9), table), (3, 9), birth=1)) == "PCNode(10, birth=1)"


def test_prime_table_empty_universe():
    table = build_prime_table([])
    assert len(table) == 0
    assert encode((), table) == 1


def test_prime_table_rejects_negative_ids():
    with pytest.raises(ValueError):
        build_prime_table([-1, 2])


@pytest.fixture(scope="module")
def six_table():
    return build_prime_table(range(6))


def test_encode_known_values(six_table):
    assert encode((A, B, E), six_table) == 66
    assert encode((A, B, C, D, E), six_table) == 2310
    assert encode((), six_table) == 1
    # raw input may be unsorted and contain duplicates
    assert encode([E, B, A, B], six_table) == 66


def test_encode_unknown_item(six_table):
    with pytest.raises(UnknownItemError, match="item 17 is not in this prime table"):
        encode((A, 17), six_table)


def test_decode_known_values(six_table):
    assert decode(910, six_table) == (A, C, D, F)
    assert decode(1, six_table) == ()
    assert decode(66, six_table) == (A, B, E)


def test_decode_rejects_foreign_and_square(six_table):
    with pytest.raises(ForeignPrimeError):
        decode(17, six_table)
    with pytest.raises(ForeignPrimeError):
        decode(2310 * 17, six_table)
    with pytest.raises(ForeignPrimeError):
        decode(4, six_table)  # 2*2 is not square-free
    with pytest.raises(ValueError):
        decode(0, six_table)


def test_divides_known_values():
    assert divides(66, 2310)
    assert not divides(455, 770)
    assert divides(70, 70)
    assert divides(1, 9699690)
    with pytest.raises(ValueError):
        divides(0, 6)


def test_as_itemset_canonicalizes():
    assert as_itemset([5, 1, 3, 1]) == (1, 3, 5)
    assert as_itemset(()) == ()


@given(st.lists(st.integers(min_value=0, max_value=20)),
       st.sampled_from([list, tuple, lambda items: (item for item in items)]))
def test_as_itemset_is_the_sorted_distinct_items(items, kind):
    """Lists, generators and tuples, with repeats and in any order."""
    got = as_itemset(kind(items))
    assert type(got) is tuple and got == tuple(sorted(set(items)))
    assert as_itemset(got) is got  # a canonical tuple is kept as it is


def test_subset_divisibility_exhaustive_small(six_table):
    """divides(encode(x), encode(y)) iff x is a subset of y, all 6-item pairs."""
    universe = list(range(6))
    subsets = [()] + [c for k in range(1, 7) for c in combinations(universe, k)]
    for x in subsets:
        vx = encode(x, six_table)
        for y in subsets:
            assert divides(vx, encode(y, six_table)) == set(x).issubset(y)


itemsets_12 = st.sets(st.integers(min_value=0, max_value=11))


@given(items=itemsets_12)
def test_round_trip(items):
    """decode inverts encode over a 12-item universe."""
    table = build_prime_table(range(12))
    assert decode(encode(items, table), table) == as_itemset(items)


@given(x=itemsets_12, y=itemsets_12)
def test_subset_divisibility_property(x, y):
    table = build_prime_table(range(12))
    assert divides(encode(x, table), encode(y, table)) == x.issubset(y)


@given(x=itemsets_12, extra=st.sets(st.integers(min_value=0, max_value=11), min_size=1))
def test_encoding_grows_with_the_set(x, extra):
    """A proper superset encodes to a strictly larger value."""
    table = build_prime_table(range(12))
    y = x | extra
    if y != x:
        assert encode(x, table) < encode(y, table)


@given(items=itemsets_12)
@settings(max_examples=50)
def test_square_freeness(items):
    table = build_prime_table(range(12))
    value = encode(items, table)
    for prime in table.primes:
        assert value % (prime * prime) != 0
