"""The battery's bounded draws consume the generator as `random` does.

nagumo._below reproduces Random._randbelow_with_getrandbits, the body that
randrange, randint and choice reach on CPython 3.10 to 3.13.  The module
needs only the standard library, so it also runs without pytest:

    PYTHONPATH=src python tests/test_draws.py
"""

from __future__ import annotations

import random

from momentpde.nagumo import _below

SEED = 2024
DRAWS = 60
BOUNDS = (*range(1, 41), 2**30)


def test_below_matches_randrange():
    for n in BOUNDS:
        ours, theirs = random.Random(SEED), random.Random(SEED)
        assert ([_below(ours, n) for _ in range(DRAWS)]
                == [theirs.randrange(n) for _ in range(DRAWS)]), n
        assert ours.getstate() == theirs.getstate(), n


def test_below_matches_randint():
    for n in BOUNDS:
        for low in (-9, 0, 1):
            ours, theirs = random.Random(SEED), random.Random(SEED)
            assert ([low + _below(ours, n) for _ in range(DRAWS)]
                    == [theirs.randint(low, low + n - 1)
                        for _ in range(DRAWS)]), (low, n)
            assert ours.getstate() == theirs.getstate(), (low, n)


def test_below_matches_choice():
    for n in BOUNDS[:-1]:
        seq = tuple(f"item{i}" for i in range(n))
        ours, theirs = random.Random(SEED), random.Random(SEED)
        assert ([seq[_below(ours, len(seq))] for _ in range(DRAWS)]
                == [theirs.choice(seq) for _ in range(DRAWS)]), n
        assert ours.getstate() == theirs.getstate(), n


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
    print("draws match")
