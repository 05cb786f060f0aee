"""Shared fixture: the `lne check` registry run once per session at seeds 0-9.

The invariants in ``lne.checks`` are stated there and only there; every
test of one of them asks this fixture, which runs each registry entry at
seeds 0-9 the first time it is named and asserts that every seed passed.
"""

import pytest

from lne.checks import CHECKS


@pytest.fixture(scope="session")
def check_at_seeds():
    """check_at_seeds(name) -> the seed-0 detail of that check, after
    asserting that it passed at every seed 0-9."""
    results = {}

    def run(name):
        if name not in results:
            check = dict(CHECKS)[name]
            results[name] = [check(seed) for seed in range(10)]
        failed = [(seed, d) for seed, (passed, d) in enumerate(results[name]) if not passed]
        assert not failed, (name, failed)
        return results[name][0][1]

    return run
