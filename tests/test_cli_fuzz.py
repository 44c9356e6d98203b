"""The CLI fuzz's properties (``cli_fuzz.PROPERTIES``) on a seeded slice
of its commands, each run twice in process."""

import pytest

import cli_fuzz

SLICE = cli_fuzz.commands(seed=0, count=300)


@pytest.fixture(scope="module")
def outcomes():
    return [(argv, cli_fuzz.run(argv), cli_fuzz.run(argv)) for argv in SLICE]


@pytest.mark.parametrize("name", sorted(cli_fuzz.PROPERTIES))
def test_fuzzed_commands_keep_property(outcomes, name):
    holds = cli_fuzz.PROPERTIES[name]
    broken = [argv for argv, first, again in outcomes if not holds(first, again)]
    assert not broken, f"{len(broken)} of {len(SLICE)} commands break it, first {broken[0]}"
