"""The package's export list: every name in `elastopoly.__all__` exists and is listed once."""

import collections

import elastopoly


def test_every_exported_name_resolves_and_is_listed_once():
    missing = [name for name in elastopoly.__all__ if not hasattr(elastopoly, name)]
    repeated = [name for name, n in collections.Counter(elastopoly.__all__).items() if n > 1]
    assert not missing and not repeated, (missing, repeated)
