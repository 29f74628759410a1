"""The public surface of the package."""

import spinladder


def test_all_names_unique_and_resolvable():
    names = spinladder.__all__
    assert len(names) == len(set(names))
    for name in names:
        getattr(spinladder, name)
