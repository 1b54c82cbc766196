"""The package's public surface."""

import monosafe


def test_all_names_resolve():
    # a name deleted from a module but left in ``__all__`` fails here at once
    assert len(set(monosafe.__all__)) == len(monosafe.__all__)
    missing = [name for name in monosafe.__all__ if not hasattr(monosafe, name)]
    assert not missing
