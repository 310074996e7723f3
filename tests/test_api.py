"""The package's public surface."""

import qlayout


def test_every_exported_name_resolves():
    missing = [name for name in qlayout.__all__ if not hasattr(qlayout, name)]
    assert missing == []
    assert len(set(qlayout.__all__)) == len(qlayout.__all__)
