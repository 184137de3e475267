"""The package's public surface: everything exported is importable."""

import tvec


def test_every_exported_name_resolves():
    missing = [name for name in tvec.__all__ if not hasattr(tvec, name)]
    assert missing == []
    assert len(set(tvec.__all__)) == len(tvec.__all__)
