"""The package's public surface."""

import trioct


def test_every_exported_name_resolves():
    missing = [name for name in trioct.__all__ if not hasattr(trioct, name)]
    assert missing == []
