"""The package's public names."""

import henonmorse


def test_every_public_name_resolves():
    missing = [name for name in henonmorse.__all__
               if not hasattr(henonmorse, name)]
    assert missing == []
    assert len(set(henonmorse.__all__)) == len(henonmorse.__all__)
