"""The package's public names."""

from __future__ import annotations

import liarclust


def test_star_import_resolves_every_public_name():
    namespace: dict = {}
    exec("from liarclust import *", namespace)
    assert len(set(liarclust.__all__)) == len(liarclust.__all__)
    for name in liarclust.__all__:
        assert namespace[name] is getattr(liarclust, name)
