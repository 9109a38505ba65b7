"""The package namespace re-exports each module's public names."""

from __future__ import annotations

import iuptools
from iuptools import bench, fringes, optics, qpm, stackio

MODULES = (fringes, optics, qpm, stackio, bench)


def test_all_is_the_union_of_module_exports():
    names = {name for module in MODULES for name in module.__all__}
    names |= {module.__name__.rpartition(".")[2] for module in MODULES}
    assert set(iuptools.__all__) == names


def test_every_exported_name_resolves():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(iuptools, name) is getattr(module, name)
