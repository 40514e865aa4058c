"""Every exported name resolves, so a stale ``__all__`` entry fails here and
not at a caller's ``from ... import *``."""

from __future__ import annotations

import importlib

import pytest


@pytest.mark.parametrize("module", ["hisim", "hisim.dist", "hisim.hier"])
def test_every_name_in_all_resolves(module):
    mod = importlib.import_module(module)
    assert mod.__all__
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
