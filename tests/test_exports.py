from __future__ import annotations

import f2rank


def test_all_names_resolve():
    # a name deleted from a module but left in __all__ breaks only
    # `from f2rank import *`; check every entry here instead
    missing = [name for name in f2rank.__all__ if not hasattr(f2rank, name)]
    assert missing == []
    assert len(set(f2rank.__all__)) == len(f2rank.__all__)
