"""Shared fixtures."""

import pytest


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(module, names): wrap each named function of the module
    for the test and return the dict of their call counts."""

    def install(module, names):
        counts = dict.fromkeys(names, 0)
        for name in names:
            original = getattr(module, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        return counts

    return install
