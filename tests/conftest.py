"""Shared fixtures."""

import pytest


@pytest.fixture
def count_builds(monkeypatch):
    """count_builds(cls, name) -> the list of instances whose cached property
    `name` (defined on `cls`) has been computed since the call, in order."""

    def install(cls, name):
        prop = vars(cls)[name]
        build, built = prop.func, []

        def counting(instance):
            built.append(instance)
            return build(instance)

        monkeypatch.setattr(prop, "func", counting)
        return built

    return install
