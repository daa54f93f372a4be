"""Tests for the PEP 562 lazy-export helper and the export maps that use it."""

from __future__ import annotations

import importlib
import json

import pytest

from repro.utils.lazy import resolve_lazy

_LAZY_PACKAGES = [
    "repro",
    "repro.pipeline",
    "repro.pipeline.backends",
    "repro.serve",
    "repro.gateway",
    "repro.cluster",
]


class TestResolveLazy:
    def test_attribute_target_resolves_to_the_attribute(self):
        assert resolve_lazy("pkg", {}, {"dumps": "json:dumps"}, "dumps") is json.dumps

    def test_bare_module_target_resolves_to_the_module(self):
        assert resolve_lazy("pkg", {}, {"codec": "json"}, "codec") is json

    def test_resolved_name_is_cached_into_the_module_globals(self):
        module_globals: dict[str, object] = {}
        resolve_lazy("pkg", module_globals, {"loads": "json:loads"}, "loads")
        assert module_globals == {"loads": json.loads}

    def test_unknown_name_is_an_attribute_error_naming_the_module(self):
        with pytest.raises(AttributeError, match="module 'pkg' has no attribute 'missing'"):
            resolve_lazy("pkg", {}, {"dumps": "json:dumps"}, "missing")

    def test_missing_attribute_of_the_target_module_propagates(self):
        with pytest.raises(AttributeError):
            resolve_lazy("pkg", {}, {"gone": "json:no_such_function"}, "gone")


@pytest.mark.parametrize("package", _LAZY_PACKAGES)
def test_every_lazy_export_resolves_to_its_declared_target(package):
    module = importlib.import_module(package)
    exports = module._LAZY_EXPORTS
    assert exports
    for name, target in exports.items():
        target_module, _, attribute = target.partition(":")
        expected = importlib.import_module(target_module)
        if attribute:
            expected = getattr(expected, attribute)
        assert getattr(module, name) is expected, f"{package}.{name}"
        assert name in dir(module)
