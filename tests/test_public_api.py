"""The package's lazy public API: every exported name resolves."""

import importlib

import pytest

import lasutility_ray


@pytest.mark.parametrize("name", lasutility_ray.__all__)
def test_every_export_resolves(name):
    mod_name, attr = lasutility_ray._PUBLIC[name]
    obj = getattr(importlib.import_module(mod_name), attr)
    assert getattr(lasutility_ray, name) is obj
