import platformtrial


def test_every_exported_name_resolves():
    assert [name for name in platformtrial.__all__ if not hasattr(platformtrial, name)] == []


def test_star_import():
    namespace = {}
    exec("from platformtrial import *", namespace)
    assert set(platformtrial.__all__) <= set(namespace)
