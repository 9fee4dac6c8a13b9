import skewgt


def test_every_export_resolves():
    """Every name in `skewgt.__all__` is an attribute of the package and
    `from skewgt import *` binds it, so a stale export fails here."""
    assert len(set(skewgt.__all__)) == len(skewgt.__all__)
    namespace = {}
    exec("from skewgt import *", namespace)
    for name in skewgt.__all__:
        assert namespace[name] is getattr(skewgt, name), name
