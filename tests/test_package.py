import walkmine


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from walkmine import *", namespace)
    assert [name for name in walkmine.__all__ if name not in namespace] == []
    assert len(set(walkmine.__all__)) == len(walkmine.__all__)
