"""The package's public names."""
import dymatch


def test_star_import_binds_every_public_name():
    # a name left in __all__ after its definition is gone fails here
    namespace = {}
    exec("from dymatch import *", namespace)
    assert all(namespace[name] is getattr(dymatch, name)
               for name in dymatch.__all__)
    assert len(set(dymatch.__all__)) == len(dymatch.__all__)
