import kdom


def test_public_names_resolve():
    """Every name in kdom.__all__ exists once on the package and star-imports."""
    assert len(set(kdom.__all__)) == len(kdom.__all__)
    assert [name for name in kdom.__all__ if not hasattr(kdom, name)] == []
    namespace = {}
    exec("from kdom import *", namespace)
    assert set(kdom.__all__) <= namespace.keys()
