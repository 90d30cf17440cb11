import arithterm


def test_export_list_resolves_without_duplicates():
    assert len(arithterm.__all__) == len(set(arithterm.__all__))
    for name in arithterm.__all__:
        assert hasattr(arithterm, name), name
    namespace = {}
    exec("from arithterm import *", namespace)
    assert set(arithterm.__all__) <= namespace.keys()
