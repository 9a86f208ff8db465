import positroids

REMOVED = ("GrassmannMatrix", "interval_members", "validate", "validate_matroid")


def test_every_exported_name_resolves():
    assert len(set(positroids.__all__)) == len(positroids.__all__)
    for name in positroids.__all__:
        assert getattr(positroids, name) is not None, name


def test_removed_aliases_are_gone():
    for name in REMOVED:
        assert name not in positroids.__all__
        assert not hasattr(positroids, name)
    assert not hasattr(positroids.DecoratedPermutation, "to_necklace")
