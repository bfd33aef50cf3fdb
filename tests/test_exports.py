"""``thimac.__all__`` lists every public name of the package, once."""

import __future__
import types

import thimac


def _exported(name, value):
    """Public, not a submodule, and not a ``from __future__`` feature."""
    return (
        not name.startswith("_")
        and not isinstance(value, types.ModuleType)
        and getattr(__future__, name, None) is not value
    )


def test_all_is_sorted_and_unique_with_the_version_last():
    names = thimac.__all__
    assert names[-1] == "__version__"
    assert names[:-1] == sorted(names[:-1])
    assert len(set(names)) == len(names)


def test_all_lists_exactly_the_public_attributes():
    for name in thimac.__all__:
        assert not isinstance(getattr(thimac, name), types.ModuleType), name
    public = {name for name, value in vars(thimac).items() if _exported(name, value)}
    assert public == set(thimac.__all__) - {"__version__"}
