"""Every public callable says what it does: ``help()`` shows its own
docstring, not an empty one or one inherited from a base class."""

import pytest

import udcover


@pytest.mark.parametrize("name", [n for n in udcover.__all__
                                  if callable(getattr(udcover, n))])
def test_public_callable_has_a_docstring(name):
    obj = getattr(udcover, name)
    doc = vars(obj).get("__doc__") if isinstance(obj, type) else obj.__doc__
    assert doc and doc.strip()
