"""What the package's immutable record types promise, checked the same way
for each: ``KroneckerCharacter``, ``CongruenceReport``, ``WitnessReport``,
``IsobaricPolynomial`` and ``ImagQuadField``."""

import pytest


def check_record(cls, fields, text):
    """``fields`` maps each field name, in order, to a value; ``text`` is
    the exact ``repr`` of ``cls`` built from them."""
    names, values = tuple(fields), tuple(fields.values())
    by_position, by_name = cls(*values), cls(**fields)
    assert repr(by_position) == repr(by_name) == text
    assert by_position == by_name and hash(by_position) == hash(by_name)
    assert tuple(getattr(by_position, n) for n in names) == values
    for name in (*names, "extra"):
        with pytest.raises(AttributeError):
            setattr(by_position, name, None)
