"""Every Eisenstein series and named cusp form serializes byte for byte as
recorded in ``data/forms_goldens.json`` (see its capture script)."""

import json
from pathlib import Path

import pytest

from .data.capture_forms_goldens import cases, digest

GOLDENS = json.loads(
    (Path(__file__).parent / "data" / "forms_goldens.json").read_text()
)
CASES = dict(cases())


def test_goldens_cover_every_case():
    assert sorted(CASES) == sorted(GOLDENS)


@pytest.mark.parametrize("label", sorted(GOLDENS))
def test_serialization_matches_golden(label):
    assert digest(CASES[label]()) == GOLDENS[label]
