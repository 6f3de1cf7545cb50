"""Every recorded command-line transcript replays byte for byte as recorded
in ``data/cli_transcripts.json`` (see its capture script)."""

import json
from pathlib import Path

import pytest

from .data.capture_cli_transcripts import commands, transcripts

GOLDENS = json.loads(
    (Path(__file__).parent / "data" / "cli_transcripts.json").read_text()
)


@pytest.fixture(scope="module")
def replayed():
    return transcripts()


def test_goldens_cover_every_command():
    assert sorted(label for label, _, _ in commands()) == sorted(GOLDENS)


@pytest.mark.parametrize("label", sorted(GOLDENS))
def test_transcript_matches_golden(replayed, label):
    assert replayed[label] == GOLDENS[label]
