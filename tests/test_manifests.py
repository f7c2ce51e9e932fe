"""The shipped manifests must match the code that reads them."""

import json
from pathlib import Path

import pytest

from satkit.cli import main
from satkit.coding import encoding_manifest
from satkit.propcalc import scheme_manifest

ROOT = Path(__file__).resolve().parent.parent


def test_encoding_manifest_in_sync():
    shipped = json.loads((ROOT / "encoding.json").read_text())
    assert shipped == encoding_manifest()


def test_axiom_scheme_manifest_in_sync():
    shipped = json.loads((ROOT / "axiom_schemes.json").read_text())
    assert shipped == scheme_manifest()


@pytest.mark.parametrize("what, name", [("encoding", "encoding.json"),
                                        ("axioms", "axiom_schemes.json")])
def test_manifest_command_prints_the_shipped_bytes(capsysbinary, what, name):
    assert main(["manifest", what]) == 0
    assert capsysbinary.readouterr().out == (ROOT / name).read_bytes()
