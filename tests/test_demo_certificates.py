"""The committed demo certificates pin the drivers' output.

Each run of ``demos/certify_desk.py`` must reproduce its certificate in
``demos/certificates/`` byte for byte, apart from ``wall_time_ms``.
"""

import importlib.util
import json
import pathlib

import pytest

DEMOS = pathlib.Path(__file__).resolve().parents[1] / "demos"
_spec = importlib.util.spec_from_file_location("certify_desk", DEMOS / "certify_desk.py")
certify_desk = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(certify_desk)


@pytest.mark.parametrize("name, run", certify_desk.RUNS, ids=[n for n, _ in certify_desk.RUNS])
def test_demo_certificate_matches_committed_file(name, run):
    pinned = (DEMOS / "certificates" / f"{name}.json").read_text(encoding="utf-8")
    cert = run()
    cert.wall_time_ms = json.loads(pinned)["wall_time_ms"]
    assert cert.to_json() == pinned
