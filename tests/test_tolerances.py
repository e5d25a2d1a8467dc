"""Every threshold of the tolerance profile is read by a check or a test."""

import dataclasses
import pathlib
import re

from adiaframe import ToleranceProfile

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_every_tolerance_is_read():
    text = "\n".join(path.read_text() for part in ("src", "tests")
                     for path in sorted((ROOT / part).rglob("*.py")))
    fields = [f.name for f in dataclasses.fields(ToleranceProfile) if f.type == "float"]
    assert fields
    unread = [name for name in fields if not re.search(rf"\.{name}\b", text)]
    assert not unread, f"tolerances no check or test reads: {unread}"
