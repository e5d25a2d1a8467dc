"""The CLI's error contract under single-leaf mutations of every pinned config.

Each example takes one config of ``TestConfigDigest.PINNED``, replaces one
leaf (a number, string or boolean anywhere in it, matrix entries included)
by one hostile value, and parses the result.  The config must parse, or
raise a :class:`ConfigError` that names the mutated field, an array that
holds it, or the other field of a rule that spans fields.  A mutation that
changes a leaf's type or shape also runs through ``main``, which must exit
0, 1 or 2 and let no exception escape; its exit 2 names the field as the
parser does.
"""

import contextlib
import copy
import io
import json
import re

from hypothesis import given, settings, strategies as st

from adiaframe.cli import main, parse_config
from adiaframe.errors import ConfigError
import test_cli

CONFIGS = {name: make() for name, (make, _) in test_cli.TestConfigDigest.PINNED.items()}

NUMBERS = [float("nan"), float("inf"), -float("inf"), -1, 0, 1e308, 10 ** 400, 2 ** 63,
           1e-320, -1e-320]
SHAPES = [True, "1", None, [], {}, [1.0]]

# rules that span fields name the field they compare against
CROSS = {"thermo.e_min": {"thermo.e_max"}}


def leaves(node, path=""):
    """The path of every leaf under ``node``, as a config error names it."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, val in items:
        if isinstance(node, dict):
            sub = f"{path}.{key}" if path else key
        else:
            sub = f"{path}[{key}]"
        if isinstance(val, (dict, list)) and val:
            yield from leaves(val, sub)
        else:
            yield sub


def field_of(path: str) -> str:
    """The path with its trailing array indices removed."""
    return re.sub(r"(\[\d+\])+$", "", path)


# the leaves of each config grouped by the field that holds them, so a
# 14 400-entry matrix is drawn as often as a scalar field
FIELDS = {}
for _name, _cfg in CONFIGS.items():
    for _path in leaves(_cfg):
        FIELDS.setdefault(_name, {}).setdefault(field_of(_path), []).append(_path)


def with_leaf(node, keys, value):
    """``node`` with the leaf at ``keys`` set to ``value``; only the
    containers on the way to it are copied."""
    if not keys:
        return value
    key = int(keys[0]) if isinstance(node, list) else keys[0]
    node = copy.copy(node)
    node[key] = with_leaf(node[key], keys[1:], value)
    return node


def named(path: str) -> set:
    """The fields an error about the leaf at ``path`` may name."""
    names = {path}
    while (shorter := re.sub(r"\[\d+\]$", "", path)) != path:
        names.add(shorter)
        path = shorter
    return names | CROSS.get(path, set())


@st.composite
def mutations(draw):
    name = draw(st.sampled_from(sorted(CONFIGS)))
    fields = FIELDS[name]
    paths = fields[draw(st.sampled_from(sorted(fields)))]
    path = paths[draw(st.integers(0, len(paths) - 1))]
    value = draw(st.sampled_from(NUMBERS + SHAPES))
    cfg = with_leaf(CONFIGS[name], re.findall(r"[^.\[\]]+", path), copy.copy(value))
    return cfg, path, any(value is v for v in SHAPES)


@settings(max_examples=1200, deadline=None, derandomize=True)
@given(mutations())
def test_mutated_leaf_parses_or_is_named(tmp_path_factory, case):
    cfg, path, reshaped = case
    try:
        parse_config(cfg)
        parsed = True
    except ConfigError as exc:
        assert exc.field in named(path), (path, str(exc))
        parsed = False
    if reshaped:
        out = tmp_path_factory.getbasetemp() / "mutations"
        out.mkdir(exist_ok=True)
        config = out / "config.json"
        config.write_text(json.dumps(cfg))
        with contextlib.redirect_stdout(io.StringIO()) as text:
            rc = main(["--config", str(config), "--out", str(out), "--quiet"])
        assert rc in (0, 1, 2)
        if not parsed:
            payload = json.loads(text.getvalue())
            assert rc == 2 and payload["error"] == "ConfigError", payload
            assert any(f"'{name}'" in payload["message"] for name in named(path)), payload
