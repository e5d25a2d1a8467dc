"""The CLI's config decode: each family term matrix is read from the JSON
text straight into a float array, and every other text is decoded whole.

The oracle is the decode it replaced: ``json.loads`` of the whole text, then
``parent_complex_matrix`` on each term's lists, then the Hermitian check.
"""

import json
import re
import tracemalloc
from itertools import chain
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adiaframe import cli
from adiaframe.cli import _config_digest, main, parse_config
from adiaframe.errors import ConfigError
from adiaframe.operators import require_hermitian


def parent_complex_matrix(raw):
    """The conversion of a term's json.loads lists before the float decode."""
    try:
        n = len(raw)
        if (n and all(len(row) == n for row in raw)
                and set(map(type, chain.from_iterable(raw))) == {list}
                and set(map(len, chain.from_iterable(raw))) == {2}):
            flat = chain.from_iterable(chain.from_iterable(raw))
            arr = np.fromiter(flat, float, 2 * n * n).reshape(n, n, 2)
            return arr[..., 0] + 1j * arr[..., 1]
    except (TypeError, ValueError):
        pass
    arr = np.asarray(raw, dtype=float)
    if arr.ndim != 3 or arr.shape[2] != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError("expected a square matrix of [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def parent_outcome(text):
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        return "json", (exc.lineno, exc.colno)
    mats = []
    for i, term in enumerate(cfg["family"]["terms"]):
        try:
            with np.errstate(invalid="ignore"):
                mats.append(require_hermitian(parent_complex_matrix(term["matrix"])))
        except (TypeError, ValueError, OverflowError):   # ValidationError is a ValueError
            return "field", f"family.terms[{i}].matrix"
    return "mats", mats


def family_matrices(text):
    """The term matrices of the family the CLI builds from ``text``."""
    return [mat for _, mat in cli._build_family(cli._parse(text, True)).terms]


def outcome(text):
    try:
        mats = family_matrices(text)
    except ConfigError as exc:
        return ("json", (exc.line, exc.column)) if exc.line is not None else ("field", exc.field)
    return "mats", mats


def not_a_number(value) -> bool:
    if isinstance(value, list):
        return any(map(not_a_number, value))
    return not isinstance(value, (int, float)) or isinstance(value, bool)


# three 3 x 3 Hermitian terms written with ints, signed zeros, exponents and
# subnormals among their entries
RNG = np.random.default_rng(21)
B = RNG.standard_normal((3, 3, 3)) + 1j * RNG.standard_normal((3, 3, 3))
TERMS = 0.5 * (B + B.conj().transpose(0, 2, 1))
TERMS[0] = np.round(4 * TERMS[0]) / 4
TERMS[1, 0, 1] = TERMS[1, 1, 0] = -0.0
TERMS[2] *= 1e-300
TERMS[2, 2, 2] = 5e-324


def pairs(m) -> list:
    out = np.stack([m.real, m.imag], axis=-1).tolist()
    return [[[int(v) if v == int(v) and v != 0 else v for v in p] for p in row] for row in out]


def config_text(matrices, indent=None, separators=(", ", ": ")) -> str:
    """A kubo config whose term matrices are the given JSON texts."""
    cfg = {"kind": "kubo", "seed": 1,
           "family": {"coords": 2, "dim": 3,
                      "terms": [{"exponents": e, "matrix": f"<{i}>"}
                                for i, e in enumerate([[0, 0], [1, 0], [0, 1]])]},
           "kubo": {"x": [0.3, -0.2], "beta": 1.2}}
    text = json.dumps(cfg, indent=indent, separators=separators)
    for i, m in enumerate(matrices):
        text = text.replace(f'"<{i}>"', m)
    return text


def matrix_texts(separators=(", ", ": "), indent=None):
    return [json.dumps(pairs(m), separators=separators, indent=indent) for m in TERMS]


NUMBER = re.compile(r"-?[0-9][0-9.eE+-]*")
REPLACEMENTS = ["+1", ".5", "01", "1.", "1e", "1e+", "NaN", "Infinity", "-Infinity", '"1"',
                "true", "false", "null", "[]", "-", "--1", "0x1", "-0", "0", "-0.0", "0e0",
                "-0e-0", "1E+2", "1e400", "-1e-400", "2.4703282292062328e-324",
                "12345678901234567890123", "1" + "0" * 400, "0.1 ", "\t-2.5\n"]


@st.composite
def mutated(draw):
    """A kubo config text with one number token or one bracket of one term
    matrix changed, or one row of it made ragged."""
    style = draw(st.sampled_from([((", ", ": "), None), ((",", ":"), None), ((", ", ": "), 1),
                                  ((" ,\t", " :\r\n"), None)]))
    texts = matrix_texts(*style)
    term = draw(st.integers(0, 2))
    text = texts[term]
    kind = draw(st.sampled_from(["number", "bracket", "ragged"]))
    if kind == "number":
        token = draw(st.sampled_from(list(NUMBER.finditer(text))))
        text = text[:token.start()] + draw(st.sampled_from(REPLACEMENTS)) + text[token.end():]
    elif kind == "bracket":
        at = draw(st.sampled_from([i for i, c in enumerate(text) if c in "[]"]))
        text = text[:at] + draw(st.sampled_from(["", "[", "]", "[[", "]]", "0"])) + text[at + 1:]
    else:
        rows = pairs(TERMS[term])
        row = draw(st.integers(0, 2))
        change = draw(st.sampled_from(["drop pair", "add pair", "drop row", "add row"]))
        if change == "drop pair":
            del rows[row][draw(st.integers(0, 2))]
        elif change == "add pair":
            rows[row].append([0.0, 0.0])
        elif change == "drop row":
            del rows[row]
        else:
            rows.append(rows[row])
        text = json.dumps(rows, separators=style[0])
    texts[term] = text
    return config_text(texts, style[1], style[0]), term


class TestMutations:
    def test_unmutated_text_is_decoded_to_arrays(self):
        cfg = cli._loads(config_text(matrix_texts()))
        assert all(isinstance(t["matrix"], np.ndarray) and t["matrix"].shape == (3, 3, 2)
                   for t in cfg["family"]["terms"])
        mats = family_matrices(config_text(matrix_texts()))
        kind, expected = parent_outcome(config_text(matrix_texts()))
        assert kind == "mats"
        assert [m.tobytes() for m in mats] == [m.tobytes() for m in expected]

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(mutated())
    def test_mutated_text_reads_as_the_whole_text_decode(self, case):
        text, term = case
        old, new = parent_outcome(text), outcome(text)
        if old[0] == "mats" and new[0] == "field":
            # entries that are not JSON numbers: the lists took them as numbers
            assert new[1] == f"family.terms[{term}].matrix"
            assert not_a_number(json.loads(text)["family"]["terms"][term]["matrix"])
            return
        assert new[0] == old[0], (text, old, new)
        if new[0] == "mats":
            assert [m.tobytes() for m in new[1]] == [m.tobytes() for m in old[1]]
            assert [m.shape for m in new[1]] == [m.shape for m in old[1]]
        else:
            assert new[1] == old[1], text


class TestWholeTextDecode:
    """Texts whose matrix spans may not be read alone decode as json.loads does."""

    BASE = config_text(matrix_texts())

    @pytest.mark.parametrize("text", [
        # a span under an unknown key, in a string, under a duplicate key
        BASE[:-1] + ', "extra": [[[1, 0]]]}',
        BASE[:-1] + ', "note": "[[[1, 0]]]"}',
        BASE.replace('"matrix": ', '"matrix": [[[9, 9]]], "matrix": ', 1),
        # an escape, or a string that reads as a placeholder
        BASE.replace('"kind": "kubo"', '"kind": "kub\\u006f"'),
        BASE[:-1] + ', "note": "@0"}',
        # a span that is not a square array of JSON numbers, or a term that is no span
        config_text([matrix_texts()[0], "[[[[1, 0]]]]", matrix_texts()[2]]),
        config_text([matrix_texts()[0], "[[[1, 0], [0, 0]], [[0, 0]]]", matrix_texts()[2]]),
        config_text([matrix_texts()[0], "[[[NaN, 0]]]", matrix_texts()[2]]),
        config_text([matrix_texts()[0], "[[[1, 0]]]", "[[1, 0]]"]),
        # a kind that reads no family
        BASE.replace('"kind": "kubo"', '"kind": "stern_gerlach"'),
    ], ids=["unknown_key", "in_string", "duplicate_key", "escape", "placeholder_text",
            "deeper_array", "ragged", "nan", "term_not_a_span", "kind_without_family"])
    def test_decoded_whole(self, text):
        cfg = cli._loads(text)
        assert all(type(t["matrix"]) is list for t in cfg["family"]["terms"])
        assert cfg == json.loads(text)

    def test_duplicate_key_keeps_the_last_matrix(self):
        text = self.BASE.replace('"matrix": ', '"matrix": [[[9, 9]]], "matrix": ', 1)
        assert np.array_equal(family_matrices(text)[0], TERMS[0])

    def test_syntax_error_after_a_matrix_keeps_its_line_and_column(self):
        text = config_text(matrix_texts(indent=1), indent=1).replace('"beta": 1.2', '"beta": 1.2,')
        with pytest.raises(json.JSONDecodeError) as ref:
            json.loads(text)
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert (exc.value.line, exc.value.column) == (ref.value.lineno, ref.value.colno)
        assert exc.value.line > 100

    @pytest.mark.parametrize("encoding", ["utf-8", "utf-8-sig", "utf-16", "utf-32-le"])
    def test_bytes_decode_as_json_loads_decodes_them(self, encoding):
        # UTF-8 text reads its matrices as arrays; other encodings are decoded whole
        text = config_text(matrix_texts())
        cfg = cli._loads(text.encode(encoding))
        assert isinstance(cfg["family"]["terms"][0]["matrix"], np.ndarray) == (encoding == "utf-8")
        assert parse_config(text.encode(encoding)) == parse_config(text)

    @pytest.mark.parametrize("text", ['\ufeff{"kind": "kubo"}', '{"kind": "kubo", "family": "\ud800"}'])
    def test_str_decodes_as_json_loads_decodes_it(self, text):
        # a byte order mark is an error in a str and not in UTF-8 bytes
        text = text.replace('"kubo"', '"kubo", "x": [[[1, 0]]]')
        try:
            expected = json.loads(text)
        except json.JSONDecodeError as exc:
            with pytest.raises(json.JSONDecodeError) as got:
                cli._loads(text)
            assert (got.value.msg, got.value.pos) == (exc.msg, exc.pos)
        else:
            assert cli._loads(text) == expected


class TestParseConfigContract:
    @pytest.mark.parametrize("indent", [None, 2])
    def test_config_and_digest_equal_the_whole_text_decode(self, indent):
        text = config_text(matrix_texts(indent=indent), indent=indent)
        with mock.patch("adiaframe.cli._loads", json.loads):
            expected = parse_config(text)
        cfg = parse_config(text)
        assert cfg == expected
        assert [type(t["matrix"]) for t in cfg["family"]["terms"]] == [list] * 3
        assert _config_digest(cfg) == _config_digest(expected)
        assert parse_config(cfg) == cfg

    @pytest.mark.parametrize("entry", [["1.0", 0.0], [1.0, False], [True, 0.0], [None, 0.0]])
    def test_matrix_entries_must_be_json_numbers(self, entry, tmp_path, capsys):
        cfg = json.loads(config_text(matrix_texts()))
        cfg["family"]["terms"][1]["matrix"][0][0] = entry
        with pytest.raises(ConfigError) as exc:
            parse_config(cfg)
        assert exc.value.field == "family.terms[1].matrix"
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert main(["--config", str(path), "--out", str(tmp_path), "--quiet"]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "ConfigError" and "family.terms[1].matrix" in payload["message"]

    @pytest.mark.parametrize("matrix", ["[[1, 0]]", "5", '"[[[1, 0]]]"', "{}", "[]", "[[]]"])
    def test_matrix_that_is_no_array_of_pairs_named(self, matrix):
        with pytest.raises(ConfigError) as exc:
            parse_config(config_text([matrix_texts()[0], matrix, matrix_texts()[2]]))
        assert exc.value.field == "family.terms[1].matrix"

    def test_integer_past_the_float_range_named(self):
        text = config_text([matrix_texts()[0], "[[[1" + "0" * 400 + ", 0]]]", matrix_texts()[2]])
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert exc.value.field == "family.terms[1].matrix"
        with pytest.raises(ConfigError) as exc:
            parse_config(json.loads(text))
        assert exc.value.field == "family.terms[1].matrix"


def test_parse_memory_peak():
    """The traced allocation peak of parsing the UTF-8 text of a 400-level
    one-term config stays within 10 % of 9.9 MiB, its peak with the float
    decode; json.loads' lists and floats took it to 29.5 MiB."""
    a = np.random.default_rng(0).standard_normal((400, 400))
    a = 0.5 * (a + a.T)
    text = json.dumps({"kind": "kubo",
                       "family": {"coords": 1, "dim": 400,
                                  "terms": [{"exponents": [0],
                                             "matrix": np.stack([a, 0 * a], axis=-1).tolist()}]},
                       "kubo": {"x": [0.1], "beta": 1.0}}).encode()
    cli._parse(text, True)
    tracemalloc.start()
    try:
        cfg = cli._parse(text, True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    (_, mat), = cli._build_family(cfg).terms
    assert np.array_equal(mat, a)
    assert peak <= 1.1 * 9.9 * 2 ** 20, f"peak {peak / 2 ** 20:.2f} MiB"
