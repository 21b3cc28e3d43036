"""CAVP .rsp parsing: record triples, headers, skipping odd-length records,
and the bundled known-answer files."""

import hashlib

import pytest

from shatrv import keccak
from shatrv.cavp import (
    BUNDLED_CLASSES, CavpError, CavpVectorSet, bundled_vector_names,
    load_bundled, parse_rsp,
)

EMPTY_256 = hashlib.sha3_256(b"").hexdigest()
ABC_256 = hashlib.sha3_256(b"abc").hexdigest()

SAMPLE = f"""\
#  CAVP-style sample
#  one more comment

[L = 256]

Len = 0
Msg = 00
MD = {EMPTY_256}

Len = 24
Msg = 616263
MD = {ABC_256}
"""


class TestParse:
    def test_sample_triples(self):
        vs = parse_rsp(SAMPLE, source="sample.rsp")
        assert isinstance(vs, CavpVectorSet)
        assert vs.variant == "sha3-256"
        assert vs.source == "sample.rsp"
        assert len(vs.vectors) == 2
        assert vs.vectors[0].length_bits == 0
        assert vs.vectors[0].message == b""
        assert vs.vectors[0].digest == bytes.fromhex(EMPTY_256)
        assert vs.vectors[1].length_bits == 24
        assert vs.vectors[1].message == b"abc"

    def test_comments_only_is_empty(self):
        vs = parse_rsp("# nothing\n\n# more\n", variant="sha3-256")
        assert vs.vectors == []

    def test_variant_argument_wins_when_consistent(self):
        vs = parse_rsp(SAMPLE, variant="sha3-256")
        assert vs.variant == "sha3-256"

    def test_header_variant_conflict(self):
        with pytest.raises(CavpError):
            parse_rsp(SAMPLE, variant="sha3-512")

    def test_variant_inferred_from_digest_length(self):
        text = f"Len = 0\nMsg = 00\nMD = {EMPTY_256}\n"
        assert parse_rsp(text).variant == "sha3-256"

    def test_len_zero_ignores_msg_placeholder(self):
        text = f"[L = 256]\nLen = 0\nMsg = deadbeef\nMD = {EMPTY_256}\n"
        assert parse_rsp(text).vectors[0].message == b""


class TestParseErrors:
    @pytest.mark.parametrize("text,line", [
        ("Len = 8\nMsg = zz\nMD = " + EMPTY_256 + "\n", 2),
        ("Len = 8\nLen = 16\n", 2),                      # missing Msg
        ("Msg = 00\n", 1),                               # Msg before Len
        ("MD = " + EMPTY_256 + "\n", 1),                 # MD before Len
        ("[L = 999]\n", 1),                              # no such digest size
        ("Len = banana\n", 1),
        ("Len = 8\nMsg = 0102\nMD = " + EMPTY_256 + "\n", 2),  # 2 bytes for 8 bits
    ])
    def test_malformed_input_cites_line(self, text, line):
        with pytest.raises(CavpError) as e:
            parse_rsp(text, variant="sha3-256")
        assert f"line {line}" in str(e.value)

    def test_digest_length_mismatch(self):
        text = "Len = 0\nMsg = 00\nMD = 0011\n"
        with pytest.raises(CavpError):
            parse_rsp(text, variant="sha3-256")

    def test_truncated_final_triple(self):
        with pytest.raises(CavpError):
            parse_rsp("Len = 8\nMsg = ab\n", variant="sha3-256")


class TestOddLengthPolicy:
    ODD = f"""[L = 256]
Len = 5
Msg = a8
MD = {EMPTY_256}

Len = 0
Msg = 00
MD = {EMPTY_256}
"""

    def test_default_skips_with_warning(self):
        with pytest.warns(UserWarning):
            vs = parse_rsp(self.ODD)
        assert [v.length_bits for v in vs.vectors] == [0]


class TestBundled:
    def test_catalog_shape(self):
        names = bundled_vector_names()
        assert len(names) == len(keccak.VARIANTS) * len(BUNDLED_CLASSES)

    @pytest.mark.parametrize("variant", sorted(keccak.VARIANTS))
    @pytest.mark.parametrize("msg_class", ("short", "long"))
    def test_bundled_sets_are_correct(self, variant, msg_class):
        vs = load_bundled(variant, msg_class)
        assert vs.variant == variant
        assert len(vs.vectors) >= 5
        algo = variant.replace("-", "_")
        for v in vs.vectors:
            assert len(v.message) * 8 == v.length_bits
            assert v.digest == hashlib.new(algo, v.message).digest()
        lengths = [v.length_bits for v in vs.vectors]
        if msg_class == "short":
            assert max(lengths) < 1024
            assert 0 in lengths
        else:
            assert min(lengths) >= 1024

    def test_unknown_bundle(self):
        with pytest.raises(ValueError):
            load_bundled("sha3-256", "medium")


@pytest.mark.parametrize("call", [
    lambda: parse_rsp("", variant=[]),
    lambda: load_bundled([], "short"),
    lambda: keccak.sha3_digest(b"", []),
], ids=["parse-rsp", "load-bundled", "sha3-digest"])
def test_a_bad_variant_name_is_a_value_error(call):
    with pytest.raises(ValueError, match="unknown variant"):
        call()
