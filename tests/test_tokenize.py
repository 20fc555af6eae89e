"""Tokenizer kinds: unicode word runs, whitespace, external vocabulary."""

import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polyemo.errors import ConfigError
from polyemo.tokenize import TokenizerSpec, Tokenizer, _is_word_char, tokenize, tokenize_split
from conftest import make_split

word_text = st.text(
    alphabet=st.characters(whitelist_categories=("L", "N", "P", "Z")), max_size=60
)


class TestUnicodeWords:
    def test_basic_sentence(self):
        assert tokenize("The cat sat.").tokens == ("the", "cat", "sat")

    def test_punctuation_splits_runs(self):
        assert tokenize("don't stop-go").tokens == ("don", "t", "stop", "go")

    def test_underscore_and_digits_kept(self):
        assert tokenize("snake_case x2").tokens == ("snake_case", "x2")

    def test_devanagari(self):
        # non-Latin scripts segment on the same letter/mark/number run rule
        tokens = tokenize("नमस्ते दुनिया").tokens
        assert len(tokens) == 2
        assert tokens[0] == "नमस्ते"

    def test_punctuation_only_is_empty(self):
        assert tokenize("?!... --- !!").tokens == ()

    def test_lowercase_off_preserves_case(self):
        spec = TokenizerSpec(lowercase=False)
        assert tokenize("The CAT", spec).tokens == ("The", "CAT")

    @given(text=word_text)
    def test_case_fold_idempotent(self, text):
        assert tokenize(text).tokens == tokenize(text.lower()).tokens

    @given(text=word_text)
    def test_tokens_contain_no_separators(self, text):
        for token in tokenize(text).tokens:
            assert token
            assert not any(ch.isspace() for ch in token)

    @given(text=word_text)
    def test_tokens_appear_in_surface_order(self, text):
        lowered = text.lower()
        pos = 0
        for token in tokenize(text).tokens:
            found = lowered.find(token, pos)
            assert found >= pos
            pos = found + len(token)


def reference_word_runs(text):
    """The per-character loop the translate table replaced, kept as the reference."""
    out, cur = [], []
    for ch in text:
        if _is_word_char(ch):
            cur.append(ch)
        elif cur:
            out.append("".join(cur))
            cur = []
    if cur:
        out.append("".join(cur))
    return out


# every major category, plus combining marks, non-ASCII digits, the
# underscore, NEL, LINE SEPARATOR and a capital whose lowercase is longer
any_text = st.text(
    alphabet=st.one_of(
        st.characters(whitelist_categories=("L", "M", "N", "P", "S", "Z", "C")),
        st.sampled_from("_\u0301\u0663\u0966\u0085\u2028\u0130 \t\n"),
    ),
    max_size=80,
)


class TestTranslateTableMatchesLoop:
    @given(text=any_text, lowercase=st.booleans())
    def test_same_tokens_as_the_loop(self, text, lowercase):
        tok = Tokenizer(TokenizerSpec(lowercase=lowercase))
        expected = reference_word_runs(text.lower() if lowercase else text)
        assert tok(text).tokens == tuple(expected)

    def test_no_word_character_is_whitespace_to_split(self):
        words = "".join(
            ch for ch in map(chr, range(sys.maxunicode + 1)) if _is_word_char(ch)
        )
        assert words.split() == [words]


class TestWhitespace:
    def test_mixed_separators(self):
        spec = TokenizerSpec(kind="whitespace")
        assert tokenize("a  b\tc", spec).tokens == ("a", "b", "c")

    def test_keeps_punctuation(self):
        spec = TokenizerSpec(kind="whitespace")
        assert tokenize("stop. go!", spec).tokens == ("stop.", "go!")

    @given(a=word_text, b=word_text)
    def test_concatenation_stability(self, a, b):
        """Joining two texts with a space concatenates their token streams."""
        spec = TokenizerSpec(kind="whitespace")
        combined = tokenize(f"{a} {b}", spec).tokens
        assert combined == tokenize(a, spec).tokens + tokenize(b, spec).tokens


class TestExternalVocab:
    def make(self, tmp_path, tokens, lowercase=True):
        path = tmp_path / "vocab.txt"
        path.write_text("\n".join(tokens) + "\n", encoding="utf-8")
        return Tokenizer(TokenizerSpec(kind="external-vocab", lowercase=lowercase,
                                       vocab_path=str(path)))

    def test_greedy_longest_match(self, tmp_path):
        tok = self.make(tmp_path, ["a", "b", "ab", "abc"])
        assert tok("abab").tokens == ("ab", "ab")
        assert tok("abcab").tokens == ("abc", "ab")

    def test_single_char_fallback(self, tmp_path):
        tok = self.make(tmp_path, ["a"])
        assert tok("axa").tokens == ("a", "x", "a")

    def test_whitespace_bounds_matching(self, tmp_path):
        # matches never span a whitespace boundary
        tok = self.make(tmp_path, ["ab"])
        assert tok("a b").tokens == ("a", "b")

    def test_vocab_lowercased_with_text(self, tmp_path):
        tok = self.make(tmp_path, ["AB"])
        assert tok("ab AB").tokens == ("ab", "ab")

    def test_blank_vocab_lines_skipped(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("a\n\n  \nb\n", encoding="utf-8")
        tok = Tokenizer(TokenizerSpec(kind="external-vocab", vocab_path=str(path)))
        assert tok.vocab_tokens == ("a", "b")

    def test_missing_file(self, tmp_path):
        spec = TokenizerSpec(kind="external-vocab", vocab_path=str(tmp_path / "nope.txt"))
        with pytest.raises(ConfigError, match="cannot read"):
            Tokenizer(spec)

    def test_vocab_file_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_bytes(b"a\nb\xff\n")
        spec = TokenizerSpec(kind="external-vocab", vocab_path=str(path))
        with pytest.raises(ConfigError, match=f"^vocabulary file {path} is not UTF-8 text"):
            Tokenizer(spec)

    def test_empty_vocab_file(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("\n\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="no tokens"):
            Tokenizer(TokenizerSpec(kind="external-vocab", vocab_path=str(path)))

    def test_from_tokens_matches_file_build(self, tmp_path):
        tok_file = self.make(tmp_path, ["ab", "a", "c"])
        tok_mem = Tokenizer.from_tokens(tok_file.spec, ["ab", "a", "c"])
        for text in ("abac", "ca b", "xyz"):
            assert tok_mem(text).tokens == tok_file(text).tokens

    def test_from_tokens_empty(self):
        spec = TokenizerSpec(kind="external-vocab", vocab_path="unused.txt")
        with pytest.raises(ConfigError):
            Tokenizer.from_tokens(spec, [])

    def test_from_tokens_lowercases_and_drops_empty_tokens(self):
        spec = TokenizerSpec(kind="external-vocab", vocab_path="unused.txt")
        tok = Tokenizer.from_tokens(spec, ["AB", "", "c"])
        assert tok.vocab_tokens == ("ab", "c")
        assert tok("ABc").tokens == ("ab", "c")
        with pytest.raises(ConfigError, match="^external-vocab tokenizer requires at least one token$"):
            Tokenizer.from_tokens(spec, ["", ""])

    def test_from_tokens_of_another_kind_has_no_vocabulary(self):
        tok = Tokenizer.from_tokens(TokenizerSpec(kind="whitespace"), ["a"])
        assert tok.vocab_tokens == ()
        assert tok("a b").tokens == ("a", "b")


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="kind"):
            TokenizerSpec(kind="bpe")

    def test_external_vocab_requires_path(self):
        with pytest.raises(ConfigError, match="vocabulary"):
            TokenizerSpec(kind="external-vocab")

    def test_other_kinds_reject_path(self):
        with pytest.raises(ConfigError):
            TokenizerSpec(kind="whitespace", vocab_path="v.txt")


def test_tokenize_split_order_and_ids():
    split = make_split(["one two", "three"], ids=["a", "b"])
    seqs = tokenize_split(split, Tokenizer(TokenizerSpec()))
    assert [s.source_id for s in seqs] == ["a", "b"]
    assert seqs[0].tokens == ("one", "two")
    assert seqs[1].tokens == ("three",)
