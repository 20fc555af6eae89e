"""Text-to-token segmentation behind a small pluggable contract.

Three tokenizer kinds are provided:

- ``unicode-words`` (default): maximal runs of Unicode letter, mark, number,
  or underscore characters. Pure-punctuation segments are dropped. This is a
  deliberately language-agnostic segmenter that behaves sensibly across
  scripts without shipping a trained tokenizer model. The runs are found in
  C: ``str.translate`` maps every other character to a space and
  ``str.split`` cuts on the spaces, which is exact because no word character
  is whitespace. The translation table classifies a code point with
  ``unicodedata.category`` the first time it is seen and caches the answer,
  so it grows only with the distinct code points the process has tokenized.
- ``whitespace``: str.split semantics.
- ``external-vocab``: greedy longest-match segmentation of each whitespace
  chunk against a user-supplied vocabulary file (one token per line).
  Characters not covered by any vocabulary entry come out as single-character
  tokens so no text is silently lost.

Lowercasing, when enabled, is applied to the whole text before segmentation,
which makes tokenization idempotent under case folding.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError

TOKENIZER_KINDS = ("unicode-words", "whitespace", "external-vocab")


@dataclass(frozen=True)
class TokenizerSpec:
    kind: str = "unicode-words"
    lowercase: bool = True
    vocab_path: str | None = None

    def __post_init__(self):
        if self.kind not in TOKENIZER_KINDS:
            raise ConfigError(f"unknown tokenizer kind {self.kind!r}")
        if self.kind == "external-vocab" and not self.vocab_path:
            raise ConfigError("external-vocab tokenizer requires a vocabulary file")
        if self.kind != "external-vocab" and self.vocab_path:
            raise ConfigError(f"{self.kind} tokenizer does not accept a vocabulary file")


@dataclass(frozen=True)
class TokenSequence:
    """Ordered tokens of one document."""

    tokens: tuple[str, ...]
    source_id: str = ""


def _is_word_char(ch: str) -> bool:
    return unicodedata.category(ch)[0] in ("L", "M", "N") or ch == "_"


class _WordCharTable(dict):
    """``str.translate`` table that keeps word characters and maps the rest to a space.

    Each code point is classified by ``_is_word_char`` the first time it is
    looked up and stored, so the table holds only code points seen so far.
    """

    def __missing__(self, code_point: int) -> int:
        value = code_point if _is_word_char(chr(code_point)) else 32
        self[code_point] = value
        return value


_WORD_CHARS = _WordCharTable()


def _unicode_word_runs(text: str) -> list[str]:
    # exact: no letter, mark, number or underscore is whitespace to str.split
    return text.translate(_WORD_CHARS).split()


class Tokenizer:
    """Immutable tokenizer built from a TokenizerSpec; safe for concurrent use."""

    def __init__(self, spec: TokenizerSpec):
        lines, empty_message = [], ""
        if spec.kind == "external-vocab":
            path = Path(spec.vocab_path)
            try:
                lines = path.read_text(encoding="utf-8").splitlines()
            except OSError as exc:
                raise ConfigError(f"cannot read vocabulary file {path}: {exc}") from exc
            except UnicodeDecodeError as exc:
                raise ConfigError(f"vocabulary file {path} is not UTF-8 text ({exc.reason})") from exc
            empty_message = f"vocabulary file {path} contains no tokens"
        self._build(spec, (line.strip() for line in lines), empty_message)

    @classmethod
    def from_tokens(cls, spec: TokenizerSpec, tokens) -> "Tokenizer":
        """Build an external-vocab tokenizer from an in-memory token list.

        Lets a persisted model restore its tokenizer without the original
        vocabulary file being present.
        """
        self = cls.__new__(cls)
        self._build(spec, tokens, "external-vocab tokenizer requires at least one token")
        return self

    def _build(self, spec: TokenizerSpec, tokens, empty_message: str) -> None:
        """Set the spec and, for external-vocab, the non-empty (lowercased) tokens."""
        self.spec = spec
        self._vocab: set[str] = set()
        if spec.kind == "external-vocab":
            self._vocab = {t.lower() if spec.lowercase else t for t in tokens} - {""}
            if not self._vocab:
                raise ConfigError(empty_message)
        self._max_len = max(map(len, self._vocab), default=0)

    @property
    def vocab_tokens(self) -> tuple[str, ...]:
        """Sorted vocabulary of an external-vocab tokenizer; empty otherwise."""
        return tuple(sorted(self._vocab))

    def __call__(self, text: str, source_id: str = "") -> TokenSequence:
        if self.spec.lowercase:
            text = text.lower()
        if self.spec.kind == "whitespace":
            tokens = text.split()
        elif self.spec.kind == "unicode-words":
            tokens = _unicode_word_runs(text)
        else:
            tokens = []
            for chunk in text.split():
                tokens.extend(self._greedy_segment(chunk))
        return TokenSequence(tokens=tuple(tokens), source_id=source_id)

    def _greedy_segment(self, chunk: str) -> list[str]:
        out = []
        i = 0
        n = len(chunk)
        while i < n:
            match = None
            for length in range(min(self._max_len, n - i), 0, -1):
                candidate = chunk[i : i + length]
                if candidate in self._vocab:
                    match = candidate
                    break
            if match is None:
                # character fallback keeps unknown material visible downstream
                match = chunk[i]
            out.append(match)
            i += len(match)
        return out


def tokenize(text: str, spec: TokenizerSpec | None = None, source_id: str = "") -> TokenSequence:
    """One-shot tokenization; builds a throwaway Tokenizer from ``spec``."""
    return Tokenizer(spec or TokenizerSpec())(text, source_id)


def tokenize_split(split, tokenizer: Tokenizer) -> list[TokenSequence]:
    """Tokenize every document of a DatasetSplit in order."""
    return [tokenizer(doc.text, source_id=doc.id) for doc in split.documents]
