"""Multilingual term-pair store with per-language indices.

Lexica load from TSV (``src_lang<TAB>tgt_lang<TAB>tgt_script<TAB>src_term
<TAB>tgt_term``, ``#`` comments ignored). Matching is case-folded exact
match; multi-word terms are indexed under a whitespace-normalized key so the
augmenter's phrase window can find them. A Lexicon is immutable once built
and safe to share across workers.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator

from .corpus import check_tag_value, tokenize
from .errors import LexiconFormatError


@dataclass(frozen=True)
class LexEntry:
    """One directed term translation."""

    src_term: str
    tgt_term: str
    src_lang: str
    tgt_lang: str
    tgt_script: str
    source_name: str = ""

    def __post_init__(self):
        if not self.src_term.strip() or not self.tgt_term.strip():
            raise ValueError("lexicon terms must be non-empty after trim")
        if self.src_lang == self.tgt_lang:
            raise ValueError(f"src_lang and tgt_lang are both {self.src_lang!r}")
        for value in (self.src_term, self.tgt_term):
            if any(ch in value for ch in "\t\n\r"):
                raise ValueError("lexicon terms must not contain tabs or newlines")
        check_tag_value("src_lang", self.src_lang)
        check_tag_value("tgt_lang", self.tgt_lang)
        check_tag_value("tgt_script", self.tgt_script)

    def key(self) -> tuple[str, str, str, str, str]:
        """Dedup identity: the five TSV fields, ignoring source_name."""
        return (self.src_lang, self.tgt_lang, self.tgt_script, self.src_term, self.tgt_term)


def match_key(text: str) -> str:
    """Case-folded, tokenizer-normalized form used for index lookups.

    Word tokens of the term joined by single spaces, so "Hot  Chip" and
    "hot chip" share a key. Terms without any word token (pure punctuation)
    fall back to their trimmed, case-folded surface.
    """
    return _match_key(text, tokenize(text).surfaces())


def _match_key(text: str, surfaces: list[str]) -> str:
    if not surfaces:
        return text.strip().casefold()
    return " ".join(surfaces).casefold()


class Lexicon:
    """Indexed, deduplicated collection of LexEntry."""

    def __init__(self, entries: Iterable[LexEntry] = ()):
        # Keyed by LexEntry.key(); insertion order is the entry order.
        self._entries: dict[tuple, LexEntry] = {}
        self._index: dict[tuple[str, str], list[LexEntry]] = {}
        self._max_term_tokens: dict[str, int] = {}
        for entry in entries:
            self._add(entry)
        for bucket in self._index.values():
            bucket.sort(key=lambda e: (e.tgt_lang, e.tgt_term))

    def _add(self, entry: LexEntry) -> None:
        key = entry.key()
        if key in self._entries:
            return
        self._entries[key] = entry
        surfaces = tokenize(entry.src_term).surfaces()
        token_count = max(1, len(surfaces))
        lang = entry.src_lang
        if token_count > self._max_term_tokens.get(lang, 0):
            self._max_term_tokens[lang] = token_count
        self._index.setdefault((lang, _match_key(entry.src_term, surfaces)), []).append(entry)

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[LexEntry]:
        return iter(self._entries.values())

    def lookup_key(self, key: str, src_lang: str, tgt_filter: str | None = None) -> list[LexEntry]:
        """Entries in ``src_lang`` whose source term has match key ``key``
        (raw text goes through match_key first).

        Results are stably ordered by (tgt_lang, tgt_term); an unknown key
        yields an empty list.
        """
        bucket = self._index.get((src_lang, key), [])
        if tgt_filter is None:
            return list(bucket)
        return [e for e in bucket if e.tgt_lang == tgt_filter]

    def has_term(self, key: str, src_lang: str, tgt_filter: str | None = None) -> bool:
        """Fast membership probe for an already-normalized match key."""
        bucket = self._index.get((src_lang, key))
        if not bucket:
            return False
        if tgt_filter is None:
            return True
        return any(e.tgt_lang == tgt_filter for e in bucket)

    def max_term_tokens(self, src_lang: str) -> int:
        """Longest source term (in word tokens) stored for a language."""
        return self._max_term_tokens.get(src_lang, 0)

    def pair_counts(self) -> Counter:
        """Entry count per (src_lang, tgt_lang) pair."""
        return Counter((e.src_lang, e.tgt_lang) for e in self)

    def entry_counts(self, lang: str) -> Counter:
        """Per-source-name counts of entries touching ``lang`` on either side."""
        return Counter(
            e.source_name for e in self if lang in (e.src_lang, e.tgt_lang)
        )

    def languages(self) -> set[str]:
        return {e.src_lang for e in self} | {e.tgt_lang for e in self}


def read_entries(path: str, source_name: str) -> Iterator[LexEntry]:
    """The entries of a lexicon TSV file, in file order, duplicates included."""
    with open(path, "r", encoding="utf-8") as handle:
        for index, line in enumerate(handle):
            line = line.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 5:
                raise LexiconFormatError(
                    f"expected 5 tab-separated fields, got {len(fields)}", path, index + 1
                )
            src_lang, tgt_lang, tgt_script, src_term, tgt_term = fields
            try:
                yield LexEntry(
                    src_term=src_term,
                    tgt_term=tgt_term,
                    src_lang=src_lang,
                    tgt_lang=tgt_lang,
                    tgt_script=tgt_script,
                    source_name=source_name,
                )
            except ValueError as exc:
                raise LexiconFormatError(str(exc), path, index + 1) from exc


def merge(a: Lexicon, b: Lexicon) -> Lexicon:
    """Union of two lexica. On duplicate five-field keys the entry from ``a``
    wins (keeping its source_name)."""
    return Lexicon(itertools.chain(a, b))
