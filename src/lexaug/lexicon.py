"""Multilingual term-pair store with per-language indices.

Lexica load from TSV (``src_lang<TAB>tgt_lang<TAB>tgt_script<TAB>src_term
<TAB>tgt_term``, ``#`` comments ignored). An entry is exactly those five
fields, so equal entries are one entry. A Lexicon is built from named
sources (e.g. ``panlex``, ``gatitos``) and records which source each entry
came from first, for per-source counts. Matching is case-folded exact
match; multi-word terms are indexed under a whitespace-normalized key so the
augmenter's phrase window can find them. The index holds one dict per source
language, from match key to bucket: a tuple of entries, sorted once at build
time and handed out as it is. A Lexicon is immutable once built and safe to
share across workers.

``LexEntry`` is the one place the field rules are written. A file holds few
distinct language codes and repeats each source term once per translation,
so ``read_entries`` checks only the target term of a line whose code triple
and source term have both passed on earlier lines, and the index computes
each source term's match key once.
"""

from __future__ import annotations

import gc
import operator
import sys
from collections import Counter
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NamedTuple

from .corpus import _COLLISION_RE, _WORD_TABLE, check_tag_value, read_lines
from .errors import LexiconFormatError


class _LexFields(NamedTuple):
    src_term: str
    tgt_term: str
    src_lang: str
    tgt_lang: str
    tgt_script: str


class LexEntry(_LexFields):
    """One directed term translation: a named tuple whose constructor checks
    its fields. Equal fields make equal entries."""

    __slots__ = ()

    def __new__(cls, src_term: str, tgt_term: str, src_lang: str, tgt_lang: str, tgt_script: str):
        if not src_term or src_term.isspace() or not tgt_term or tgt_term.isspace():
            raise ValueError("lexicon terms must be non-empty after trim")
        if src_lang == tgt_lang:
            raise ValueError(f"src_lang and tgt_lang are both {src_lang!r}")
        for term in (src_term, tgt_term):
            if "\t" in term or "\n" in term or "\r" in term:
                raise ValueError("lexicon terms must not contain tabs or newlines")
            # Terms are spliced into examples as written, so they obey the
            # corpus text rule. Few terms hold a "<", so test that first.
            if "<" in term and (hit := _COLLISION_RE.search(term)):
                raise ValueError(f"lexicon term {term!r} contains reserved control token {hit.group()!r}")
        check_tag_value("src_lang", src_lang)
        check_tag_value("tgt_lang", tgt_lang)
        check_tag_value("tgt_script", tgt_script)
        return tuple.__new__(cls, (src_term, tgt_term, src_lang, tgt_lang, tgt_script))


def match_key(text: str) -> str:
    """Case-folded, tokenizer-normalized form used for index lookups.

    Word tokens of the term joined by single spaces, so "Hot  Chip" and
    "hot chip" share a key. Terms without any word token (pure punctuation)
    fall back to their trimmed, case-folded surface.
    """
    return _key_and_length(text)[0]


def _key_and_length(text: str) -> tuple[str, int]:
    """The match key of ``text`` and its length in word tokens (at least 1).

    The words are ``tokenize``'s surfaces: word characters translate to
    themselves and no word character is whitespace, so splitting the
    translated text on whitespace yields each token.
    """
    words = text.translate(_WORD_TABLE).split()
    if not words:
        return text.strip().casefold(), 1
    return " ".join(words).casefold(), len(words)


# The index of a language with no entries; never written.
_NO_TERMS: dict[str, tuple[LexEntry, ...]] = {}


class Lexicon:
    """Indexed, deduplicated collection of LexEntry, built from named sources.

    ``sources`` holds ``(source_name, entries)`` pairs, consumed in order. An
    entry that an earlier source already gave keeps that source's name.
    """

    def __init__(self, sources: Iterable[tuple[str, Iterable[LexEntry]]] = ()):
        # Each entry, mapped to the name of the first source that gave it;
        # insertion order is the entry order.
        self._entries: dict[LexEntry, str] = {}
        # src_lang -> match key -> bucket; each bucket is a list until it is
        # sorted into a tuple below.
        self._index: dict[str, dict[str, tuple[LexEntry, ...]]] = {}
        self._max_term_tokens: dict[str, int] = {}
        seen, index, max_tokens = self._entries, self._index, self._max_term_tokens
        # Each distinct source term's (match key, length), for this build only.
        key_of: dict[str, tuple[str, int]] = {}
        # The index holds only tuples, lists and dicts of strings, so a
        # collection during the build frees nothing and rescans every entry
        # built so far. Pause the cyclic collector while the sources, and
        # the files they may be read from, are consumed.
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            for name, entries in sources:
                for entry in entries:
                    if entry in seen:
                        continue
                    seen[entry] = name
                    lang, term = entry[2], entry[0]
                    key_and_length = key_of.get(term)
                    if key_and_length is None:
                        key_and_length = key_of[term] = _key_and_length(term)
                    key, length = key_and_length
                    if length > max_tokens.get(lang, 0):
                        max_tokens[lang] = length
                    keys = index.get(lang)
                    if keys is None:
                        keys = index[lang] = {}
                    keys.setdefault(key, []).append(entry)
        finally:
            if gc_was_enabled:
                gc.enable()
        by_target = operator.itemgetter(3, 1)  # (tgt_lang, tgt_term)
        for keys in index.values():
            for key, bucket in keys.items():
                keys[key] = tuple(sorted(bucket, key=by_target))

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[LexEntry]:
        return iter(self._entries)

    def lookup_key(self, key: str, src_lang: str, tgt_filter: str | None = None) -> tuple[LexEntry, ...]:
        """Entries in ``src_lang`` whose source term has match key ``key``.

        The caller passes a match key; this method does not fold raw text
        (``lookup_key(match_key(text), ...)`` does). Results are stably
        ordered by (tgt_lang, tgt_term). Unscoped, the result is the index's
        own bucket, not a copy; an unknown key yields ``()``.
        """
        bucket = self._index.get(src_lang, _NO_TERMS).get(key, ())
        if tgt_filter is None:
            return bucket
        return tuple(e for e in bucket if e.tgt_lang == tgt_filter)

    def term_keys(self, src_lang: str) -> Mapping[str, tuple[LexEntry, ...]]:
        """A read-only view of ``src_lang``'s index: each match key of its
        source terms, mapped to the entries lookup_key returns for it."""
        return MappingProxyType(self._index.get(src_lang, _NO_TERMS))

    def has_term(self, key: str, src_lang: str, tgt_filter: str | None = None) -> bool:
        """Fast membership probe for an already-normalized match key."""
        bucket = self._index.get(src_lang, _NO_TERMS).get(key)
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
            name for e, name in self._entries.items() if lang in (e.src_lang, e.tgt_lang)
        )

    def languages(self) -> set[str]:
        return {e.src_lang for e in self} | {e.tgt_lang for e in self}


def read_entries(path: str, digests: dict[str, str] | None = None) -> Iterator[LexEntry]:
    """The entries of a lexicon TSV file, in file order, duplicates included.
    Its lines come from ``read_lines``, which puts the file's SHA-256 in
    ``digests``: a lone ``\\r`` stays in its line, where LexEntry rejects it."""
    intern = sys.intern
    new_entry = tuple.__new__
    # The code triples and source terms of the entries built so far, each
    # mapped to the shared strings those entries hold: a large lexicon holds
    # few codes, and each term once per translation. Both tables are the
    # file's own, cheaper than sys.intern for that many terms and freed once
    # the file is read.
    checked_codes: dict[tuple[str, str, str], tuple[str, str, str]] = {}
    checked_terms: dict[str, str] = {}
    for index, line in enumerate(read_lines(path, digests)):
        if not line or line.isspace() or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 5:
            raise LexiconFormatError(f"expected 5 tab-separated fields, got {len(fields)}", path, index + 1)
        src_lang, tgt_lang, tgt_script, src_term, tgt_term = fields
        codes = checked_codes.get((src_lang, tgt_lang, tgt_script))
        shared_term = checked_terms.get(src_term)
        # Codes and source term have passed LexEntry before, so only the
        # target term's rules are left. A tab or "\n" cannot be in a field,
        # and a control token needs a "<".
        if (
            codes is not None
            and shared_term is not None
            and tgt_term
            and "<" not in tgt_term
            and "\r" not in tgt_term
            and not tgt_term.isspace()
        ):
            yield new_entry(LexEntry, (shared_term, tgt_term, *codes))
            continue
        try:
            entry = LexEntry(
                shared_term or src_term, tgt_term, intern(src_lang), intern(tgt_lang), intern(tgt_script)
            )
        except ValueError as exc:
            raise LexiconFormatError(str(exc), path, index + 1) from exc
        codes = entry[2:]
        checked_codes[codes] = codes
        checked_terms[entry[0]] = entry[0]
        yield entry
