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

The index and one list of entries in first-seen order are a Lexicon's only
per-entry structures. Equal entries share a source language and term, so
they land in one bucket, and a copy is dropped as it arrives: a bucket is
searched while it is a short list, probed once it is wide and held as a dict.
So a load holds no copy, however much its files overlap. The entries a
source gave first are one run of the list, so source names are kept per run.

The field rules are written once, in ``_check_term`` and ``_check_codes``,
which both ``LexEntry`` and ``read_entries`` call. A file holds few distinct
language codes and repeats each source term once per translation, so
``read_entries`` checks each code triple and each source term the first time
a line holds it, and the index computes each source term's match key once.
"""

from __future__ import annotations

import gc
import operator
import sys
from collections import Counter
from typing import Iterable, Iterator, KeysView, NamedTuple

from .corpus import _COLLISION_RE, check_tag_value, read_lines, words as _words
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
        _check_term(src_term)
        _check_term(tgt_term)
        _check_codes(src_lang, tgt_lang, tgt_script)
        return tuple.__new__(cls, (src_term, tgt_term, src_lang, tgt_lang, tgt_script))


def _check_term(term: str) -> None:
    """Raise ValueError unless ``term`` may be a lexicon term."""
    if not term or term.isspace():
        raise ValueError("lexicon terms must be non-empty after trim")
    if "\t" in term or "\n" in term or "\r" in term:
        raise ValueError("lexicon terms must not contain tabs or newlines")
    # Terms are spliced into examples as written, so they obey the corpus
    # text rule. Few terms hold a "<", so test that first.
    if "<" in term and (hit := _COLLISION_RE.search(term)):
        raise ValueError(f"lexicon term {term!r} contains reserved control token {hit.group()!r}")


def _check_codes(src_lang: str, tgt_lang: str, tgt_script: str) -> None:
    """Raise ValueError unless the three codes may be an entry's."""
    if src_lang == tgt_lang:
        raise ValueError(f"src_lang and tgt_lang are both {src_lang!r}")
    check_tag_value("src_lang", src_lang)
    check_tag_value("tgt_lang", tgt_lang)
    check_tag_value("tgt_script", tgt_script)


def match_key(text: str) -> str:
    """Case-folded, tokenizer-normalized form used for index lookups.

    Word tokens of the term joined by single spaces, so "Hot  Chip" and
    "hot chip" share a key. Terms without any word token (pure punctuation)
    fall back to their trimmed, case-folded surface.
    """
    words = _words(text)
    return " ".join(words).casefold() if words else text.strip().casefold()


# The index of a language with no entries; never written.
_NO_TERMS: dict[str, tuple[LexEntry, ...]] = {}

# The most entries a bucket holds as a list during the build: each new entry
# is compared with those already there. A wider bucket is a dict.
_LIST_BUCKET = 8


class Lexicon:
    """Indexed, deduplicated collection of LexEntry, built from named sources.

    ``sources`` holds ``(source_name, entries)`` pairs, consumed in order. A
    copy of an entry already given is dropped as it arrives, so the entry
    keeps the name of the source that gave it first:
    ``_sources`` holds one ``(name, end)`` pair per source, whose run of
    ``_entries`` ends before ``end``.
    """

    def __init__(self, sources: Iterable[tuple[str, Iterable[LexEntry]]] = ()):
        entries: list[LexEntry] = []
        runs: list[tuple[str, int]] = []
        # src_lang -> match key -> bucket; each bucket is a list, or a dict
        # once wide, until it is sorted into a tuple below.
        index: dict[str, dict[str, tuple[LexEntry, ...]]] = {}
        # Each distinct source term's match key, for this build only.
        key_of: dict[str, str] = {}
        # The index holds only tuples, lists and dicts of strings, so a
        # collection during the build frees nothing and rescans every entry
        # built so far. Pause the cyclic collector while the sources, and
        # the files they may be read from, are consumed.
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            for name, source in sources:
                for entry in source:
                    lang, term = entry[2], entry[0]
                    key = key_of.get(term)
                    if key is None:
                        key = match_key(term)
                        # A key equal to its term is the term's own string.
                        key = key_of[term] = term if key == term else key
                    keys = index.get(lang)
                    if keys is None:
                        keys = index[lang] = {}
                    bucket = keys.get(key)
                    if bucket is None:
                        bucket = keys[key] = []
                    elif entry in bucket:
                        continue  # a later copy, compared by value
                    if len(bucket) < _LIST_BUCKET:
                        bucket.append(entry)
                    elif type(bucket) is dict:
                        bucket[entry] = None
                    else:
                        # A wide bucket becomes a dict, so the copy test above
                        # stays one probe.
                        bucket = keys[key] = dict.fromkeys(bucket)
                        bucket[entry] = None
                    entries.append(entry)
                runs.append((name, len(entries)))
        finally:
            if gc_was_enabled:
                gc.enable()
        by_target = operator.itemgetter(3, 1)  # (tgt_lang, tgt_term)
        for keys in index.values():
            for key, bucket in keys.items():
                keys[key] = tuple(sorted(bucket, key=by_target) if len(bucket) > 1 else bucket)
        self._entries, self._sources, self._index = entries, runs, index
        # A key's words are its term's, joined by single spaces; a
        # punctuation-only key may hold a space and is one token.
        self._max_term_tokens = {
            lang: max((len(_words(key)) or 1 for key in keys if " " in key), default=1)
            for lang, keys in index.items()
        }

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

    def term_keys(self, src_lang: str) -> KeysView[str]:
        """The match keys of ``src_lang``'s source terms: a view of its index."""
        return self._index.get(src_lang, _NO_TERMS).keys()

    def has_term(self, key: str, src_lang: str, tgt_filter: str) -> bool:
        """Whether match key ``key`` has an entry from ``src_lang`` into ``tgt_filter``."""
        bucket = self._index.get(src_lang, _NO_TERMS).get(key)
        if not bucket:
            return False
        return any(e.tgt_lang == tgt_filter for e in bucket)

    def max_term_tokens(self, src_lang: str) -> int:
        """Longest source term (in word tokens) stored for a language."""
        return self._max_term_tokens.get(src_lang, 0)

    def pair_counts(self) -> Counter:
        """Entry count per (src_lang, tgt_lang) pair."""
        return Counter((e.src_lang, e.tgt_lang) for e in self)

    def entry_counts(self, lang: str) -> Counter:
        """Per-source-name counts of entries touching ``lang`` on either side."""
        counts: Counter = Counter()
        start = 0
        for name, end in self._sources:
            touching = sum(lang in (e.src_lang, e.tgt_lang) for e in self._entries[start:end])
            if touching:
                counts[name] += touching
            start = end
        return counts

    def languages(self) -> set[str]:
        return {e.src_lang for e in self} | {e.tgt_lang for e in self}


def read_entries(path: str, digests: dict[str, str] | None = None) -> Iterator[LexEntry]:
    """The entries of a lexicon TSV file, in file order, duplicates included.
    Its lines come from ``read_lines``, which puts the file's SHA-256 in
    ``digests``: a lone ``\\r`` stays in its line, where the term rules reject it."""
    new_entry = tuple.__new__
    # The code triples and source terms that have passed their checks, each
    # mapped to the shared strings the entries hold: a large lexicon holds
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
        # LexEntry's order (source term, target term, codes), so a bad line
        # fails with LexEntry's error.
        try:
            shared_term = checked_terms.get(src_term)
            if shared_term is None:
                _check_term(src_term)
                shared_term = checked_terms[src_term] = src_term
            _check_term(tgt_term)
            triple = (src_lang, tgt_lang, tgt_script)
            codes = checked_codes.get(triple)
            if codes is None:
                _check_codes(*triple)
                codes = checked_codes[triple] = tuple(map(sys.intern, triple))
        except ValueError as exc:
            raise LexiconFormatError(str(exc), path, index + 1) from exc
        yield new_entry(LexEntry, (shared_term, tgt_term, *codes))
