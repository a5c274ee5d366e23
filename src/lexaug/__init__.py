"""lexaug: lexicon-driven data augmentation and evaluation for MT pipelines.

Turns monolingual/parallel corpora plus multilingual lexica into
training-ready augmented example streams (codeswitching, lexical prompting,
token pairs) and scores/diagnoses translation outputs (chrf, token hit rate,
error detectors, lexicon-effect regression). The submodules hold the rest of
the API.
"""

import importlib

__version__ = "0.1.0"

# Each exported name and its submodule, which loads on first use (PEP 562).
_EXPORTS = {"LexEntry": "lexicon", "Lexicon": "lexicon", "Record": "corpus", "SelectionParams": "sampling",
            "codeswitch_mono": "augment", "derive_rng": "sampling"}
__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
