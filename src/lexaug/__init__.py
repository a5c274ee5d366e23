"""lexaug: lexicon-driven data augmentation and evaluation for MT pipelines.

Turns monolingual/parallel corpora plus multilingual lexica into
training-ready augmented example streams (codeswitching, lexical prompting,
token pairs) and scores/diagnoses translation outputs (chrf, token hit rate,
error detectors, lexicon-effect regression). The submodules hold the rest of
the API.
"""

from .augment import codeswitch_mono
from .corpus import Record
from .lexicon import LexEntry, Lexicon
from .sampling import SelectionParams, derive_rng

__version__ = "0.1.0"

__all__ = [
    "LexEntry",
    "Lexicon",
    "Record",
    "SelectionParams",
    "codeswitch_mono",
    "derive_rng",
]
