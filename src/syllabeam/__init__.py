"""Syllable-level lyric generation from symbolic melody.

A melody-conditioned generator proposes syllables; a character-level
language model re-scores them (resolving word boundaries along the way);
fused beam search ranks hypotheses by the weighted sum of both scores
accumulated across steps. Everything else is imported from its submodule.
"""

from .beam import FusionConfig, decode
from .corpus import build_vocabulary, load_aligned_corpus, render_text
from .generator import train_generator
from .lm import train_char_ngram

__all__ = [
    "FusionConfig",
    "build_vocabulary",
    "decode",
    "load_aligned_corpus",
    "render_text",
    "train_char_ngram",
    "train_generator",
]
