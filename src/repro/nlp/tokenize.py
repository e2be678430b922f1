"""Tokenisation for social-media text.

Handles the quirks that matter for sentiment scoring on Reddit posts:
contractions are kept together (``isn't``), emphasis is preserved for the
scorer (ALL-CAPS tokens keep their case), and URLs / user mentions are
dropped rather than polluting word clouds.
"""

from __future__ import annotations

import re
from typing import List

_URL_RE = re.compile(r"https?://\S+|www\.\S+")
_MENTION_RE = re.compile(r"/?u/[A-Za-z0-9_-]+|/?r/[A-Za-z0-9_]+")
# Words, numbers, punctuation bursts, and emoji (kept as single tokens —
# Reddit sentiment often lives in them).
_TOKEN_RE = re.compile(
    r"[A-Za-z]+(?:'[A-Za-z]+)?|\d+(?:\.\d+)?|[!?]+"
    r"|[\U0001F300-\U0001FAFF☀-➿]"
)
_SENTENCE_SPLIT_RE = re.compile(r"(?<=[.!?])\s+")


def token_patterns() -> List[str]:
    """The regular expressions :func:`tokenize` applies, in order (part
    of the sentiment scorer's fingerprint)."""
    return [_URL_RE.pattern, _MENTION_RE.pattern, _TOKEN_RE.pattern]


def tokenize(text: str, lowercase: bool = False) -> List[str]:
    """Split text into word / number / punctuation-burst tokens.

    >>> tokenize("Starlink isn't working!!! 50 Mbps down")
    ["Starlink", "isn't", 'working', '!!!', '50', 'Mbps', 'down']
    """
    if not isinstance(text, str):
        raise TypeError(f"expected str, got {type(text).__name__}")
    cleaned = _URL_RE.sub(" ", text)
    cleaned = _MENTION_RE.sub(" ", cleaned)
    tokens = _TOKEN_RE.findall(cleaned)
    if lowercase:
        return [t.lower() for t in tokens]
    return tokens


def words(text: str) -> List[str]:
    """Lowercased alphabetic tokens only (word-cloud input)."""
    return [t.lower() for t in tokenize(text) if t[0].isalpha()]


def sentences(text: str) -> List[str]:
    """Naive sentence split on terminal punctuation."""
    if not isinstance(text, str):
        raise TypeError(f"expected str, got {type(text).__name__}")
    parts = _SENTENCE_SPLIT_RE.split(text.strip())
    return [p for p in (part.strip() for part in parts) if p]


def bigrams(tokens: List[str]) -> List[str]:
    """Adjacent token pairs joined by a space ("roaming enabled")."""
    return [f"{a} {b}" for a, b in zip(tokens, tokens[1:])]
