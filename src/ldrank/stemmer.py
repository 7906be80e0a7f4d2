"""English (Porter2 / Snowball) stemmer.

Implemented from the published algorithm description because no stemming
package is available in this environment.  Only ``stem`` is public; the
step functions follow the algorithm's structure closely so they can be
checked against it line by line.

Words are assumed to be lowercase; ``stem`` lowercases defensively.

``stem`` is a pure function of its argument, so it is memoised with an LRU
cache of ``STEM_CACHE_SIZE`` entries: a text matrix stems each distinct
token once, and a long-lived process holds at most that many words.
"""

from __future__ import annotations

import functools

# Entries kept by the ``stem`` cache: well above the distinct tokens of one
# corpus (a few thousand), small enough to bound a long-lived process.
STEM_CACHE_SIZE = 1 << 16

_VOWELS = frozenset("aeiouy")
# Doubles that trigger undoubling after removal of -ed/-ing style suffixes.
_DOUBLES = ("bb", "dd", "ff", "gg", "mm", "nn", "pp", "rr", "tt")
# Letters that make a preceding "li" suffix removable.
_LI_ENDINGS = frozenset("cdeghkmnrt")

# Irregular forms mapped straight to their stems, checked before any step.
_EXCEPTIONS = {
    "skis": "ski",
    "skies": "sky",
    "dying": "die",
    "lying": "lie",
    "tying": "tie",
    "idly": "idl",
    "gently": "gentl",
    "ugly": "ugli",
    "early": "earli",
    "only": "onli",
    "singly": "singl",
    # Invariant forms.
    "sky": "sky",
    "news": "news",
    "howe": "howe",
    "atlas": "atlas",
    "cosmos": "cosmos",
    "bias": "bias",
    "andes": "andes",
}

# Forms left alone if reached after the plural-stripping step.
_EXCEPTIONS_POST_1A = frozenset(
    {"inning", "outing", "canning", "herring", "earring",
     "proceed", "exceed", "succeed"}
)

_STEP2_RULES = (
    ("ization", "ize"),
    ("ational", "ate"),
    ("fulness", "ful"),
    ("ousness", "ous"),
    ("iveness", "ive"),
    ("tional", "tion"),
    ("biliti", "ble"),
    ("lessli", "less"),
    ("entli", "ent"),
    ("ation", "ate"),
    ("alism", "al"),
    ("aliti", "al"),
    ("ousli", "ous"),
    ("iviti", "ive"),
    ("fulli", "ful"),
    ("enci", "ence"),
    ("anci", "ance"),
    ("abli", "able"),
    ("izer", "ize"),
    ("ator", "ate"),
    ("alli", "al"),
    ("bli", "ble"),
    ("ogi", "og"),  # only when preceded by l
    ("li", ""),     # only when preceded by a valid li-ending
)

_STEP3_RULES = (
    ("ational", "ate"),
    ("tional", "tion"),
    ("alize", "al"),
    ("icate", "ic"),
    ("iciti", "ic"),
    ("ative", ""),  # only when the suffix is inside R2
    ("ical", "ic"),
    ("ness", ""),
    ("ful", ""),
)

_STEP4_SUFFIXES = (
    "ement",
    "ance", "ence", "able", "ible", "ment",
    "ant", "ent", "ism", "ate", "iti", "ous", "ive", "ize", "ion",
    "al", "er", "ic",
)


def _is_vowel(ch: str) -> bool:
    return ch in _VOWELS


def _contains_vowel(part: str) -> bool:
    return any(c in _VOWELS for c in part)


def _region_after_vc(word: str, begin: int) -> int:
    """Start of the region after the first non-vowel that follows a vowel."""
    n = len(word)
    i = begin
    while i < n and word[i] not in _VOWELS:
        i += 1
    while i < n and word[i] in _VOWELS:
        i += 1
    # word[i] is the first non-vowel after the first vowel run, if any.
    return min(i + 1, n)


def _r1_start(word: str) -> int:
    for prefix in ("gener", "commun", "arsen"):
        if word.startswith(prefix):
            return len(prefix)
    return _region_after_vc(word, 0)


def _ends_with_short_syllable(word: str) -> bool:
    n = len(word)
    if n == 2:
        return _is_vowel(word[0]) and not _is_vowel(word[1])
    if n >= 3:
        return (
            not _is_vowel(word[-3])
            and _is_vowel(word[-2])
            and not _is_vowel(word[-1])
            and word[-1] not in "wxY"
        )
    return False


def _is_short_word(word: str, r1: int) -> bool:
    return r1 >= len(word) and _ends_with_short_syllable(word)


def _step0(word: str) -> str:
    for suffix in ("'s'", "'s", "'"):
        if word.endswith(suffix):
            return word[: -len(suffix)]
    return word


def _step1a(word: str) -> str:
    if word.endswith("sses"):
        return word[:-4] + "ss"
    if word.endswith("ied") or word.endswith("ies"):
        stem_part = word[:-3]
        return stem_part + ("i" if len(stem_part) > 1 else "ie")
    if word.endswith("us") or word.endswith("ss"):
        return word
    if word.endswith("s"):
        # Delete only when a vowel occurs before the position just ahead
        # of the s itself.
        if _contains_vowel(word[:-2]):
            return word[:-1]
    return word


def _step1b(word: str, r1: int) -> str:
    for suffix in ("eedly", "eed"):
        if word.endswith(suffix):
            if len(word) - len(suffix) >= r1:
                return word[: -len(suffix)] + "ee"
            return word
    for suffix in ("ingly", "edly", "ing", "ed"):
        if word.endswith(suffix):
            stem_part = word[: -len(suffix)]
            if not _contains_vowel(stem_part):
                return word
            word = stem_part
            if word.endswith(("at", "bl", "iz")):
                return word + "e"
            if word[-2:] in _DOUBLES:
                return word[:-1]
            if _is_short_word(word, r1):
                return word + "e"
            return word
    return word


def _step1c(word: str) -> str:
    if (
        len(word) > 2
        and word[-1] in "yY"
        and not _is_vowel(word[-2])
    ):
        return word[:-1] + "i"
    return word


def _step2(word: str, r1: int) -> str:
    for suffix, repl in _STEP2_RULES:
        if word.endswith(suffix):
            if len(word) - len(suffix) >= r1:
                if suffix == "ogi":
                    if len(word) >= 4 and word[-4] == "l":
                        return word[:-3] + repl
                    return word
                if suffix == "li":
                    if len(word) >= 3 and word[-3] in _LI_ENDINGS:
                        return word[:-2]
                    return word
                return word[: -len(suffix)] + repl
            return word
    return word


def _step3(word: str, r1: int, r2: int) -> str:
    for suffix, repl in _STEP3_RULES:
        if word.endswith(suffix):
            start = len(word) - len(suffix)
            if start >= r1:
                if suffix == "ative":
                    if start >= r2:
                        return word[:-5]
                    return word
                return word[:start] + repl
            return word
    return word


def _step4(word: str, r2: int) -> str:
    for suffix in _STEP4_SUFFIXES:
        if word.endswith(suffix):
            start = len(word) - len(suffix)
            if start >= r2:
                if suffix == "ion":
                    if start >= 1 and word[start - 1] in "st":
                        return word[:start]
                    return word
                return word[:start]
            return word
    return word


def _step5(word: str, r1: int, r2: int) -> str:
    if word.endswith("e"):
        pos = len(word) - 1
        if pos >= r2:
            return word[:-1]
        if pos >= r1 and not _ends_with_short_syllable(word[:-1]):
            return word[:-1]
        return word
    if word.endswith("l"):
        pos = len(word) - 1
        if pos >= r2 and len(word) >= 2 and word[-2] == "l":
            return word[:-1]
    return word


@functools.lru_cache(maxsize=STEM_CACHE_SIZE)
def stem(word: str) -> str:
    """Stem one English word (cached; see the module docstring).

    Words of one or two characters, and tokens with no alphabetic
    structure to speak of (digits, codes), come back unchanged.
    """
    w = word.lower()
    if len(w) <= 2:
        return w
    if w in _EXCEPTIONS:
        return _EXCEPTIONS[w]

    if w.startswith("'"):
        w = w[1:]

    # Mark consonant-y as Y so the vowel tests below see it correctly:
    # initial y and y after a vowel act as consonants.
    chars = list(w)
    if chars and chars[0] == "y":
        chars[0] = "Y"
    for i in range(1, len(chars)):
        if chars[i] == "y" and chars[i - 1] in _VOWELS:
            chars[i] = "Y"
    w = "".join(chars)

    r1 = _r1_start(w)
    r2 = _region_after_vc(w, r1)

    w = _step0(w)
    w = _step1a(w)
    if w in _EXCEPTIONS_POST_1A:
        return w
    w = _step1b(w, r1)
    w = _step1c(w)
    w = _step2(w, r1)
    w = _step3(w, r1, r2)
    w = _step4(w, r2)
    w = _step5(w, r1, r2)
    return w.replace("Y", "y")
