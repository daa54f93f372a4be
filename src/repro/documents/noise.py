"""Low-level text corruption channels.

These primitives model the character- and word-level damage that real parsing
pipelines introduce (Figure 1 of the paper).  They are used in two places:

* by the corpus builder, to attach *imperfect embedded text layers* to
  documents (e.g. a layer produced by legacy OCR software), and
* by :mod:`repro.parsers.failure_modes`, which composes them into the named
  parser failure modes (whitespace injection, character scrambling, SMILES
  corruption, ...).

All functions are pure given the supplied :class:`numpy.random.Generator`.

The word-level channels draw one uniform per ``" "``-separated word (or per
space) exactly as a split-and-join loop would, but cost their hits rather
than their words: the word count is the space count plus one, a hit word's
span comes from the space positions (:func:`_word_spans`), and the output is
stitched from slices of the input around the words that changed.
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import replayed

#: Common OCR confusion pairs (symmetrised at call time where appropriate).
OCR_CONFUSIONS: dict[str, str] = {
    "l": "1",
    "1": "l",
    "I": "l",
    "O": "0",
    "0": "O",
    "o": "c",
    "e": "c",
    "c": "e",
    "a": "o",
    "s": "5",
    "5": "S",
    "B": "8",
    "g": "q",
    "h": "b",
    "n": "r",
    "u": "v",
    "v": "u",
    "t": "f",
    "f": "t",
    "Z": "2",
    "m": "rn",
    "w": "vv",
}

#: Characters that commonly survive as mojibake when ligatures/encodings break.
LIGATURE_BREAKS: dict[str, str] = {
    "fi": "ﬁ",
    "fl": "ﬂ",
    "ff": "ﬀ",
    "--": "–",
}


def _word_spans(text: str, words: list[int]) -> list[tuple[int, int]]:
    """``(start, end)`` offsets of the listed words of ``text.split(" ")``.

    Word ``k`` runs from just past the ``k``-th space to the next one (or the
    ends of the text); offsets are code points, as ``str`` indexing counts.
    """
    if not words:
        return []
    codes = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype="<u4")
    spaces = (codes == 32).nonzero()[0]
    if len(words) > 16:  # past a few words, one list beats indexing the array per word
        spaces = spaces.tolist()
    n_spaces = len(spaces)
    return [
        (int(spaces[k - 1]) + 1 if k else 0, int(spaces[k]) if k < n_spaces else len(text))
        for k in words
    ]


def _hit_words(text: str, rate: float, rng: np.random.Generator) -> list[int]:
    """One draw per word of ``text.split(" ")``; the indices of the words under ``rate``."""
    return (rng.random(text.count(" ") + 1) < rate).nonzero()[0].tolist()


def _stitch(text: str, edits: list[tuple[int, int, str]]) -> str:
    """``text`` with each ``(start, end, replacement)`` slice replaced (in order, disjoint)."""
    pieces: list[str] = []
    cursor = 0
    for start, end, replacement in edits:
        pieces += (text[cursor:start], replacement)
        cursor = end
    pieces.append(text[cursor:])
    return "".join(pieces)


def inject_whitespace(text: str, rate: float, rng: np.random.Generator) -> str:
    """Insert spurious spaces inside words with probability ``rate`` per word.

    Models failure mode (a) of Figure 1: extraction tools emitting a space for
    every kerning adjustment.
    """
    if rate <= 0 or not text:
        return text
    edits = []
    for start, end in _word_spans(text, _hit_words(text, rate, rng)):
        if end - start >= 4:
            cut = start + int(rng.integers(1, end - start))
            edits.append((cut, cut, " "))
    return _stitch(text, edits)


def substitute_words(
    text: str,
    rate: float,
    rng: np.random.Generator,
    vocabulary: tuple[str, ...] | None = None,
) -> str:
    """Replace words with unrelated vocabulary words (failure mode (b))."""
    if rate <= 0 or not text:
        return text
    vocab = vocabulary if vocabulary else ("data", "value", "figure", "item", "entry")
    hits = _hit_words(text, rate, rng)
    if not hits:
        return text
    # One replacement per hit is drawn; an empty word is hit but not replaced,
    # and the next non-empty hit takes the replacement it did not use.
    replacements = iter(rng.choice(vocab, size=len(hits)).tolist())
    return _stitch(
        text,
        [
            (start, end, next(replacements))
            for start, end in _word_spans(text, hits)
            if end > start
        ],
    )


def scramble_characters(text: str, rate: float, rng: np.random.Generator) -> str:
    """Shuffle the interior characters of words with probability ``rate``.

    Models failure mode (c): character scrambling from bad glyph-to-unicode
    maps or deliberate anti-extraction obfuscation.
    """
    if rate <= 0 or not text:
        return text
    edits = []
    for start, end in _word_spans(text, _hit_words(text, rate, rng)):
        if end - start > 3:
            interior = list(text[start + 1 : end - 1])
            rng.shuffle(interior)
            edits.append((start + 1, end - 1, "".join(interior)))
    return _stitch(text, edits)


def substitute_characters(
    text: str,
    rate: float,
    rng: np.random.Generator,
    confusions: dict[str, str] | None = None,
) -> str:
    """Apply OCR-style character confusions with probability ``rate`` per char.

    Models failure mode (d) and the generic OCR noise channel.
    """
    if rate <= 0 or not text:
        return text
    table = confusions if confusions is not None else OCR_CONFUSIONS
    edits = []
    for i in (rng.random(len(text)) < rate).nonzero()[0].tolist():
        c = text[i]
        if c in table:
            edits.append((i, i + 1, table[c]))
        elif c.isalpha():
            # Fall back to a nearby letter swap to keep the channel active on
            # characters without a canonical confusion.  A lowercase form can
            # be two code points ('İ' -> 'i̇'); its first one is the letter.
            offset = 1 if rng.random() < 0.5 else -1
            edits.append((i, i + 1, chr(max(97, min(122, ord(c.lower()[0]) + offset)))))
    return _stitch(text, edits)


def corrupt_case(text: str, rate: float, rng: np.random.Generator) -> str:
    """Flip the case of characters (pH → ph, Ph → pH, ...)."""
    if rate <= 0 or not text:
        return text
    chars = list(text)
    mask = rng.random(len(chars)) < rate
    for i in np.flatnonzero(mask).tolist():
        c = chars[i]
        if c.isalpha():
            chars[i] = c.lower() if c.isupper() else c.upper()
    return "".join(chars)


def drop_words(text: str, rate: float, rng: np.random.Generator) -> str:
    """Silently drop words with probability ``rate``."""
    if rate <= 0 or not text:
        return text
    n_words = text.count(" ") + 1
    drops = (~(rng.random(n_words) >= rate)).nonzero()[0].tolist()
    if len(drops) == n_words:
        return text.partition(" ")[0]  # never empty the text: the first word stays
    # A dropped word leaves with the space before it, or — while every word
    # before it is dropped too (``word == j``) — with the space after it.
    return _stitch(
        text,
        [
            (start - 1, end, "") if word > j else (start, end + 1, "")
            for j, (word, (start, end)) in enumerate(zip(drops, _word_spans(text, drops)))
        ],
    )


def merge_words(text: str, rate: float, rng: np.random.Generator) -> str:
    """Delete inter-word spaces with probability ``rate`` (lost whitespace)."""
    if rate <= 0 or not text:
        return text
    n_spaces = text.count(" ")
    if n_spaces == 0:
        return text
    hits = (rng.random(n_spaces) < rate).nonzero()[0].tolist()
    # Space ``i`` is where word ``i`` ends.
    return _stitch(text, [(end, end + 1, "") for _, end in _word_spans(text, hits)])


def swap_adjacent_words(text: str, rate: float, rng: np.random.Generator) -> str:
    """Swap adjacent words with probability ``rate`` (reading-order errors)."""
    if rate <= 0 or not text:
        return text
    last = text.count(" ")  # index of the last word
    swapped: list[int] = []
    with replayed(rng) as draws:
        random = draws.random
        i = 0
        while i < last:
            if random() < rate:
                swapped += (i, i + 1)
                i += 2
            else:
                i += 1
    spans = _word_spans(text, swapped)
    return _stitch(
        text,
        [
            (start, next_end, text[next_start:next_end] + " " + text[start:end])
            for (start, end), (next_start, next_end) in zip(spans[::2], spans[1::2])
        ],
    )


def break_ligatures(text: str, rate: float, rng: np.random.Generator) -> str:
    """Replace ligature-prone digraphs with their glyph forms."""
    if rate <= 0 or not text:
        return text
    out = text
    for plain, glyph in LIGATURE_BREAKS.items():
        if plain in out and rng.random() < rate:
            out = out.replace(plain, glyph)
    return out


def hard_wrap_lines(text: str, width: int, rng: np.random.Generator, hyphenate_rate: float = 0.15) -> str:
    """Re-wrap text at a fixed column width, occasionally hyphenating words.

    Extraction tools frequently return the PDF's visual line breaks rather
    than logical paragraphs; this channel reproduces that artefact.
    """
    if width <= 0 or not text:
        return text
    words = text.split(" ")
    lines: list[str] = []
    current = ""
    for word in words:
        if not current:
            current = word
        elif len(current) + 1 + len(word) <= width:
            current = current + " " + word
        else:
            if len(word) > 6 and rng.random() < hyphenate_rate:
                split = len(word) // 2
                current = current + " " + word[:split] + "-"
                lines.append(current)
                current = word[split:]
            else:
                lines.append(current)
                current = word
    if current:
        lines.append(current)
    return "\n".join(lines)


def ocr_channel(
    text: str,
    severity: float,
    rng: np.random.Generator,
    vocabulary: tuple[str, ...] | None = None,
) -> str:
    """Composite OCR noise channel parameterised by a severity in ``[0, 1]``.

    Severity 0 leaves the text nearly untouched; severity 1 corresponds to a
    barely legible scan.  The per-channel rates are calibrated so that the
    resulting character accuracy degrades smoothly from ≈0.99 to ≈0.6.
    """
    severity = float(max(0.0, min(1.0, severity)))
    out = substitute_characters(text, rate=0.002 + 0.06 * severity, rng=rng)
    out = merge_words(out, rate=0.002 + 0.03 * severity, rng=rng)
    out = inject_whitespace(out, rate=0.002 + 0.05 * severity, rng=rng)
    out = drop_words(out, rate=0.001 + 0.03 * severity, rng=rng)
    out = corrupt_case(out, rate=0.001 + 0.02 * severity, rng=rng)
    if severity > 0.5:
        out = scramble_characters(out, rate=0.04 * (severity - 0.5), rng=rng)
    if vocabulary:
        out = substitute_words(out, rate=0.01 * severity, rng=rng, vocabulary=vocabulary)
    return out


def scramble_layer(text: str, rng: np.random.Generator) -> str:
    """Aggressively scramble an embedded text layer (anti-extraction)."""
    out = scramble_characters(text, rate=0.8, rng=rng)
    out = substitute_characters(out, rate=0.15, rng=rng)
    out = merge_words(out, rate=0.2, rng=rng)
    return out
