"""Taxon names for --taxa: a two-column file gives each name a leaf label,
and each tree line is translated to labels before it is parsed. cli
imports this module only when --taxa is given."""

import re

from .errors import NewickError
from .tree import MAX_LABEL

_TOKEN = re.compile(r"[(),;:\s]|[^(),;:\s]+")
_LABEL = re.compile(r"[1-9][0-9]*")


class Taxa:
    """The name-to-label map of a taxa file at path, read from its lines;
    labels must be distinct and follow the Newick label rule: ASCII digits,
    no leading zero, at most 2**64 - 1."""

    def __init__(self, path, lines):
        self.labels = {}
        used = set()
        for lineno, raw in enumerate(lines, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t") if "\t" in line else line.split()
            if len(parts) != 2:
                raise NewickError(f"{path}:{lineno}: expected two columns")
            name, value = parts
            if not _LABEL.fullmatch(value):
                raise NewickError(f"{path}:{lineno}: label {value!r} is not a Newick leaf label")
            if len(value) > 20 or int(value) > MAX_LABEL:
                raise NewickError(f"{path}:{lineno}: label {value} exceeds the 64-bit limit")
            label = int(value)
            if name in self.labels:
                raise NewickError(f"{path}:{lineno}: taxon {name!r} repeated")
            if label in used:
                raise NewickError(f"{path}:{lineno}: label {label} repeated")
            self.labels[name] = label
            used.add(label)

    def translate(self, line):
        labels = self.labels
        return "".join(str(labels[tok]) if tok in labels else tok for tok in _TOKEN.findall(line))

    def untranslated_pos(self, line, pos):
        """The offset in line of offset pos in translate(line); an offset
        inside a swapped-in label maps to the start of its taxon name."""
        labels = self.labels
        at = 0
        for tok in _TOKEN.findall(line):
            width = len(str(labels[tok])) if tok in labels else len(tok)
            if pos < width:
                return at if tok in labels else at + pos
            pos -= width
            at += len(tok)
        return at + pos
