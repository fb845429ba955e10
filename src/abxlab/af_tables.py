"""Articulatory-feature tables over the 39-phone CMU inventory.

An AF table maps each phone either to exactly one attribute value or to
an explicit "excluded" marker; phones that are neither mapped nor
excluded are an error, which catches typos in custom tables early.

Four built-in tables cover manner and place of articulation for the 24
consonants and height and backness for the 10 monophthongs.  The five
diphthongs change quality over their span and carry no single value on
either vowel dimension, so they are excluded everywhere.
"""

from __future__ import annotations

from pathlib import Path

from .corpus import read_rows
from .errors import DataError, RowError, UnmappedPhoneError, UsageError

MONOPHTHONGS = ("AA", "AE", "AH", "AO", "EH", "ER", "IH", "IY", "UH", "UW")
DIPHTHONGS = ("AW", "AY", "EY", "OW", "OY")
CONSONANTS = (
    "B", "CH", "D", "DH", "F", "G", "HH", "JH", "K", "L", "M", "N",
    "NG", "P", "R", "S", "SH", "T", "TH", "V", "W", "Y", "Z", "ZH",
)
CMU_PHONES = tuple(sorted(MONOPHTHONGS + DIPHTHONGS + CONSONANTS))

_MANNER = {
    "Affricate": ("CH", "JH"),
    "Approximant": ("W", "L", "R", "Y"),
    "Fricative": ("F", "V", "TH", "DH", "S", "Z", "SH", "ZH", "HH"),
    "Nasal": ("M", "N", "NG"),
    "Stop": ("P", "B", "T", "D", "K", "G"),
}

_PLACE = {
    "Alveolar": ("L", "S", "Z", "T", "D", "N"),
    "Bilabial": ("W", "P", "B", "M"),
    "Dental": ("TH", "DH"),
    "Glottal": ("HH",),
    "Labiodental": ("F", "V"),
    "Palatal": ("Y",),
    "Postalveolar": ("CH", "JH", "R", "SH", "ZH"),
    "Velar": ("K", "G", "NG"),
}

_HEIGHT = {
    "Close": ("IY", "IH", "UW", "UH"),
    "Mid": ("EH", "ER", "AH", "AO"),
    "Open": ("AE", "AA"),
}

_BACKNESS = {
    "Back": ("UW", "UH", "AO"),
    "Central": ("ER", "AH", "AA"),
    "Front": ("IY", "IH", "EH", "AE"),
}


class AfTable:
    """Partial map phone -> attribute with an explicit excluded set."""

    def __init__(self, feature_name: str, entries: dict[str, str], excluded=()):
        overlap = set(entries) & set(excluded)
        if overlap:
            raise DataError(
                f"{feature_name}: phones both mapped and excluded: {sorted(overlap)}"
            )
        self.feature_name = feature_name
        self.entries = dict(entries)
        self.excluded = frozenset(excluded)

    def attributes(self) -> list[str]:
        return sorted(set(self.entries.values()))

    def phones_for(self, attribute: str) -> list[str]:
        return sorted(p for p, a in self.entries.items() if a == attribute)

    def classify(self, phone: str) -> str | None:
        """Attribute for ``phone``, or None when excluded."""
        if phone in self.entries:
            return self.entries[phone]
        if phone in self.excluded:
            return None
        raise UnmappedPhoneError([phone])

    def check_phones(self, phones) -> None:
        """Raise listing every phone the table does not account for."""
        unknown = {p for p in phones if p not in self.entries and p not in self.excluded}
        if unknown:
            raise UnmappedPhoneError(unknown)


def _builtin(feature_name, groups, excluded):
    entries = {}
    for attribute, phones in groups.items():
        for p in phones:
            entries[p] = attribute
    return AfTable(feature_name, entries, excluded)


_VOWELS = MONOPHTHONGS + DIPHTHONGS
_NON_CONSONANT = _VOWELS + ("SIL",)
_NON_MONOPHTHONG = CONSONANTS + DIPHTHONGS + ("SIL",)

BUILTIN_TABLES = {
    "english-moa": _builtin("english-moa", _MANNER, _NON_CONSONANT),
    "english-poa": _builtin("english-poa", _PLACE, _NON_CONSONANT),
    "english-height": _builtin("english-height", _HEIGHT, _NON_MONOPHTHONG),
    "english-backness": _builtin("english-backness", _BACKNESS, _NON_MONOPHTHONG),
}

EXCLUDED_TOKEN = "__EXCLUDED__"


def _parse_af_tsv(path: Path) -> AfTable:
    entries: dict[str, str] = {}
    excluded: set[str] = set()
    for i, parts in read_rows(path, "AF table file", sep="\t", n_fields=2, comment="#"):
        phone, attribute = parts[0].strip(), parts[1].strip()
        if not phone or not attribute:
            raise RowError(path, i, "empty phone or attribute")
        if "," in attribute:  # pairwise.csv and phoneme.csv hold it
            raise RowError(path, i, f"attribute {attribute!r} holds a comma")
        if attribute == EXCLUDED_TOKEN:
            if phone in entries:
                raise RowError(path, i, f"{phone} both mapped and excluded")
            excluded.add(phone)
            continue
        if phone in excluded:
            raise RowError(path, i, f"{phone} both mapped and excluded")
        if phone in entries and entries[phone] != attribute:
            raise RowError(path, i, f"{phone} remapped from {entries[phone]} to {attribute}")
        entries[phone] = attribute
    if not entries:
        raise DataError(f"{path}: table maps no phones")
    return AfTable(path.stem, entries, excluded)


def load_af_table(name_or_path) -> AfTable:
    """Resolve a built-in table name or a TSV file to an AfTable.

    TSV rows are ``phone<TAB>attribute``; the attribute ``__EXCLUDED__``
    marks a phone as deliberately out of scope for the feature.
    """
    key = str(name_or_path)
    if key in BUILTIN_TABLES:
        return BUILTIN_TABLES[key]
    p = Path(key)
    if p.exists():
        return _parse_af_tsv(p)
    raise UsageError(
        f"unknown AF table {key!r}; built-ins: {', '.join(sorted(BUILTIN_TABLES))}"
    )
