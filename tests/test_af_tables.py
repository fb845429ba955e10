import pytest

from abxlab.af_tables import (
    AfTable,
    BUILTIN_TABLES,
    CMU_PHONES,
    CONSONANTS,
    DIPHTHONGS,
    EXCLUDED_TOKEN,
    MONOPHTHONGS,
    load_af_table,
)
from abxlab.errors import DataError, RowError, UnmappedPhoneError, UsageError


def _phones_for(table, attribute):
    """The phones ``table.entries`` maps to ``attribute``, sorted."""
    return sorted(p for p, a in table.entries.items() if a == attribute)


def test_inventory_counts():
    assert len(MONOPHTHONGS) == 10
    assert len(DIPHTHONGS) == 5
    assert len(CONSONANTS) == 24
    assert len(CMU_PHONES) == 39
    assert len(set(CMU_PHONES)) == 39


def test_moa_golden_cells():
    moa = BUILTIN_TABLES["english-moa"]
    assert moa.classify("P") == "Stop"
    assert moa.classify("G") == "Stop"
    assert moa.classify("CH") == "Affricate"
    assert moa.classify("JH") == "Affricate"
    assert moa.classify("HH") == "Fricative"
    assert moa.classify("DH") == "Fricative"
    assert moa.classify("NG") == "Nasal"
    assert moa.classify("R") == "Approximant"
    assert moa.classify("W") == "Approximant"
    assert _phones_for(moa, "Nasal") == ["M", "N", "NG"]
    assert _phones_for(moa, "Stop") == ["B", "D", "G", "K", "P", "T"]


def test_poa_golden_cells():
    poa = BUILTIN_TABLES["english-poa"]
    assert poa.classify("W") == "Bilabial"
    assert poa.classify("F") == "Labiodental"
    assert poa.classify("TH") == "Dental"
    assert poa.classify("R") == "Postalveolar"
    assert poa.classify("SH") == "Postalveolar"
    assert poa.classify("Y") == "Palatal"
    assert poa.classify("NG") == "Velar"
    assert poa.classify("HH") == "Glottal"
    assert _phones_for(poa, "Alveolar") == ["D", "L", "N", "S", "T", "Z"]


def test_height_backness_golden_cells():
    height = BUILTIN_TABLES["english-height"]
    backness = BUILTIN_TABLES["english-backness"]
    assert height.classify("IY") == "Close"
    assert height.classify("UH") == "Close"
    assert height.classify("ER") == "Mid"
    assert height.classify("AO") == "Mid"
    assert height.classify("AA") == "Open"
    assert backness.classify("AE") == "Front"
    assert backness.classify("AH") == "Central"
    assert backness.classify("UW") == "Back"
    assert backness.classify("AO") == "Back"


def test_consonant_tables_cover_exactly_the_consonants():
    for name in ("english-moa", "english-poa"):
        table = BUILTIN_TABLES[name]
        assert sorted(table.entries) == sorted(CONSONANTS)
        for v in MONOPHTHONGS + DIPHTHONGS + ("SIL",):
            assert table.classify(v) is None
        table.check_phones(CMU_PHONES + ("SIL",))


def test_vowel_tables_cover_exactly_the_monophthongs():
    for name in ("english-height", "english-backness"):
        table = BUILTIN_TABLES[name]
        assert sorted(table.entries) == sorted(MONOPHTHONGS)
        for p in CONSONANTS + DIPHTHONGS + ("SIL",):
            assert table.classify(p) is None
        table.check_phones(CMU_PHONES + ("SIL",))


def test_each_builtin_partitions_its_domain():
    for table in BUILTIN_TABLES.values():
        seen = []
        for attr in sorted(set(table.entries.values())):
            seen += _phones_for(table, attr)
        assert sorted(seen) == sorted(table.entries)


def test_unmapped_phone_raises():
    moa = BUILTIN_TABLES["english-moa"]
    with pytest.raises(UnmappedPhoneError) as e:
        moa.classify("QQ")
    assert "QQ" in str(e.value)
    with pytest.raises(UnmappedPhoneError) as e:
        moa.check_phones(["P", "XX", "QQ"])
    assert e.value.phones == ["QQ", "XX"]


def test_af_table_rejects_mapped_and_excluded_overlap():
    with pytest.raises(DataError):
        AfTable("t", {"P": "Stop"}, excluded=("P",))


def test_load_af_table_builtin_and_unknown():
    assert load_af_table("english-moa") is BUILTIN_TABLES["english-moa"]
    with pytest.raises(UsageError) as e:
        load_af_table("english-nasality")
    assert "english-moa" in str(e.value)


def test_load_af_table_tsv(tmp_path):
    p = tmp_path / "voicing.tsv"
    p.write_text(
        "# comment\n"
        "P\tVoiceless\n"
        "B\tVoiced\n"
        f"AA\t{EXCLUDED_TOKEN}\n"
    )
    table = load_af_table(p)
    assert table.feature_name == "voicing"
    assert table.classify("P") == "Voiceless"
    assert table.classify("AA") is None
    assert sorted(set(table.entries.values())) == ["Voiced", "Voiceless"]


def test_load_af_table_tsv_errors(tmp_path):
    p = tmp_path / "bad.tsv"

    p.write_text("P Voiceless\n")  # spaces, not a tab
    with pytest.raises(RowError):
        load_af_table(p)

    p.write_text("P\tVoiceless\nP\tVoiced\n")  # remap
    with pytest.raises(RowError):
        load_af_table(p)

    p.write_text(f"P\tVoiceless\nP\t{EXCLUDED_TOKEN}\n")  # both mapped and excluded
    with pytest.raises(RowError):
        load_af_table(p)

    p.write_text(f"AA\t{EXCLUDED_TOKEN}\nAA\tOpen\n")  # excluded, then mapped
    with pytest.raises(RowError, match=r"bad\.tsv:2: AA both mapped and excluded$"):
        load_af_table(p)

    p.write_text(f"AA\t{EXCLUDED_TOKEN}\n")  # excluded rows only
    with pytest.raises(DataError):
        load_af_table(p)

    p.write_text("\tVoiceless\n")  # empty phone field
    with pytest.raises(RowError):
        load_af_table(p)

    p.write_text("P\tVoiceless\nAA\tA,B\n")  # a comma would split a pairwise.csv row
    with pytest.raises(RowError) as e:
        load_af_table(p)
    assert e.value.line_no == 2
