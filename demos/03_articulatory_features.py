"""Scoring articulatory-feature categories instead of phones.

The built-in tables cover manner and place of articulation for the 24
consonants and height and backness for the 10 monophthongs.  An AF task
pools all phones sharing an attribute into one category, so the task
asks e.g. "is this frame sequence a fricative or a stop", not "is it S
or T".
"""

from abxlab.abx import score_corpus
from abxlab.af_tables import BUILTIN_TABLES, load_af_table
from abxlab.synth import SynthConfig, generate_corpus


def main():
    for name, table in BUILTIN_TABLES.items():
        groups = {}  # attribute -> its phones, in sorted order
        for phone, attr in sorted(table.entries.items()):
            groups.setdefault(attr, []).append(phone)
        print(f"{name}: {len(table.entries)} phones -> {len(groups)} attributes")
        for attr, phones in sorted(groups.items()):
            print(f"    {attr:<14} {' '.join(phones)}")
    print()

    # vowel-height task on a synthetic monophthong corpus
    cfg = SynthConfig(
        phones=("IY", "IH", "EH", "AE", "UW", "AO"),
        dim=6,
        n_speakers=2,
        noise_scale=0.6,
        speaker_offset_scale=0.2,
        segments_per_cell=3,
        seed=7,
    )
    corpus = generate_corpus(cfg)
    table = load_af_table("english-height")
    report = score_corpus(corpus.archive, corpus.segments, "within", "af", af_table=table)
    print("within-speaker height discrimination:")
    for attr, rate in sorted(report.category_rates().items()):
        print(f"    {attr:<8} {rate:.4f}")
    print(f"    overall  {report.overall:.4f}")
    print()

    # phones the table does not know about fail loudly
    try:
        table.classify("QQ")
    except Exception as e:
        print(f"classify('QQ') -> {type(e).__name__}: {e}")


if __name__ == "__main__":
    main()
