"""Set-up probe: what a command does before its main work, in a fresh process.

Imports ``abxlab.cli`` and runs the public loaders on a workload's
inputs, then exits.  ``run.py`` times this process from outside, so the
figure includes interpreter start.

    python3 benchmarks/probe_setup.py --features DIR [--features DIR ...]
        [--items FILE] [--af-table NAME] [--checkpoint FILE]
"""

import argparse


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--features", action="append", default=[])
    parser.add_argument("--items")
    parser.add_argument("--af-table")
    parser.add_argument("--checkpoint")
    args = parser.parse_args()

    import abxlab.cli  # noqa: F401  (the import is part of set-up)
    from abxlab.af_tables import load_af_table
    from abxlab.apc import load_checkpoint
    from abxlab.corpus import load_feature_archive, load_item_file, segment_frames

    archives = [load_feature_archive(path) for path in args.features]
    if args.items:
        for seg in load_item_file(args.items):
            segment_frames(seg, archives[-1])
    if args.af_table:
        load_af_table(args.af_table)
    if args.checkpoint:
        load_checkpoint(args.checkpoint)


if __name__ == "__main__":
    main()
