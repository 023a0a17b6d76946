"""Recompute the pinned test records under ``tests/data/`` from the code
under test; the only writer of those files.

    python tests/record.py <name>...|all  # compare (exit 1 on a difference)
    python tests/record.py <name>...|all --write  # and rewrite the records

Each record is computed by the function ``record_<name>`` of the test
module that checks it, from the same per-case functions its tests call;
the tests compare what those functions return with the stored JSON by
``==``.  A record is unchanged when its files would be written byte for
byte as they are; otherwise each value that differs is printed as
old → new.  pytest does not collect this script.
"""

import argparse
import contextlib
import importlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "data")
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

# name: (test module that defines record_<name>, the files it writes)
RECORDS = {
    "block_fingerprints": ("test_block_fingerprints",
                           ["block_fingerprints.json"]),
    "default_guess_residuals": ("test_transcription",
                                ["default_guess_residuals.json"]),
    "rollouts": ("test_bench", ["recorded_rollouts.json"]),
    "settings_fingerprints": ("test_settings_fingerprint",
                              ["settings_fingerprints.json"]),
    "short_solves": ("test_nlp", ["short_nominal_solve.json",
                                  "short_branched_solves.json"]),
    "structure_fingerprints": ("test_transcription",
                               ["structure_fingerprints.json"]),
    "study_outputs": ("test_study_outputs", ["study_outputs.json"]),
    "warm_start_guesses": ("test_pipeline", ["warm_start_guesses.json"]),
}

SHOWN = 12  # differing values printed per file


def load(name):
    """The stored record ``tests/data/<name>``."""
    with open(os.path.join(DATA, name)) as fh:
        return json.load(fh)


def _dump(value):
    return json.dumps(value, indent=1, sort_keys=True) + "\n"


def _short(value):
    """A digest or a container shortened for printing."""
    if isinstance(value, str) and len(value) == 64:
        return value[:16] + "…"
    if isinstance(value, (list, dict)):
        return f"<{len(value)} items>"
    return value


def _differences(path, old, new):
    """(path, old, new) of each value that differs between two records."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(set(old) | set(new)):
            yield from _differences(f"{path}.{key}", old.get(key),
                                    new.get(key))
    elif (isinstance(old, list) and isinstance(new, list)
          and len(old) == len(new)):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from _differences(f"{path}[{i}]", a, b)
    elif old != new:
        yield path, old, new


def run(name, write):
    """Recompute one record, print what differs, and rewrite its files
    if asked; the number of values that differ."""
    module, files = RECORDS[name]
    # the study verbs print their progress; only the differences show
    with (contextlib.redirect_stdout(io.StringIO()),
          contextlib.redirect_stderr(io.StringIO())):
        new = getattr(importlib.import_module(module), f"record_{name}")()
    if sorted(new) != sorted(files):
        raise KeyError(f"record_{name} writes {sorted(new)}, not {files}")
    changed = 0
    for file in files:
        text = _dump(new[file])
        if json.loads(text) != new[file]:
            raise TypeError(f"{file}: the record does not survive JSON, so "
                            "its test cannot compare it with ==")
        path = os.path.join(DATA, file)
        old_text = "null"
        if os.path.exists(path):
            with open(path) as fh:
                old_text = fh.read()
        if text == old_text:
            continue
        diffs = list(_differences(file, json.loads(old_text), new[file]))
        for where, before, after in diffs[:SHOWN]:
            print(f"{where}: {_short(before)} → {_short(after)}")
        if len(diffs) > SHOWN:
            print(f"{file}: … and {len(diffs) - SHOWN} more")
        if not diffs:
            print(f"{file}: same values, new layout")
        changed += max(len(diffs), 1)
        if write:
            with open(path, "w") as fh:
                fh.write(text)
    print(f"{name}: " + (f"differences: {changed}" if changed
                         else "no difference"))
    return changed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("records", nargs="+", choices=[*RECORDS, "all"],
                        metavar="record", help="record names, or all")
    parser.add_argument("--write", action="store_true",
                        help="rewrite the records with the new values")
    args = parser.parse_args(argv)
    names = (list(RECORDS) if "all" in args.records
             else list(dict.fromkeys(args.records)))
    changed = sum(run(name, args.write) for name in names)
    print("no difference" if not changed else f"differences: {changed}")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
