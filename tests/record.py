"""Recompute pinned test records from the code under test.

    python tests/record.py rollouts  # compare (exit 1 on a difference)
    python tests/record.py rollouts --write  # and rewrite the records

``rollouts`` replays every rollout case of
``tests/data/recorded_rollouts.json`` (the cart-pole cases of the
scheduling bundle and of the fixed references, and the arm's catches
from each drop height) from the references stored in that file, the way
``tests/test_bench.py`` does.  Each pinned value is printed as
old → new.  The cart-pole cases are pinned to the bit; the arm's are
pinned to the tolerances of their test, and a value within them keeps
its recorded digits.  ``--write`` replaces only the rollout entries and
keeps the references, the note and the file's layout.  pytest does not
collect this script.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import test_bench  # noqa: E402  (after the path to the program)

ROLLOUTS = os.path.join(HERE, "data", "recorded_rollouts.json")


def _short(value):
    """A digest shortened for printing; other values as they are."""
    if isinstance(value, str) and len(value) == 64:
        return value[:16] + "…"
    return value


def _compare(label, old, new):
    """Print old → new for each pinned value; the number that differ."""
    changed = 0
    for key in sorted(new):
        if key == "sha256":
            changed += _compare(f"{label} sha256", old.get(key, {}), new[key])
            continue
        mark = "" if old.get(key) == new[key] else "   DIFFERS"
        changed += bool(mark)
        if key == "events":
            print(f"{label} events: {len(old.get(key, []))} → "
                  f"{len(new[key])}{mark}")
        else:
            print(f"{label} {key}: {_short(old.get(key))} → "
                  f"{_short(new[key])}{mark}")
    return changed


def record_rollouts(recorded):
    """The rollout entries recomputed, in the file's layout."""
    new = dict(recorded)
    new["cartpole"] = [
        {**case, **test_bench.rollout_record(
            test_bench.cartpole_case_trace(recorded, case))}
        for case in recorded["cartpole"]]
    new["fixed_references"] = [
        {**case, **test_bench.rollout_record(
            test_bench.fixed_reference_trace(recorded, case))}
        for case in recorded["fixed_references"]]
    arm = recorded["arm_held_level"]
    new["arm_held_level"] = {**arm, "drop_heights": [
        {**row, "contact_time": tc, "dv": dv}
        for row, (tc, dv) in zip(arm["drop_heights"],
                                 test_bench.arm_catches(arm))]}
    return new


def _arm_within_tolerance(old, new):
    """Print each arm value as old → new, and put the old value back in
    ``new`` where its test's tolerance accepts the new one; the number
    of values beyond tolerance."""
    changed = 0
    for before, after in zip(old["drop_heights"], new["drop_heights"]):
        for key, atol in test_bench.ARM_ATOL.items():
            beyond = abs(after[key] - before[key]) > atol
            changed += beyond
            mark = "   DIFFERS" if beyond else f"   (within {atol:g}, kept)"
            print(f"arm_held_level[h0={before['h0']}] {key}: {before[key]} "
                  f"→ {after[key]}{mark}")
            if not beyond:
                after[key] = before[key]
    return changed


def rollouts(write):
    with open(ROLLOUTS) as fh:
        old = json.load(fh)
    new = record_rollouts(old)
    changed = 0
    for kind, name in (("cartpole", "x_wall"),
                       ("fixed_references", "reference")):
        for before, after in zip(old[kind], new[kind]):
            changed += _compare(f"{kind}[{name}={before[name]}]",
                                before, after)
    changed += _arm_within_tolerance(old["arm_held_level"],
                                     new["arm_held_level"])
    print("no difference" if not changed else f"{changed} values differ")
    if write:
        with open(ROLLOUTS, "w") as fh:
            fh.write(json.dumps(new, indent=1, sort_keys=True))
    return 1 if changed else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("record", choices=("rollouts",))
    parser.add_argument("--write", action="store_true",
                        help="rewrite the record with the new values")
    args = parser.parse_args(argv)
    return rollouts(args.write)


if __name__ == "__main__":
    sys.exit(main())
