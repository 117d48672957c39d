#!/usr/bin/env python3
"""The rows that differ between two value fingerprints.

    python3 scripts/fingerprint_diff.py OLD.csv NEW.csv

Both files are outputs of scripts/value_fingerprint.py.  Rows are matched by
their key, the columns up to and including the path.  For each key whose row
differs, one line is printed: the key, the old and new values as float.hex
(or the error raised) and the relative change (new - old) / |old|, with the
method and flags where those differ too; a row in one file only shows as
(missing) in the other.  With no differing row nothing is printed and the
exit status is 0; otherwise it is 1, as for diff.
"""

import csv
import sys

KEY = ("scheme", "nt", "nr", "nu", "snr_db", "rho", "codebook_size", "path")


def read(path: str) -> dict[tuple[str, ...], dict[str, str]]:
    with open(path, newline="") as f:
        return {tuple(row[k] for k in KEY): row for row in csv.DictReader(f)}


def relative_change(old: str, new: str) -> str:
    if not (old and new):
        return "n/a"
    a, b = float.fromhex(old), float.fromhex(new)
    if a == b:
        return "0"
    return f"{(b - a) / abs(a):+.2e}" if a else "inf"


def describe(row: dict[str, str] | None, other: dict[str, str] | None) -> str:
    """The row's value or error, and its method and flags where they differ
    from the other row's."""
    if row is None:
        return "(missing)"
    moved = [f"{k}={row[k]}" for k in ("method", "flags") if other and row[k] != other[k]]
    return " ".join([row["value"] or row["error"], *moved])


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: " + __doc__.splitlines()[2].strip(), file=sys.stderr)
        return 2
    old, new = read(argv[0]), read(argv[1])
    changed = 0
    for key in [*old, *(k for k in new if k not in old)]:
        a, b = old.get(key), new.get(key)
        if a == b:
            continue
        changed += 1
        rel = relative_change(a["value"], b["value"]) if a and b else "n/a"
        print(f"{','.join(key)}  {describe(a, b)} -> {describe(b, a)}  {rel}")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
