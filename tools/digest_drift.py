"""Compare two outputs of `tools/report_digests.py`, kind by kind.

    python3 tools/report_digests.py > old.txt     # on one source tree
    python3 tools/report_digests.py > new.txt     # on the other
    python3 tools/digest_drift.py old.txt new.txt

For each kind of digest line (`scene`, `csv`, `point`, `curvature`, `map`,
`factorization`) it prints how many lines there are and how many differ.
For the kinds whose fields are `float.hex` values it also counts the lines
whose outcome changed (a typed rejection on one side only, another
rejection message, or another trapped class) and prints, per field, the
largest drift |new - old| / max(1, |old|) over the lines whose outcome is
the same; the stored references are gated on the same scale.  Fields are
named by their `name=` prefix, by `extrinsic.ROW_FIELDS` on `point` lines,
and by their position otherwise.

Both files must list the same lines in the same order, as two runs over one
revision of the stored inputs do.  Exit status: 0 when every line is
identical, 1 when some differ, 2 when the files do not pair up.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from nullgeom.extrinsic import ROW_FIELDS  # noqa: E402

# the tokens that name a line, before its values
KEY_TOKENS = {"scene": 4, "csv": 4, "point": 3, "curvature": 3, "map": 3, "factorization": 2}
FLOAT_KINDS = ("point", "curvature", "map", "factorization")


def _fields(kind: str, values: list):
    """({field: float}, outcome) of a line's value tokens: the outcome is
    the rejection or the tokens that are not `float.hex` values."""
    if values and values[0] == "rejected":
        return {}, " ".join(values)
    floats, rest = {}, []
    for i, token in enumerate(values):
        name, _, text = token.rpartition("=")
        if not name:
            name = ROW_FIELDS[i] if kind == "point" and i < len(ROW_FIELDS) else str(i)
        try:
            floats[name] = float.fromhex(text)
        except ValueError:
            rest.append(token)
    return floats, " ".join(rest)


def _drift(old: float, new: float) -> float:
    if old == new or (math.isnan(old) and math.isnan(new)):
        return 0.0
    return abs(new - old) / max(1.0, abs(old))


def compare(old_lines: list, new_lines: list) -> dict:
    """{kind: {"lines", "differ", "outcomes", "drift": {field: worst}}} of
    two digest outputs; raises ValueError where their lines do not pair."""
    if len(old_lines) != len(new_lines):
        raise ValueError(f"{len(old_lines)} lines against {len(new_lines)}")
    kinds = {}
    for number, (old, new) in enumerate(zip(old_lines, new_lines), 1):
        old_tokens, new_tokens = old.split(), new.split()
        kind = old_tokens[0] if old_tokens else ""
        width = KEY_TOKENS.get(kind)
        if width is None or old_tokens[:width] != new_tokens[:width]:
            raise ValueError(f"line {number} does not pair: {old!r} and {new!r}")
        entry = kinds.setdefault(kind, {"lines": 0, "differ": 0, "outcomes": 0, "drift": {}})
        entry["lines"] += 1
        if old == new:
            continue
        entry["differ"] += 1
        if kind not in FLOAT_KINDS:
            continue
        old_floats, old_outcome = _fields(kind, old_tokens[width:])
        new_floats, new_outcome = _fields(kind, new_tokens[width:])
        if old_outcome != new_outcome or old_floats.keys() != new_floats.keys():
            entry["outcomes"] += 1
            continue
        for name, value in old_floats.items():
            worst = entry["drift"].get(name, 0.0)
            entry["drift"][name] = max(worst, _drift(value, new_floats[name]))
    return kinds


def report(kinds: dict) -> str:
    out = []
    for kind, entry in kinds.items():
        line = f"{kind}: {entry['lines']} lines, {entry['differ']} differ"
        if kind in FLOAT_KINDS:
            line += f", {entry['outcomes']} outcomes changed"
        out.append(line)
        out.extend(f"  {name}: {worst:.3g}" for name, worst in entry["drift"].items() if worst)
    return "\n".join(out)


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    old, new = (Path(p).read_text().splitlines() for p in argv[1:])
    try:
        kinds = compare(old, new)
    except ValueError as err:
        print(f"digest_drift: {err}", file=sys.stderr)
        return 2
    print(report(kinds))
    return 1 if any(entry["differ"] for entry in kinds.values()) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
