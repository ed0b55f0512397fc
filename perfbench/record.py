"""Record the expected outputs of the relations workload from the current code.

    python3 perfbench/record.py

Writes ``perfbench/data/seed_record.json``:

* a basis of the order-4 four-term quotient (the first six diagrams in
  sorted order that are independent modulo four-term relations, not the
  golden table's basis rows) and the ``express_modulo_4T`` coefficients of
  every other order-4 diagram over it;
* the gammas, relations and errata that ``verify_golden_table`` returns.

The relations workload checks its outputs against this file.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from pdgenus import ChordDiagram, express_modulo_4T  # noqa: E402
from pdgenus.golden import verify_golden_table  # noqa: E402

BASIS = (
    "1 1 2 2 3 3 4 4",
    "1 1 2 2 3 4 3 4",
    "1 1 2 3 2 4 3 4",
    "1 2 1 2 3 4 3 4",
    "1 2 1 3 2 4 3 4",
    "1 2 3 1 4 2 3 4",
)


def canonical(word: tuple[int, ...]) -> tuple[int, ...]:
    """Lex-least first-occurrence relabelling over all rotations."""
    best = ()
    for start in range(len(word)):
        relabel: dict[int, int] = {}
        candidate = tuple(
            relabel.setdefault(x, len(relabel) + 1) for x in word[start:] + word[:start]
        )
        if not best or candidate < best:
            best = candidate
    return best


def all_diagrams(n: int) -> list[tuple[int, ...]]:
    """Canonical words of every order-n diagram, sorted."""

    def matchings(points):
        if not points:
            yield ()
            return
        for i in range(1, len(points)):
            for rest in matchings(points[1:i] + points[i + 1 :]):
                yield ((points[0], points[i]),) + rest

    words = set()
    for matching in matchings(tuple(range(2 * n))):
        word = [0] * (2 * n)
        for label, (a, b) in enumerate(matching, start=1):
            word[a] = word[b] = label
        words.add(canonical(tuple(word)))
    return sorted(words)


def express_all(basis: list[str]) -> dict:
    diagrams = [ChordDiagram.parse(w) for w in basis]
    keys = {d.canonical().word for d in diagrams}
    coefficients = {}
    for word in all_diagrams(4):
        if word not in keys:
            coeffs = express_modulo_4T(ChordDiagram(word), diagrams)
            coefficients[" ".join(map(str, word))] = [str(c) for c in coeffs]
    return {"basis": basis, "coefficients": coefficients}


def main() -> None:
    rows, errata = verify_golden_table()
    record = {
        "golden": {
            "rows": {
                str(r.row): {"gamma": list(r.computed_gamma.coeffs), "relation": r.computed_relation}
                for r in rows
            },
            "errata": errata,
        },
        "express": express_all(list(BASIS)),
    }
    out = HERE / "data" / "seed_record.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
