"""Rewrite ``search_outcomes.tsv``, the table that
``test_iu.py::TestSearch::test_search_outcomes_are_pinned`` compares the
search with, from what the search gives now, and print the two digests that
test pins.

    PYTHONPATH=src python tests/rewrite_search_pins.py

A rewrite is a behaviour change: list it in CHANGES.md, with the entries
that moved and why, and put the printed digests in the test.
"""

import hashlib

from test_iu import SEARCH_TABLE, search_outcomes

HEADER = "# index\tjudgment\tcertificate sha256 or miss\tnodes\texhausted\n"


def main() -> None:
    h, verdicts = hashlib.sha256(), hashlib.sha256()
    lines = []
    for line, cert, nodes, exhausted in search_outcomes():
        lines.append(line + "\n")
        h.update(f"{cert}\0{nodes}\0{exhausted}\0".encode())
        verdicts.update(f"{cert}\0{exhausted}\0".encode())
    SEARCH_TABLE.write_text(HEADER + "".join(lines), "utf-8")
    print(f"wrote {len(lines)} lines to {SEARCH_TABLE.name}")
    print(f"verdicts {verdicts.hexdigest()}")
    print(f"outcomes {h.hexdigest()}")


if __name__ == "__main__":
    main()
