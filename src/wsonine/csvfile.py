"""The one CSV writer behind every file the CLI and the report objects write."""

from __future__ import annotations

import csv


def write_csv(path, header, rows) -> None:
    """Write a header row and then rows.  Floats (numpy floats included) are
    written with 17 significant digits, so a reread gives the same values;
    other cells are written as they are."""
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(header)
        out.writerows([f"{v:.17g}" if isinstance(v, float) else v for v in row]
                      for row in rows)
