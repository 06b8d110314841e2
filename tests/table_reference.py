"""Row-by-row CSV writing through csv.writer: the oracle that lti.write_table
must match byte for byte."""

from __future__ import annotations

import csv


def write_table(path, header, columns) -> None:
    """The header, then one row per element of the columns, each value the
    repr of its Python number, every row written by csv.writer."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*(map(repr, column.tolist()) for column in columns)))
