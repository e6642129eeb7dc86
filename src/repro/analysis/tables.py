"""Plain-text result tables, including paper-vs-measured diff tables.

Every benchmark prints its results through :class:`ResultTable`, which mirrors
the rows/series of the corresponding paper figure; ``EXPERIMENTS.md`` maps
each figure to the benchmark/scenario that regenerates it, so the paper's
number and the measured number sit side by side.  :func:`comparison_table`
builds the common "x-axis vs several curves" shape, and :func:`diff_table`
renders two runs of the same grid (e.g. a golden artifact against a fresh
sweep — ``python -m repro.experiments diff a.json b.json``) as paired
``[paper]`` / ``[measured]`` / ``Δ%`` columns.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Union

from repro.exceptions import ConfigurationError

Cell = Union[str, float, int, None]


def _format_cell(value: Cell, float_format: str) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return format(value, float_format)
    return str(value)


class ResultTable:
    """A simple column-aligned text table.

    Example:
        >>> table = ResultTable(["load", "mean_1copy", "mean_2copies"])
        >>> table.add_row(load=0.1, mean_1copy=10.2, mean_2copies=6.9)
        >>> print(table.to_text())  # doctest: +ELLIPSIS
        load ...
    """

    def __init__(self, columns: Sequence[str], title: Optional[str] = None) -> None:
        """Create a table with the given column names (non-empty, unique)."""
        if not columns:
            raise ConfigurationError("a table needs at least one column")
        if len(set(columns)) != len(columns):
            raise ConfigurationError(f"duplicate column names in {columns!r}")
        self.columns = list(columns)
        self.title = title
        self.rows: List[Dict[str, Cell]] = []

    def add_row(self, **cells: Cell) -> None:
        """Append a row given as ``column=value`` keyword arguments.

        Unknown columns are rejected; missing columns render as ``-``.
        """
        unknown = set(cells) - set(self.columns)
        if unknown:
            raise ConfigurationError(f"unknown columns {sorted(unknown)}; table has {self.columns}")
        self.rows.append(dict(cells))

    def column(self, name: str) -> List[Cell]:
        """All values of one column, in row order (``None`` where missing)."""
        if name not in self.columns:
            raise ConfigurationError(f"unknown column {name!r}; table has {self.columns}")
        return [row.get(name) for row in self.rows]

    def to_text(self, float_format: str = ".4g") -> str:
        """Render the table as aligned plain text."""
        header = list(self.columns)
        body = [
            [_format_cell(row.get(col), float_format) for col in self.columns]
            for row in self.rows
        ]
        widths = [
            max(len(header[i]), *(len(r[i]) for r in body)) if body else len(header[i])
            for i in range(len(header))
        ]
        lines = []
        if self.title:
            lines.append(self.title)
            lines.append("=" * len(self.title))
        lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in body:
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.to_text()


def comparison_table(
    title: str,
    x_name: str,
    x_values: Sequence[Cell],
    series: Mapping[str, Sequence[Cell]],
) -> ResultTable:
    """Build a table with one x-column and one column per series.

    This is the shape of most paper figures: x-axis (load, number of copies,
    threshold) against several curves (1 copy, 2 copies, ...).

    Raises:
        ConfigurationError: If any series has a different length from
            ``x_values``.
    """
    for name, values in series.items():
        if len(values) != len(x_values):
            raise ConfigurationError(
                f"series {name!r} has {len(values)} values but there are {len(x_values)} x values"
            )
    table = ResultTable([x_name, *series.keys()], title=title)
    for i, x in enumerate(x_values):
        row: Dict[str, Cell] = {x_name: x}
        for name, values in series.items():
            row[name] = values[i]
        table.add_row(**row)
    return table


def _delta_percent(a: Cell, b: Cell) -> Optional[float]:
    """Relative change b vs a in percent, or ``None`` when undefined."""
    if isinstance(a, bool) or isinstance(b, bool):
        return None
    if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
        return None
    if a == 0:
        return None
    return 100.0 * (b - a) / a


def diff_table(
    title: str,
    key_columns: Sequence[str],
    rows: Sequence[tuple],
    value_columns: Sequence[str],
    labels: Sequence[str] = ("paper", "measured"),
) -> ResultTable:
    """Build a side-by-side comparison table of two runs of the same grid.

    This is the rendering half of the artifact-diff path
    (:meth:`repro.experiments.SweepResult.diff` pairs the points, this lays
    them out): each value column ``c`` becomes three columns —
    ``c [labels[0]]``, ``c [labels[1]]`` and ``c Δ%`` (relative change of the
    second side versus the first, blank where either side is missing or
    non-numeric).

    Args:
        title: Table title.
        key_columns: Names of the identifying columns (grid axes).
        rows: One ``(key_values, a_values, b_values)`` mapping triple per
            paired point.
        value_columns: The compared value columns.
        labels: Labels of the two sides, e.g. ``("paper", "measured")``.

    Raises:
        ConfigurationError: If there are no value columns or the two labels
            are not distinct.
    """
    if not value_columns:
        raise ConfigurationError("diff_table needs at least one value column")
    if len(labels) != 2 or labels[0] == labels[1]:
        raise ConfigurationError(f"diff_table needs two distinct labels, got {labels!r}")
    columns: List[str] = list(key_columns)
    for name in value_columns:
        columns += [f"{name} [{labels[0]}]", f"{name} [{labels[1]}]", f"{name} Δ%"]
    table = ResultTable(columns, title=title)
    for key_values, a_values, b_values in rows:
        row: Dict[str, Cell] = {name: key_values.get(name) for name in key_columns}
        for name in value_columns:
            a, b = a_values.get(name), b_values.get(name)
            row[f"{name} [{labels[0]}]"] = a
            row[f"{name} [{labels[1]}]"] = b
            row[f"{name} Δ%"] = _delta_percent(a, b)
        table.add_row(**row)
    return table
