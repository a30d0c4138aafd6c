"""Benchmark helper: grow a prepared table by whole-table concatenation.

Rows are repeated `factor` times in order (copy 0 first, then copy 1, ...).
For factor >= 2 every sample id gains a ``#<copy>`` suffix to stay unique;
factor 1 writes the table back through `write_table` unchanged.

Each source row's value-and-target text is rendered once, by
`tables.render_csv`, and written `factor` times, each copy behind its own id
cell. The output bytes are those of `write_table` over the expanded table:
an id cell gets exactly the quoting `tables.id_cell` gives it there.
"""

from __future__ import annotations

from ..errors import BuiltinError
from . import StageRequest, get, section
from .tables import Table, id_cell, read_table, render_csv, write_table


def _id_affixes(sample_id: str) -> tuple[str, str]:
    """(head, tail) such that ``head + str(copy) + tail`` is the rendered id
    cell of ``<sample_id>#<copy>``.

    ``#`` and digits never need quoting, so every copy is quoted exactly
    when ``<sample_id>#`` is, and a quoted cell keeps its closing quote last.
    """
    cell = id_cell(f"{sample_id}#")
    return (cell, "") if cell.endswith("#") else (cell[:-1], '"')


def render_scaled(table: Table, factor: int) -> str:
    """The CSV text of `factor` block-wise copies of `table` (factor >= 2)."""
    # an empty first cell stands in for the id: each source row renders once,
    # as ",<values>,x,y\n"
    text = "".join(render_csv(table.header(), [""] * table.n_rows, table.columns()))
    header, *rests = text.splitlines(keepends=True)
    affixes = [_id_affixes(sample_id) for sample_id in table.ids]
    return header + "".join(
        f"{head}{copy}{tail}{rest}"
        for copy in range(factor)
        for (head, tail), rest in zip(affixes, rests)
    )


def run(request: StageRequest) -> None:
    cfg = section(request, "scale")
    factor = get(cfg, "factor", "int", f"stage '{request.stage}'")
    table = read_table(request.dep(0, "prepared CSV"), request.table_memo)
    if factor < 1:
        raise BuiltinError(f"scale: factor must be >= 1, got {factor}")
    out = request.out(0, "scaled CSV")
    if factor == 1:
        write_table(table, out)
        return
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(render_scaled(table, factor), encoding="utf-8")
