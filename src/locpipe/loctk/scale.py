"""Benchmark helper: grow a prepared table by whole-table concatenation.

Rows are repeated `factor` times in order (copy 0 first, then copy 1, ...).
For factor >= 2 every sample id gains a ``#<copy>`` suffix to stay unique;
factor 1 writes the table back through `write_table` unchanged.

Each source row's value-and-target text is rendered once, by
`tables.render_csv`, and the output is written one copy at a time, each row
behind its own id cell, so memory holds the source table and one copy's
text, never the whole output. The output bytes are those of `write_table`
over the expanded table: an id cell gets exactly the quoting
`tables.id_cell` gives it there. Only when the table memo has no entry for
those bytes is the expanded table itself built, to be stored there.
"""

from __future__ import annotations

from typing import Iterator

from ..errors import BuiltinError
from . import StageRequest, get, section
from .tables import Table, id_cell, read_table, render_csv, write_chunks, write_table


def _id_affixes(sample_id: str) -> tuple[str, str]:
    """(head, tail) such that ``head + str(copy) + tail`` is the rendered id
    cell of ``<sample_id>#<copy>``.

    ``#`` and digits never need quoting, so every copy is quoted exactly
    when ``<sample_id>#`` is, and a quoted cell keeps its closing quote last.
    """
    cell = id_cell(f"{sample_id}#")
    return (cell, "") if cell.endswith("#") else (cell[:-1], '"')


def scaled_text(table: Table, factor: int) -> Iterator[str]:
    """The CSV text of `factor` block-wise copies of `table` (factor >= 2):
    the header, then one chunk per copy."""
    # an empty first cell stands in for the id: each source row renders once,
    # as ",<values>,x,y\n"
    text = "".join(render_csv(table.header(), [""] * table.n_rows, table.columns()))
    header, *rests = text.splitlines(keepends=True)
    del text
    affixes = [_id_affixes(sample_id) for sample_id in table.ids]
    yield header
    for copy in range(factor):
        yield "".join(f"{head}{copy}{tail}{rest}" for (head, tail), rest in zip(affixes, rests))


def expand(table: Table, factor: int) -> Table:
    """The table `scaled_text` renders: ids ``<id>#<copy>``, every column
    repeated block-wise."""
    ids = [f"{sample_id}#{copy}" for copy in range(factor) for sample_id in table.ids]
    return Table(table.prefix, ids, [column * factor for column in table.cols], table.x * factor, table.y * factor)


def run(request: StageRequest) -> None:
    cfg = section(request, "scale")
    factor = get(cfg, "factor", "int", f"stage '{request.stage}'")
    table = read_table(request.dep(0, "prepared CSV"), request.table_memo)
    if factor < 1:
        raise BuiltinError(f"scale: factor must be >= 1, got {factor}")
    out = request.out(0, "scaled CSV")
    if factor == 1:
        write_table(table, out, request.table_memo)
        return
    write_chunks(out, scaled_text(table, factor), request.table_memo, lambda: expand(table, factor))
