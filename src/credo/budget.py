"""The one memory budget of credo's blocked loops.

A loop that would hold a (rows x width) temporary holds one block of rows
at a time instead, as many as fit ``BLOCK_BYTES`` at a stated size per cell:

- ``load_csv`` and ``write_csv``: CSV text, ``TEXT_CELL`` bytes a cell (the
  ``str`` of a 17-digit float takes 67-68 bytes), so 8,192 cells;
- ``encode``: float64 cells, 65,536 of them;
- ``TreeStack.blocks``: one int64 node id per (row, tree), 65,536 of them;
- SMOTE: one float64 distance per (row, class member), 65,536 of them.

A block is at least one row, so a row wider than the budget is walked alone.
The block size changes no output byte.
"""

BLOCK_BYTES = 1 << 19  # 512 KiB
TEXT_CELL = 64  # bytes a cell of CSV text is counted at


def block_rows(width: int, cell_bytes: int) -> int:
    """Rows of ``width`` cells of ``cell_bytes`` each that fit the budget."""
    return max(1, BLOCK_BYTES // (max(1, width) * cell_bytes))
