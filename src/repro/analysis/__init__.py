"""Analysis helpers: read chains, table/figure rendering."""

from repro.analysis.readchains import (
    DEFAULT_THRESHOLDS,
    chain_survival,
    read_chain_histogram,
    replication_potential,
)
from repro.analysis.tables import (
    format_bar_figure,
    format_series,
    format_table,
    percentage,
)

__all__ = [
    "DEFAULT_THRESHOLDS",
    "chain_survival",
    "read_chain_histogram",
    "replication_potential",
    "format_bar_figure",
    "format_series",
    "format_table",
    "percentage",
]
