"""Reporting helpers: regenerate the paper's tables and figures as text.

Benchmarks and examples call into :mod:`repro.analysis.tables` to print the
same rows/series the paper reports, side by side with the published numbers.
"""

from repro.analysis.tables import format_breakdown, format_table

__all__ = ["format_breakdown", "format_table"]
