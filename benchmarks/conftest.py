"""Shared benchmark fixtures.

Benchmarks that print a table take the ``emit`` fixture: it shows the
rendering in the terminal and archives it to benchmarks/reports/<name>.txt.
The paper's figures and tables are built by ``repro paper build`` (see
docs/PIPELINE.md), not here.
"""

from __future__ import annotations

from pathlib import Path

import pytest

REPORTS = Path(__file__).parent / "reports"


@pytest.fixture
def emit(capsys):
    """Print a rendered figure/table (uncaptured) and archive it."""

    def _emit(name: str, text: str) -> None:
        REPORTS.mkdir(exist_ok=True)
        (REPORTS / f"{name}.txt").write_text(text + "\n")
        with capsys.disabled():
            print(f"\n{text}\n")

    return _emit
