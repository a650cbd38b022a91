"""Module boundaries that a grep can keep.

A GenSeries stores raw, uncarried terms and a raw precision; only the
``series`` module reads them (``_raw``, ``_raw_prec``, ``_raw_closed``).
Every other module goes through the carried accessors or a series method.
A coefficient's ``rep`` (nested integer tuples, over Q with a denominator)
is read only in ``coeff``; other modules use its methods.
"""

import re
from pathlib import Path

import genpuiseux


def test_only_series_reads_the_raw_series_fields():
    package = Path(genpuiseux.__file__).parent
    readers = [f"{path.name}:{lineno}"
               for path in sorted(package.glob("*.py")) if path.name != "series.py"
               for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
               if "_raw" in line]
    assert readers == []


def test_only_coeff_reads_a_coefficient_rep():
    package = Path(genpuiseux.__file__).parent
    readers = [f"{path.name}:{lineno}"
               for path in sorted(package.glob("*.py")) if path.name != "coeff.py"
               for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
               if re.search(r"\.rep\b", line)]
    assert readers == []
