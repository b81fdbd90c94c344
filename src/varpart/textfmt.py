"""Number formatting shared by text reports and SVG legends.

Text output carries exactly the numbers the JSON output carries, rounded
half away from zero to two decimals, with thousands separators. Rounding
goes through Decimal on repr(x) so it operates on the shortest decimal
form of the float, not on binary artifacts.
"""

from __future__ import annotations

from decimal import ROUND_HALF_UP, Context, Decimal

# room for every finite float64 to two decimals: 309 integer digits + 2
_WIDE = Context(prec=311, rounding=ROUND_HALF_UP)


def fmt2(x: float) -> str:
    d = Decimal(repr(float(x))).quantize(Decimal("0.01"), context=_WIDE)
    if d == 0:
        d = abs(d)  # avoid "-0.00"
    return format(d, ",f")
