"""The generating function of an orange against that of its star.

Collecting dim S^r_d into a power series, multiplying the orange's series
by (1-t)^{k-i} must reproduce the star's series exactly. Everything here
is integer arithmetic on truncated coefficient lists.

Run: python3 demos/hilbert_series.py
"""

from orangesplines import (
    detect_orange,
    orange_hilbert_prefix,
    project_orange,
    hilbert_prefix,
    verify_hilbert_identity,
)
from orangesplines.catalog import get

for name in ("two-triangle", "two-tetrahedron", "fan-4d"):
    cx = get(name).complex
    profile = detect_orange(cx)
    fiber = profile.k - profile.i
    star = project_orange(cx).complex
    print(f"{name}: fiber dimension {fiber}")
    for r in range(2):
        orange_series = orange_hilbert_prefix(cx, r, 6)
        star_series = hilbert_prefix(star, r, 6)
        ok, residuals = verify_hilbert_identity(cx, r, 6)
        print(f"  r={r} orange: {list(orange_series.coeffs)}")
        print(f"      star:   {list(star_series.coeffs)}")
        print(f"      orange x (1-t)^{fiber} - star = {residuals}  ->", "ok" if ok else "BROKEN")
    print()
