"""Walk through recognition and projection of a skewed orange.

Starts from two triangles whose shared edge sits nowhere near a coordinate
axis, recognizes the (k,i) profile, straightens the medial face onto the
last coordinates, and projects down to the star in R^i.

Run: python3 demos/recognize_and_project.py
"""

from orangesplines import (
    adapt_coordinates,
    detect_orange,
    project_orange,
    standard_form,
)
from orangesplines.catalog import get


def show(cx, label):
    print(f"{label}: ambient R^{cx.ambient_dim}, {len(cx.maximal_faces)} maximal faces")
    for vid, v in enumerate(cx.vertices):
        print(f"  vertex {vid}: ({', '.join(str(c) for c in v)})")
    for f in cx.maximal_faces:
        print(f"  face {list(f)}")


entry = get("two-triangle-skew")
cx = entry.complex
show(cx, "input")

profile = detect_orange(cx)
print(f"\nrecognized a ({profile.k},{profile.i})-orange with {profile.n} segments")
print(f"medial face: vertices {list(profile.medial)}")

frame = adapt_coordinates(cx)
print("\nadapted coordinates send the medial face to the origin and the")
print("last coordinate axes; the medial vertices become:")
for m in profile.medial:
    print(f"  vertex {m} -> ({', '.join(str(c) for c in frame.apply_point(cx.vertices[m]))})")

projected = project_orange(cx)
print()
show(projected.complex, "projected star")
print(f"central vertex: {projected.central_vertex}")

sf = standard_form(cx)
print()
show(sf.standard, "standard model (join of the star with a coordinate simplex)")
