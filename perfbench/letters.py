"""Letter-shaped GXL/CXL collections, written from a seed.

Stands in for the IAM letter database, which cannot be shipped with the
benchmark. Each class is a prototype letter drawn with straight strokes: nodes
are stroke endpoints and junctions with plane coordinates `x`, `y`; edges are
unattributed strokes. Every sample applies the distortions of the original
collection's generator: coordinate jitter, a dropped end node, inserted stroke
midpoints, one flipped node pair and a shuffled node order. Orders span 2-9.

Coordinates are written as plain decimal text, as the original files have
them; the files load with ``read_cxl_dataset(dir, GXL_PRESETS["letter"])``.
"""
from __future__ import annotations

import os

import numpy as np

# Prototype letters on the unit square: (node coordinates, strokes).
PROTOTYPES = {
    "A": ([(0.5, 1.0), (0.125, 0.0), (0.875, 0.0), (0.3, 0.45), (0.7, 0.45)],
          [(1, 3), (3, 0), (0, 4), (4, 2), (3, 4)]),
    "E": ([(0.125, 1.0), (0.125, 0.5), (0.125, 0.0), (0.75, 1.0), (0.625, 0.5), (0.75, 0.0)],
          [(0, 1), (1, 2), (0, 3), (1, 4), (2, 5)]),
    "L": ([(0.125, 1.0), (0.125, 0.0), (0.75, 0.0)],
          [(0, 1), (1, 2)]),
}

JITTER = 0.05       # standard deviation of coordinate noise
P_DROP = 0.2        # chance to drop one end node
MAX_INSERTS = 3     # stroke midpoints inserted: uniform in 0..MAX_INSERTS
P_FLIP = 0.3        # chance to flip one node pair (add or remove a stroke)


def distort(rng: np.random.Generator, letter: str):
    """One distorted drawing of `letter` as (coordinates, strokes)."""
    coords = [np.array(p, dtype=float) for p in PROTOTYPES[letter][0]]
    strokes = {tuple(sorted(e)) for e in PROTOTYPES[letter][1]}
    if len(coords) > 2 and rng.random() < P_DROP:
        degree = {i: sum(i in e for e in strokes) for i in range(len(coords))}
        ends = [i for i, d in degree.items() if d <= 1]
        if ends:
            gone = ends[int(rng.integers(len(ends)))]
            keep = [i for i in range(len(coords)) if i != gone]
            index = {old: new for new, old in enumerate(keep)}
            coords = [coords[i] for i in keep]
            strokes = {(index[i], index[j]) for i, j in strokes if gone not in (i, j)}
    for _ in range(int(rng.integers(MAX_INSERTS + 1))):
        if not strokes:
            break
        i, j = sorted(strokes)[int(rng.integers(len(strokes)))]
        mid = len(coords)
        coords.append((coords[i] + coords[j]) / 2.0)
        strokes -= {(i, j)}
        strokes |= {(i, mid), (j, mid)}
    if rng.random() < P_FLIP:
        i, j = sorted(int(v) for v in rng.choice(len(coords), size=2, replace=False))
        strokes ^= {(i, j)}
    coords = [c + rng.normal(0.0, JITTER, size=2) for c in coords]
    order = rng.permutation(len(coords))
    position = {int(old): new for new, old in enumerate(order)}
    coords = [coords[int(old)] for old in order]
    strokes = sorted(tuple(sorted((position[i], position[j]))) for i, j in strokes)
    return coords, strokes


def gxl_text(graph_id: str, coords, strokes) -> str:
    lines = ['<?xml version="1.0" encoding="UTF-8"?>',
             f'<gxl><graph id="{graph_id}" edgeids="false" edgemode="undirected">']
    for k, (x, y) in enumerate(coords):
        lines.append(f'<node id="_{k}"><attr name="x"><float>{float(x):.4f}</float></attr>'
                     f'<attr name="y"><float>{float(y):.4f}</float></attr></node>')
    for i, j in strokes:
        lines.append(f'<edge from="_{i}" to="_{j}"/>')
    lines.append("</graph></gxl>")
    return "\n".join(lines) + "\n"


def write_collection(dirpath, seed: int, per_class) -> None:
    """Write `<split>.cxl` listings plus one GXL file per drawing.

    `per_class` maps a split name to the number of drawings of each letter.
    Listings are in class-major order, as in the original collection.
    """
    rng = np.random.default_rng(seed)
    os.makedirs(dirpath, exist_ok=True)
    for split, count in per_class.items():
        entries = []
        for letter in PROTOTYPES:
            for k in range(count):
                name = f"{letter}_{split}_{k:03d}.gxl"
                with open(os.path.join(dirpath, name), "w", encoding="utf-8") as fh:
                    fh.write(gxl_text(name[:-4], *distort(rng, letter)))
                entries.append(f'<print file="{name}" class="{letter}"/>')
        with open(os.path.join(dirpath, f"{split}.cxl"), "w", encoding="utf-8") as fh:
            fh.write('<?xml version="1.0" encoding="UTF-8"?>\n<GraphCollection>\n'
                     f'<fingerprints count="{len(entries)}">\n'
                     + "\n".join(entries) + "\n</fingerprints>\n</GraphCollection>\n")
