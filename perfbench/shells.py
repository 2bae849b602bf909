"""Seeded, congruent relabellings of catalog shells.

The program under test only ever sees the generated documents.  Each one is
the catalog shell moved by a proper rotation and a uniform scale, with its
vertices renumbered, its faces shuffled and every face cycle started at a
random position.  Orientation is kept (no reflection, no reversed cycles), so
every count, class and ranking the program computes is the same for every
seed, while the search visits nodes in a different order.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class GeneratedShell:
    """A relabelled shell plus the maps back to the catalog labelling.

    `vertex_map[i]` is the new index of catalog vertex i and `face_order[k]`
    the catalog index of new face k; `hole` is the new index of the catalog
    face to remove, if any.
    """

    name: str
    vertices: np.ndarray
    faces: tuple[tuple[int, ...], ...]
    vertex_map: np.ndarray
    face_order: np.ndarray
    rotation: np.ndarray
    scale: float
    hole: Optional[int]

    def document(self) -> dict:
        return {
            "name": self.name,
            "vertices": [[float(c) for c in row] for row in self.vertices],
            "faces": [list(f) for f in self.faces],
        }

    def write(self, path: Path) -> None:
        path.write_text(json.dumps(self.document()) + "\n", encoding="utf-8")


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniformly random proper rotation, from a random unit quaternion."""
    w, x, y, z = rng.normal(size=4)
    n = np.sqrt(w * w + x * x + y * y + z * z)
    w, x, y, z = w / n, x / n, y / n, z / n
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def relabel(
    name: str,
    vertices: np.ndarray,
    faces: tuple[tuple[int, ...], ...],
    seed: int,
    hole: Optional[int] = None,
) -> GeneratedShell:
    """Congruent copy of a shell, fully determined by (seed, name)."""
    rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
    n = len(vertices)
    vertex_map = rng.permutation(n)
    rotation = random_rotation(rng)
    scale = float(rng.uniform(0.5, 2.0))
    moved = (np.asarray(vertices, dtype=float) * scale) @ rotation.T
    new_vertices = np.empty_like(moved)
    new_vertices[vertex_map] = moved
    face_order = rng.permutation(len(faces))
    new_faces = []
    for old in face_order:
        cycle = [int(vertex_map[v]) for v in faces[old]]
        start = int(rng.integers(len(cycle)))
        new_faces.append(tuple(cycle[start:] + cycle[:start]))
    new_hole = None if hole is None else int(np.flatnonzero(face_order == hole)[0])
    return GeneratedShell(
        name=f"{name}-seed{seed}",
        vertices=new_vertices,
        faces=tuple(new_faces),
        vertex_map=vertex_map,
        face_order=face_order,
        rotation=rotation,
        scale=scale,
        hole=new_hole,
    )
