"""Raster overlays in plain binary PPM (no codec dependencies).

Two overlay styles: per-slice contact views marking tumor, vessel, contact
pixels and the vessel centroid, and uncertainty heat maps on the fixed
0-0.5 scale with standard deviations below 0.01 rendered as background.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from .involvement import ComponentTable
from .volume import ChannelId, MaskVolume

HEAT_SCALE = 0.5
HEAT_CLIP = 0.01

COLOR_PANCREAS = (70, 70, 70)
COLOR_VESSEL = (70, 120, 220)
COLOR_TUMOR = (70, 170, 70)
COLOR_OVERLAP = (120, 170, 120)
COLOR_CONTACT = (180, 60, 200)  # purple contact pixels
COLOR_CENTROID = (255, 220, 40)


def _overwrite(path: Path, *chunks) -> None:
    """Write ``chunks`` (bytes or C-contiguous arrays) to ``path`` in place.

    An existing file is overwritten and then cut to the written length,
    never truncated to zero first. ext4 starts writeback when a file that
    was truncated to zero is closed, and truncating pages still under
    writeback waits for that I/O, so re-running into an overlay directory
    written moments before paid disk time on every image. Overwriting in
    place also reuses the file's cached pages.
    """
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as f:
        for chunk in chunks:
            f.write(chunk)
        f.truncate()


def write_ppm(path, rgb: np.ndarray) -> None:
    rgb = np.ascontiguousarray(rgb, dtype=np.uint8)
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise ValueError("expected an (H, W, 3) uint8 image")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    header = f"P6\n{rgb.shape[1]} {rgb.shape[0]}\n255\n".encode("ascii")
    _overwrite(path, header, rgb)


def contact_overlay(masks: MaskVolume, vessel: ChannelId, z: int, table: ComponentTable) -> np.ndarray:
    """RGB view of one slice with contact pixels and centroids marked.

    ``table`` is the component table of the vessel's InvolvementReport on
    these masks; contact pixels and centroids are painted from it.
    """
    tumor = masks.channel(ChannelId.TUMOR)[z] > 0
    vessel_grid = masks.channel(vessel)[z] > 0
    rgb = np.zeros(tumor.shape + (3,), dtype=np.uint8)
    if masks.has_channel(ChannelId.PANCREAS):
        rgb[masks.channel(ChannelId.PANCREAS)[z] > 0] = COLOR_PANCREAS
    rgb[vessel_grid] = COLOR_VESSEL
    rgb[tumor] = COLOR_TUMOR
    rgb[tumor & vessel_grid] = COLOR_OVERLAP
    lo, hi = np.searchsorted(table.z, (z, z + 1))
    for k in range(lo, hi):
        contact = table.contact[table.contact_start[k]:table.contact_start[k + 1]]
        if not len(contact):
            continue
        rgb[contact[:, 1], contact[:, 2]] = COLOR_CONTACT
        cr, cc = (int(round(v)) for v in table.centroid[k].tolist())
        for dr, dc in ((0, 0), (-1, 0), (1, 0), (0, -1), (0, 1)):
            r, c = cr + dr, cc + dc
            if 0 <= r < rgb.shape[0] and 0 <= c < rgb.shape[1]:
                rgb[r, c] = COLOR_CENTROID
    return rgb


def heatmap_overlay(mean2d: np.ndarray, std2d: np.ndarray) -> np.ndarray:
    """Heat map of a std field over a grayscale mean, 0-0.5 scale.

    Values below 0.01 show the background only, keeping the map readable.
    """
    mean = np.clip(np.asarray(mean2d, dtype=np.float64), 0.0, 1.0)
    std = np.asarray(std2d, dtype=np.float64)
    if mean.shape != std.shape:
        raise ValueError("mean/std slice shape mismatch")
    gray = (mean * 255.0).astype(np.uint8)
    rgb = np.stack([gray, gray, gray], axis=-1)
    hot = std >= HEAT_CLIP
    t = np.clip(std / HEAT_SCALE, 0.0, 1.0)[hot]
    rgb[hot, 0] = (255.0 * t).astype(np.uint8)
    rgb[hot, 1] = (40.0 * (1.0 - t)).astype(np.uint8)
    rgb[hot, 2] = (255.0 * (1.0 - t)).astype(np.uint8)
    return rgb
