"""Raster overlays in plain binary PPM (no codec dependencies).

Two overlay styles: per-slice contact views marking tumor, vessel, contact
pixels and the vessel centroid, and uncertainty heat maps on the fixed
0-0.5 scale with standard deviations below 0.01 rendered as background.

Contact views cost what they draw, not the slice area. ``contact_overlay``
reads the voxel index of the tumor, the pancreas and each vessel from the
volume (``MaskVolume.voxels``), never a grid, so a volume read from a file,
which holds only those indices, is painted without building one. It
splits each index at the slice starts (``searchsorted``) into one view
per slice of its in-slice indices, and paints every image of a vessel
on one reused canvas: before an image, only the pixels the previous
image painted are set back to zero. The contact pixels come from the
component table, flat voxel indices too, and are painted the same way,
as their remainder modulo the slice size. The directory is made once,
before the first image; ``write_ppm`` expects it to exist.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from .volume import CHANNEL_NAMES, ChannelId, MaskVolume

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
    """Write an (H, W, 3) image as binary PPM into a directory that exists."""
    rgb = np.ascontiguousarray(rgb, dtype=np.uint8)
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise ValueError("expected an (H, W, 3) uint8 image")
    header = f"P6\n{rgb.shape[1]} {rgb.shape[0]}\n255\n".encode("ascii")
    _overwrite(path, header, rgb)


def _by_slice(masks: MaskVolume, cid: ChannelId) -> list[np.ndarray]:
    """Flat in-slice indices of a channel's set voxels, one view per slice, indexed by z."""
    depth, h, w = masks.dims
    voxels = masks.voxels(cid)
    return np.split(voxels % (h * w), np.searchsorted(voxels, np.arange(1, depth) * (h * w)))


_CROSS = ((0, 0), (-1, 0), (1, 0), (0, -1), (0, 1))


def contact_overlay(masks: MaskVolume, reports, directory, scan_id: str) -> None:
    """Write an RGB view of every contacted slice of every vessel in ``reports``.

    ``reports`` are the InvolvementReports of these masks; contact pixels
    and centroids are painted from their component tables. The image of
    vessel V on slice z goes to ``directory/{scan_id}_{V}_z{z:03d}.ppm``.
    Paint order, later colors winning: pancreas, vessel, tumor, tumor and
    vessel overlap, then per contacted component its contact pixels and the
    cross on its rounded centroid, clipped to the slice.
    """
    contacted = [r for r in reports.values() if r.present]
    if not contacted:
        return
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    _, h, w = masks.dims
    tumor = _by_slice(masks, ChannelId.TUMOR)
    pancreas = _by_slice(masks, ChannelId.PANCREAS) if masks.has_channel(ChannelId.PANCREAS) else None
    for report in contacted:
        vessel = _by_slice(masks, report.vessel)
        table = report.table
        rgb = np.zeros((h, w, 3), dtype=np.uint8)
        flat = rgb.reshape(h * w, 3)
        painted = []  # contact pixels are vessel pixels, so these cover every painted pixel
        for s in report.slices:
            if not s.present:
                continue
            for idx in painted:
                flat[idx] = 0
            t, v = tumor[s.z], vessel[s.z]
            painted = [t, v]
            if pancreas is not None:
                painted.append(pancreas[s.z])
                flat[pancreas[s.z]] = COLOR_PANCREAS
            flat[v] = COLOR_VESSEL
            flat[t] = COLOR_TUMOR
            flat[np.intersect1d(t, v, assume_unique=True)] = COLOR_OVERLAP
            lo, hi = np.searchsorted(table.z, (s.z, s.z + 1))
            for k in lo + np.flatnonzero(np.diff(table.contact_start[lo:hi + 1])):  # those with contact
                contact = table.contact[table.contact_start[k]:table.contact_start[k + 1]]
                flat[contact % (h * w)] = COLOR_CONTACT
                cr, cc = (int(round(x)) for x in table.centroid[k].tolist())
                cross = [(cr + dr) * w + cc + dc for dr, dc in _CROSS
                         if 0 <= cr + dr < h and 0 <= cc + dc < w]
                flat[cross] = COLOR_CENTROID
                painted.append(cross)
            write_ppm(out / f"{scan_id}_{CHANNEL_NAMES[report.vessel]}_z{s.z:03d}.ppm", rgb)


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
