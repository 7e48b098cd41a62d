"""Volumetric data model and canonical file format.

Volumes live on disk as a JSON header plus a sibling raw payload: the header
at ``<stem>.json`` describes geometry and dtype, the voxel data sits in
``<stem>.raw`` as a little-endian dump. Header keys (the on-disk contract):

``dims``
    ``[Z, H, W]`` voxel counts, positive integers.
``spacing_mm``
    ``[z, y, x]`` voxel edge lengths in millimeters, positive and finite.
``dtype``
    ``"u8"`` for binary masks and layered label grids, ``"f32"`` for
    probabilities.
``order``
    always ``"channel-major,z,y,x"``.
``channels``
    ordered list of distinct channel names for mask/probability volumes;
    omitted or ``null`` for a single-grid layered label volume.

``open_payload`` parses and checks a header and checks its payload's
size without reading a voxel; ``read_volume`` and the fold streams take
the ``Payload`` it returns, so a caller that judges a header first
parses it once. ``Payload.kind`` is the one rule that names a header's
volume kind (``f32`` probabilities, no channel list layered labels,
anything else masks); ``read_volume`` and the CLI's kind check both read
it. Every input payload has one reader, ``_parts``: it reads at most 1
MiB of one grid at a time into one reused buffer, so a part never spans
two grids. The one other read of a payload is ``cli._heat_maps``: it
reads back the ``mean.raw`` and ``std.raw`` that ``uncertainty`` has
just committed, with ``np.fromfile`` at a channel offset it computes,
one grid per graded channel. It is kept because it reads only the
command's own output, and ``_parts`` would read every channel.
``prob_chunks`` and ``_read_set_voxels`` (below) apply the value rules
to its parts: the first clamps each probability part into [0, 1] with a
0.001 tolerance; after the last part, a value further out, or a NaN,
anywhere in the payload is rejected as corrupt, and the error names the
header and the whole payload's min and max. ``read_volume`` copies those
parts into one array, and ``uncertainty`` streams fold payloads through
``prob_chunks``, so it never holds a fold whole. ``write_header`` is the
one writer of a header: ``write_outputs`` (and ``write_volume`` through
it) writes one and its payload, and the ``uncertainty`` command writes
one for each payload it streams out.

Every output goes through ``staged``, the one commit path: volume headers
and payloads, documents, ``phantom`` scenes and ``uncertainty``'s outputs
are written in full under ``.tmp`` names beside their final ones, then put
in place, each old file removed before the rename, because ext4 forces
the new file to disk on the spot when a rename replaces a file, or when a
file truncated to zero is closed. A failure removes the ``.tmp`` files and
the directories the write made. Overlay images are written in place
instead (``overlay._overwrite``), which meets neither pattern.

A header and a constructor judge a volume's geometry with the same code:
``_check_dims`` (three positive integers, numpy integers taken as Python
ints, bools refused, one grid addressable), ``Spacing`` (three positive
finite reals, numpy scalars taken as their Python value, bools refused,
each stored as a float) and ``_check_channels`` (no channel twice).
``_parse_header`` runs all three, and ``_Immutable.__init__`` runs the
first two, refusing a spacing that is not a ``Spacing``, for every volume
whichever constructor builds it. So geometries compare as values, and a
volume a constructor accepts is one a header can describe.
``check_agree`` is the one rule for inputs that a command reads
together, volumes or headers: it compares their channels, dims and
spacing as values and names both inputs of the first mismatch.

A refusal about one file names that file once, where the fault is found,
not inside each rule: ``_parse_header`` gives its reasons without a path
and ``open_payload`` puts ``{header}: `` before them, and
``_read_set_voxels`` puts it before its voxel-value refusal. A
constructor's refusal has no file and names none.

Every volume's voxels are checked once, where they enter. A public
constructor checks what its caller hands in: the shape, then its value
rule (``_small_ints`` for mask voxels and layered labels, [0, 1] for
probabilities). What the program has already read or derived (a read,
``from_voxels``, ``decode_layered``, ``encode_layered``) is set as given
by the one trusted constructor, ``_Immutable._of``. Either way a volume
is immutable and its arrays read-only; the mask grids built on the way
to a grade are bool, 0 and 1 by type. ``find_channel`` is the one channel
lookup: it alone raises MissingChannelError.

Segmented structures fill a small share of a CT grid, so a mask volume
is held as a voxel index: ``MaskVolume.voxels(cid)`` is the sorted flat
indices of a channel's set voxels, read-only. ``_read_set_voxels``
serves both mask payload kinds: each ``_parts`` part of every channel,
or of the layered label grid, is value-checked and indexed
(``set_voxels`` of the part plus its offset). ``read_volume(path,
channels)`` indexes only the listed channels of a mask payload, yet
still rejects a voxel outside {0, 1} in any channel. A layered volume
read from a file holds its labelled voxels and their labels, and
``decode_layered(lv)`` decodes the six standard channels from those
pairs; decoding fewer saved too little to keep a channel list (under 0.1
ms of a CT-sized scan's 1.2 ms decode). So a read never holds a grid: a
volume read or decoded this way builds one only on request, through
``channel`` or ``data``. A mask volume built from an array keeps it and
indexes a channel on first use, then caches the index.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import sys
from dataclasses import dataclass
from enum import IntEnum
from functools import partial, reduce
from pathlib import Path
from typing import Mapping, Sequence, Union

import numpy as np

HEADER_ORDER = "channel-major,z,y,x"
PROB_INGEST_TOL = 1e-3
_MASK_VALUES = "mask voxels must be 0 or 1"

# Header dtype -> little-endian payload dtype.
_FILE_DTYPES = {"u8": "<u1", "f32": "<f4"}
# The most bytes of one grid that ``_parts`` reads at a time.
_STREAM_BYTES = 1 << 20
# float32 voxels per probability part.
PROB_CHUNK = _STREAM_BYTES // 4


class VolumeFormatError(ValueError):
    """Raised for malformed headers, payload mismatches or invalid voxel data."""


class MissingChannelError(ValueError):
    """Raised when an operation needs a channel the volume does not carry."""


class ChannelId(IntEnum):
    """Stable channel numbering; 6 and 7 are the derived overlap channels."""

    PANCREAS = 0
    COMMON_BILE_DUCT = 1
    PANCREATIC_DUCT = 2
    ARTERY = 3
    VEIN = 4
    TUMOR = 5
    TUMOR_ARTERY = 6
    TUMOR_VEIN = 7


# The names headers and documents use: renaming a member renames its channel in every file.
CHANNEL_NAMES = {cid: cid.name.lower() for cid in ChannelId}
NAME_TO_CHANNEL = {name: cid for cid, name in CHANNEL_NAMES.items()}

STANDARD_CHANNELS = (
    ChannelId.PANCREAS,
    ChannelId.COMMON_BILE_DUCT,
    ChannelId.PANCREATIC_DUCT,
    ChannelId.ARTERY,
    ChannelId.VEIN,
    ChannelId.TUMOR,
)

# Label value -> channels it sets when decoding a layered grid. 7/8 mark the
# tumor-artery and tumor-vein overlaps and set both member channels.
LAYERED_DECODE = {
    1: (ChannelId.PANCREAS,),
    2: (ChannelId.COMMON_BILE_DUCT,),
    3: (ChannelId.PANCREATIC_DUCT,),
    4: (ChannelId.ARTERY,),
    5: (ChannelId.VEIN,),
    6: (ChannelId.TUMOR,),
    7: (ChannelId.ARTERY, ChannelId.TUMOR),
    8: (ChannelId.VEIN, ChannelId.TUMOR),
}
MAX_LAYERED_LABEL = max(LAYERED_DECODE)
_LABEL_VALUES = f"layered labels must lie in 0..{MAX_LAYERED_LABEL}"
# Channel -> the labels that set it.
_DECODE_LABELS = {
    cid: tuple(label for label, targets in LAYERED_DECODE.items() if cid in targets)
    for cid in STANDARD_CHANNELS
}


@dataclass(frozen=True)
class Spacing:
    """Voxel edge lengths in millimeters along z, y, x."""

    z_mm: float
    y_mm: float
    x_mm: float

    def __post_init__(self):
        """The one spacing rule: each value a positive finite real, stored as a float.

        A numpy scalar is taken as its Python value (``.item()``, so a
        float32 is compared without a cast), and a bool is refused.
        """
        for name in ("z_mm", "y_mm", "x_mm"):
            v = getattr(self, name)
            mm = v.item() if isinstance(v, np.generic) else v
            if isinstance(mm, bool) or not (isinstance(mm, (int, float)) and 0 < mm <= sys.float_info.max):
                raise ValueError(f"spacing {name} must be a positive finite number, got {v!r}")
            object.__setattr__(self, name, float(mm))

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.z_mm, self.y_mm, self.x_mm)


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _small_ints(arr: np.ndarray, top: int, message: str) -> np.ndarray:
    """``arr`` as uint8 with values in 0..top (top >= 1), else VolumeFormatError(message).

    A bool array is made read-only and viewed, not scanned; uint8 is kept
    after one ``max`` pass; any other dtype is checked with ``isin`` and cast.
    """
    if arr.dtype == bool:
        return _freeze(arr).view(np.uint8)
    if arr.dtype != np.uint8:
        if not np.isin(arr, np.arange(top + 1)).all():
            raise VolumeFormatError(message)
        return arr.astype(np.uint8)
    if arr.size and arr.max() > top:
        raise VolumeFormatError(message)
    return arr


def set_voxels(grid: np.ndarray) -> np.ndarray:
    """Sorted flat indices of the nonzero voxels of a uint8 or bool grid.

    Equal to ``np.flatnonzero(grid != 0)``, but faster on a sparse grid:
    the grid is scanned as uint64 words, one eighth as many entries, and
    only the nonzero words are split into their eight bytes. A size that
    is not a multiple of eight leaves a tail of at most seven bytes,
    compared one by one.
    """
    flat = np.ascontiguousarray(grid).reshape(-1)
    if flat.dtype == bool:
        flat = flat.view(np.uint8)
    if flat.dtype != np.uint8:
        raise TypeError(f"set_voxels needs a uint8 or bool grid, got {flat.dtype}")
    n = flat.size - flat.size % 8
    # numpy finds the nonzero entries of a bool array far faster than of
    # an integer one, so each stage compares first
    words = np.flatnonzero(flat[:n].view(np.uint64) != 0)
    row, byte = np.nonzero(flat[:n].reshape(-1, 8)[words] != 0)
    tail = np.flatnonzero(flat[n:] != 0)
    return np.concatenate((words[row] * 8 + byte, tail + n))


def _check_channels(channels: Sequence[ChannelId]) -> tuple[ChannelId, ...]:
    """The one channel-list rule of headers and constructors: distinct channels."""
    channels = tuple(ChannelId(c) for c in channels)
    if len(set(channels)) != len(channels):
        raise VolumeFormatError(f"duplicate channels in {[CHANNEL_NAMES[c] for c in channels]}")
    return channels


def _check_dims(dims, itemsize: int = 1) -> tuple[int, int, int]:
    """The one dims rule of headers and constructors: ``dims`` as three Python ints.

    Each entry must be a positive integer; a numpy integer is taken as its
    value and a bool is refused. One grid of ``itemsize``-byte voxels must
    be addressable. Else VolumeFormatError names ``dims`` as given.
    """
    values = dims.tolist() if isinstance(dims, np.ndarray) else dims
    if not (isinstance(values, (list, tuple)) and len(values) == 3 and all(
            isinstance(v, (int, np.integer)) and not isinstance(v, bool) and v > 0 for v in values)):
        raise VolumeFormatError(f"bad dims {dims!r}: need three positive integers")
    if math.prod(map(int, values)) * itemsize > np.iinfo(np.intp).max:
        raise VolumeFormatError(f"bad dims {dims!r}: one grid exceeds the addressable size")
    return tuple(map(int, values))


class _Immutable:
    """Attributes are set once, while the object is built.

    ``__init__`` checks ``dims`` (``_check_dims``) and that ``spacing`` is
    a ``Spacing``, for every volume: a public constructor calls it after
    its checks of the voxels, and ``_of``, the one constructor for values
    the program has already read or derived, calls it too and sets the
    other attributes as given.
    """

    def __init__(self, *, dims, spacing, **values):
        if not isinstance(spacing, Spacing):
            raise TypeError(f"spacing must be a Spacing, got {type(spacing).__name__}")
        vars(self).update(values, dims=_check_dims(dims), spacing=spacing)

    @classmethod
    def _of(cls, **values):
        obj = cls.__new__(cls)
        _Immutable.__init__(obj, **values)
        return obj

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


def _checked_stack(data, channels: tuple[ChannelId, ...], kind: str, dtype=None) -> np.ndarray:
    """``data`` as a contiguous (C, Z, H, W) array with one grid per channel."""
    stack = np.ascontiguousarray(data, dtype=dtype)
    if stack.ndim != 4:
        raise ValueError(f"{kind} data must be 4-D (C,Z,H,W), got shape {stack.shape}")
    if stack.shape[0] != len(channels):
        raise ValueError(
            f"channel count mismatch: data has {stack.shape[0]}, channel list has {len(channels)}"
        )
    return stack


def find_channel(channels: Sequence[ChannelId], cid: ChannelId) -> int:
    """The place of ``cid`` in ``channels``; MissingChannelError names a missing channel."""
    try:
        return channels.index(ChannelId(cid))
    except ValueError:
        raise MissingChannelError(
            f"volume has no {CHANNEL_NAMES[ChannelId(cid)]!r} channel"
        ) from None


class _ChannelVolume(_Immutable):
    """Channels of one (Z, H, W) geometry: channel lookup."""

    def channel_index(self, cid: ChannelId) -> int:
        return find_channel(self.channels, cid)

    def has_channel(self, cid: ChannelId) -> bool:
        return ChannelId(cid) in self.channels


def _grid_of(dims: tuple[int, ...], voxels: np.ndarray, values=1) -> np.ndarray:
    """A read-only uint8 grid holding ``values`` at the flat indices ``voxels``, 0 elsewhere."""
    grid = np.zeros(dims, dtype=np.uint8)
    grid.reshape(-1)[voxels] = values
    return _freeze(grid)


class MaskVolume(_ChannelVolume):
    """Multi-channel binary volume; channels may overlap voxel-wise.

    Each channel is a (Z, H, W) grid of 0 and 1, dtype uint8, and
    ``voxels(cid)`` is its voxel index. A volume built from an array keeps
    it, read-only (a bool stack is viewed), and indexes a channel on first
    use. A volume built by ``from_voxels`` (a read, ``decode_layered``, the
    critical filter) holds only the indices; its ``channel`` and ``data``
    build read-only grids on each request. The kernels that filter, grade,
    paint and score a volume read its indices alone, never a grid.
    """

    def __init__(self, data, channels: Sequence[ChannelId], spacing: Spacing):
        channels = _check_channels(channels)
        stack = _small_ints(_checked_stack(data, channels, "mask"), 1, _MASK_VALUES)
        super().__init__(channels=channels, spacing=spacing, dims=stack.shape[1:],
                         _stack=_freeze(stack), _voxels={})

    @classmethod
    def from_voxels(cls, voxels: Mapping[ChannelId, np.ndarray], dims: tuple[int, int, int],
                    spacing: Spacing) -> MaskVolume:
        """The volume of ``dims`` whose channels, in ``voxels`` order, set those flat indices.

        ``dims`` (a sequence or a 1-D integer array) and ``spacing`` pass
        the rules a header passes. Each index must be sorted, unique and
        inside the grid; it is taken as given (not checked) and made
        read-only, so an index already read-only is shared, not copied.
        """
        return cls._of(channels=_check_channels(voxels), spacing=spacing, dims=dims,
                       _stack=None, _voxels={ChannelId(c): _freeze(v) for c, v in voxels.items()})

    @property
    def data(self) -> np.ndarray:
        """The (C, Z, H, W) stack; built, read-only, on each access if the volume holds indices."""
        if self._stack is not None:
            return self._stack
        stack = np.zeros((len(self.channels),) + self.dims, dtype=np.uint8)
        for grid, cid in zip(stack, self.channels):
            grid.reshape(-1)[self._voxels[cid]] = 1
        return _freeze(stack)

    def channel(self, cid: ChannelId) -> np.ndarray:
        i = self.channel_index(cid)
        if self._stack is not None:
            return self._stack[i]
        return _grid_of(self.dims, self._voxels[self.channels[i]])

    def voxels(self, cid: ChannelId) -> np.ndarray:
        """Sorted flat indices of the set voxels of a channel, read-only and cached."""
        cid = ChannelId(cid)
        if cid not in self._voxels:
            self._voxels[cid] = _freeze(set_voxels(self.channel(cid)))
        return self._voxels[cid]


class ProbVolume(_ChannelVolume):
    """Multi-channel probability volume, same geometry rules as MaskVolume.

    ``data`` is the (C, Z, H, W) float32 stack, read-only, values in [0, 1].
    """

    def __init__(self, data, channels: Sequence[ChannelId], spacing: Spacing):
        channels = _check_channels(channels)
        stack = _checked_stack(data, channels, "probability", np.float32)
        # NaN fails both comparisons
        if stack.size and not (stack.min() >= 0.0 and stack.max() <= 1.0):
            raise VolumeFormatError("probabilities must lie in [0, 1]")
        super().__init__(channels=channels, spacing=spacing, dims=stack.shape[1:],
                         data=_freeze(stack))

    def channel(self, cid: ChannelId) -> np.ndarray:
        return self.data[self.channel_index(cid)]


class LayeredLabelVolume(_Immutable):
    """Single-grid volume with layered labels 0..8 (0 = background).

    The volume holds only its labelled voxels: their sorted flat indices
    and their labels. Built from an array, it checks the values (any other
    value is rejected) and indexes them at once; the array is neither kept
    nor made read-only. ``data`` builds the grid, read-only, on each
    access. Immutable.
    """

    def __init__(self, data, spacing: Spacing):
        arr = np.ascontiguousarray(data)
        if arr.ndim != 3:
            raise ValueError(f"layered label data must be 3-D (Z,H,W), got shape {arr.shape}")
        # a view, so that _small_ints freezes no array of the caller's
        arr = _small_ints(arr.view(), MAX_LAYERED_LABEL, _LABEL_VALUES)
        voxels = set_voxels(arr)
        super().__init__(_labelled=(_freeze(voxels), _freeze(arr.reshape(-1)[voxels])),
                         dims=arr.shape, spacing=spacing)

    @property
    def data(self) -> np.ndarray:
        """The (Z, H, W) label grid, built read-only on each access."""
        return _grid_of(self.dims, *self._labelled)

    def labelled(self) -> tuple[np.ndarray, np.ndarray]:
        """The sorted flat indices of the labelled (nonzero) voxels, and their labels."""
        return self._labelled


Volume = Union[MaskVolume, ProbVolume, LayeredLabelVolume]


def check_agree(named: Sequence[tuple[str, object]], channels: bool = True) -> None:
    """The one rule for inputs read together: each has the first one's channels, dims and spacing.

    ``named`` holds (name, volume or ``Payload``) pairs, so headers can be
    judged before a voxel is read; a name may repeat. Channels (only with
    ``channels``), then dims and spacing, are compared as values: dims are
    Python ints and a ``Spacing`` holds floats, whichever side built them.
    The first input that differs from the first raises ValueError naming
    both inputs and both values.
    """
    (head, first), *rest = named
    for name, v in rest:
        if channels and v.channels != first.channels:
            what, texts = "channel mismatch", [[CHANNEL_NAMES[c] for c in u.channels] for u in (first, v)]
        elif (v.dims, v.spacing) != (first.dims, first.spacing):
            what, texts = "geometry mismatch", [f"{u.dims} at {u.spacing.as_tuple()} mm" for u in (first, v)]
        else:
            continue
        raise ValueError(f"{what}: {head} {texts[0]}, {name} {texts[1]}")


def _raw_path(header_path: Path) -> Path:
    return header_path.with_suffix(".raw")


def _parse_header(header):
    """Validate a parsed header; returns (dims, spacing, dtype, channels).

    Every malformed field raises VolumeFormatError naming the field, not
    the file: ``open_payload`` names it.
    """
    if not isinstance(header, dict):
        raise VolumeFormatError("header is not a JSON object")
    for key in ("dims", "spacing_mm", "dtype", "order"):
        if key not in header:
            raise VolumeFormatError(f"header missing key {key!r}")
    if header["order"] != HEADER_ORDER:
        raise VolumeFormatError(f"unsupported order {header['order']!r}")
    dtype = header["dtype"]
    if dtype not in ("u8", "f32"):
        raise VolumeFormatError(f"unknown dtype {dtype!r}")
    dims = _check_dims(header["dims"], np.dtype(_FILE_DTYPES[dtype]).itemsize)
    try:  # TypeError: not a list of three
        spacing = Spacing(*header["spacing_mm"])
    except (TypeError, ValueError):
        raise VolumeFormatError(
            f"bad spacing_mm {header['spacing_mm']!r}: need three positive finite numbers") from None
    names = header.get("channels")
    if names is None:
        if dtype == "f32":
            raise VolumeFormatError("f32 volumes must declare channels")
        return dims, spacing, dtype, None
    if not (isinstance(names, list) and all(isinstance(n, str) for n in names)):
        raise VolumeFormatError(f"bad channels {names!r}: need a list of channel names")
    unknown = [n for n in names if n not in NAME_TO_CHANNEL]
    if unknown:
        raise VolumeFormatError(f"unknown channel name {unknown[0]!r}")
    return dims, spacing, dtype, _check_channels([NAME_TO_CHANNEL[n] for n in names])


@dataclass(frozen=True)
class Payload:
    """A checked header and its raw payload, whose size matches it; no voxel read yet.

    ``path`` is the header, ``raw`` the payload next to it. No file stays
    open: readers open ``raw`` for one pass. ``shape`` is (C, Z, H, W),
    with C = 1 for a layered label grid.
    """

    path: Path
    dims: tuple[int, int, int]
    spacing: Spacing
    dtype: str
    channels: tuple[ChannelId, ...] | None

    @property
    def raw(self) -> Path:
        return _raw_path(self.path)

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return (1 if self.channels is None else len(self.channels),) + self.dims

    @property
    def kind(self) -> str:
        """The one kind rule: ``f32`` is probabilities, no channel list layered labels, else masks.

        So a ``"channels": []`` header is a mask volume of no channel.
        """
        if self.dtype == "f32":
            return "probability"
        return "layered-label" if self.channels is None else "mask"


def open_payload(path) -> Payload:
    """Parse and check a volume header, and check its payload's size, without reading voxels.

    Every refusal names the header, a fault in one of its fields as ``{path}: reason``.
    """
    path = Path(path)
    try:
        payload = Payload(path, *_parse_header(json.loads(path.read_text())))
    except FileNotFoundError:
        raise VolumeFormatError(f"header not found: {path}") from None
    except VolumeFormatError as exc:  # a bad field, named by _parse_header
        raise VolumeFormatError(f"{path}: {exc}") from None
    # bad JSON or UTF-8, an int past the digit limit, or arrays or objects nested too deep
    except (ValueError, RecursionError) as exc:
        raise VolumeFormatError(f"garbled header {path}: {exc}") from None
    try:
        size = payload.raw.stat().st_size
    except FileNotFoundError:
        raise VolumeFormatError(f"raw payload not found: {payload.raw}") from None
    expected = math.prod(payload.shape) * np.dtype(_FILE_DTYPES[payload.dtype]).itemsize
    if size != expected:
        raise VolumeFormatError(
            f"{path}: payload size mismatch: expected {expected} bytes, got {size}"
        )
    return payload


def _parts(payload: Payload):
    """Yield ``(grid, offset, part)`` over a payload's voxels, in file order.

    A part is a run of at most ``_STREAM_BYTES`` of one grid, never of two,
    read straight into one reused buffer of the file dtype, so it holds
    its values only until the next is read; ``offset`` is its first
    voxel's flat index in grid number ``grid``. A short read raises
    VolumeFormatError. The file is open from the first part until the
    generator finishes or is closed.
    """
    n = math.prod(payload.dims)
    dtype = np.dtype(_FILE_DTYPES[payload.dtype])
    buffer = np.empty(min(n, _STREAM_BYTES // dtype.itemsize), dtype)
    with open(payload.raw, "rb") as f:
        for grid in range(payload.shape[0]):
            for lo in range(0, n, buffer.size):
                part = buffer[:min(buffer.size, n - lo)]
                if f.readinto(part) != part.nbytes:
                    raise VolumeFormatError(f"payload {payload.raw} shrank while being read")
                yield grid, lo, part


def _read_set_voxels(payload: Payload, kept: Sequence[bool], top: int,
                     message: str) -> list[tuple[np.ndarray, np.ndarray]]:
    """The set voxels of a u8 payload's kept grids, read part by part (``_parts``).

    Every part's values must lie in 0..top (``_small_ints``), else
    VolumeFormatError names the header and ``message``, a text built once
    per payload. For each grid whose flag in ``kept`` is set, the result
    holds, in file order, the sorted flat indices of its nonzero voxels,
    found part by part (``set_voxels`` of the part plus its offset), and
    their values.
    """
    found = {grid: [] for grid, keep in enumerate(kept) if keep}
    message = f"{payload.path}: {message}"
    for grid, lo, part in _parts(payload):
        _small_ints(part, top, message)
        if grid in found:
            at = set_voxels(part)
            found[grid].append((at + lo, part[at]))
    return [tuple(map(np.concatenate, zip(*pairs))) for pairs in found.values()]


def prob_chunks(payload: Payload):
    """Yield an f32 payload's voxels in order, clamped into [0, 1], one ``_parts`` part at a time.

    A part holds at most ``PROB_CHUNK`` voxels of one channel grid and
    only until the next is read. The running min and max of the raw parts,
    started at 0.0, are the whole payload's (a NaN propagates through
    both); after the last part a value below -0.001 or above 1.001, or a
    NaN, raises VolumeFormatError naming them. Each part is clamped before
    it is yielded. The payload is open from the first part until the
    generator finishes or is closed.
    """
    if payload.dtype != "f32":
        raise VolumeFormatError(f"{payload.path}: not a probability payload")
    lo = hi = np.float32(0.0)
    for _, _, part in _parts(payload):
        lo, hi = part.min(initial=lo), part.max(initial=hi)
        np.clip(part, 0.0, 1.0, out=part)
        yield part
    # + 0.0 prints a zero bound as 0.0 whichever zero the reduction order kept
    lo, hi = float(lo) + 0.0, float(hi) + 0.0
    # NaN fails both comparisons
    if not (lo >= -PROB_INGEST_TOL and hi <= 1.0 + PROB_INGEST_TOL):
        raise VolumeFormatError(
            f"{payload.path}: probability values non-finite or outside tolerated range: "
            f"min={lo}, max={hi}"
        )


def read_volume(path, channels: Sequence[ChannelId] | None = None) -> Volume:
    """Load a volume from its JSON header; the raw payload sits next to it.

    ``path`` may also be the ``Payload`` that ``open_payload`` returned, so
    a caller that has judged the header does not parse it again. The kind
    is the header's ``Payload.kind``.

    With ``channels``, a mask volume keeps only those of the listed
    channels that the file has, in file order; the others are still read
    and checked, but not kept. Mask and layered payloads are streamed by
    ``_read_set_voxels``, so the volume holds voxel indices, not grids.
    Probability payloads are read whole, each ``prob_chunks`` part copied
    into one array at a running offset.
    """
    payload = path if isinstance(path, Payload) else open_payload(path)
    names, dims, spacing = payload.channels, payload.dims, payload.spacing
    if payload.kind == "probability":
        flat, pos = np.empty(math.prod(payload.shape), np.float32), 0
        for part in prob_chunks(payload):
            flat[pos:pos + part.size] = part
            pos += part.size
        return ProbVolume._of(channels=names, spacing=spacing, dims=dims,
                              data=_freeze(flat.reshape(payload.shape)))
    if payload.kind == "layered-label":
        [labelled] = _read_set_voxels(payload, (True,), MAX_LAYERED_LABEL, _LABEL_VALUES)
        return LayeredLabelVolume._of(_labelled=tuple(map(_freeze, labelled)), dims=dims,
                                      spacing=spacing)
    wanted = names if channels is None else set(map(ChannelId, channels))
    found = _read_set_voxels(payload, [c in wanted for c in names], 1, _MASK_VALUES)
    kept = [c for c in names if c in wanted]
    return MaskVolume.from_voxels({c: v for c, (v, _) in zip(kept, found)}, dims, spacing)


def write_header(path, dims, spacing: Spacing, dtype: str, channels) -> None:
    """Write a volume header at ``path``; ``channels`` is None for layered labels.

    The payload is written separately, by ``write_outputs`` or by a caller
    that streams it. Both callers write the header to a ``staged`` path.
    """
    header = {
        "dims": list(dims),
        "spacing_mm": list(spacing.as_tuple()),
        "dtype": dtype,
        "order": HEADER_ORDER,
        "channels": None if channels is None else [CHANNEL_NAMES[c] for c in channels],
    }
    Path(path).write_text(json.dumps(header, indent=2) + "\n")


@contextlib.contextmanager
def staged(*finals):
    """Yield a ``.tmp`` path beside each of ``finals``; put them in place when the block returns.

    They are put in place in the given order: a file at the final path is
    removed, then the ``.tmp`` file renamed onto the free name, which keeps
    ext4's ``auto_da_alloc`` from forcing its writeback on the spot, as a
    rename over a file does. A directory at a final path is never removed.
    The directories above the finals missing when the block begins are
    recorded, not made. If the block or a put fails, every ``.tmp`` path
    and every recorded directory then empty is removed and the error is
    raised; the outputs not yet put in place keep their previous content.

    What this gives up: between a removal and its rename the final path is
    briefly absent, so a process killed there leaves that output missing,
    with its new content under the ``.tmp`` name. ext4's crash-ordering
    heuristic no longer covers the file either; nothing here calls fsync,
    so an output was never durable against a crash of the machine.
    """
    finals = [Path(f) for f in finals]
    tmps = [f.with_name(f.name + ".tmp") for f in finals]
    made = set()
    for final in finals:
        d = final.parent
        while not d.exists() and d != d.parent:
            made.add(d)
            d = d.parent
    try:
        yield tmps
        for tmp, final in zip(tmps, finals):
            with contextlib.suppress(FileNotFoundError):
                os.unlink(final)
            os.rename(tmp, final)
    except BaseException:
        for tmp in tmps:
            with contextlib.suppress(OSError):
                tmp.unlink()
        # innermost first, so that each directory is empty when its turn comes
        for d in sorted(made, key=lambda d: len(d.parts), reverse=True):
            with contextlib.suppress(OSError):
                d.rmdir()
        raise


def write_volume(v: Volume, path) -> None:
    """Write header + raw payload; read_volume inverts this bit-exactly (see ``write_outputs``)."""
    write_outputs({path: v}, {})


def write_outputs(volumes: Mapping[str | Path, Volume], texts: Mapping[str | Path, str]) -> None:
    """Write each volume's header and raw payload, then each text file, in one ``staged`` block.

    They are put in place together, in that order, each header before its
    payload, so that a header name held by a directory changes nothing; no
    existing file is truncated. If any step fails, the ``.tmp`` files and
    the directories this call made are removed, and every previous file
    stays as it was unless the failure came while putting them in place.
    """
    volumes = {Path(p): v for p, v in volumes.items()}
    for v in volumes.values():
        if not isinstance(v, Volume):
            raise TypeError(f"not a volume: {type(v).__name__}")
    texts = {Path(p): text for p, text in texts.items()}
    finals = [f for p in volumes for f in (p, _raw_path(p))] + list(texts)
    with staged(*finals) as tmps:
        tmp = dict(zip(finals, tmps))
        for d in dict.fromkeys(f.parent for f in finals):
            d.mkdir(parents=True, exist_ok=True)
        for p, v in volumes.items():
            dtype = "f32" if isinstance(v, ProbVolume) else "u8"
            channels = None if isinstance(v, LayeredLabelVolume) else v.channels
            write_header(tmp[p], v.dims, v.spacing, dtype, channels)
            with open(tmp[_raw_path(p)], "wb") as f:
                f.write(np.ascontiguousarray(v.data, dtype=_FILE_DTYPES[dtype]))
        for p, text in texts.items():
            tmp[p].write_text(text)


def decode_layered(lv: LayeredLabelVolume) -> MaskVolume:
    """Expand layered labels into the six standard anatomical channels.

    Labels 1..6 set their own channel; 7 sets artery+tumor, 8 sets
    vein+tumor, reconstructing the overlaps the layering collapsed. Each
    channel of STANDARD_CHANNELS is decoded, in that order, from the
    labelled voxels and their labels (``lv.labelled()``): its voxel index
    is the labelled voxels whose label sets it. The result holds only
    those indices. The constructor of ``lv`` already confined its labels
    to 0..8.
    """
    labelled, labels = lv.labelled()
    decoded = {cid: labelled[np.isin(labels, _DECODE_LABELS[cid])] for cid in STANDARD_CHANNELS}
    return MaskVolume.from_voxels(decoded, lv.dims, lv.spacing)


def encode_layered(mv: MaskVolume) -> LayeredLabelVolume:
    """Collapse the six channels back into layered labels.

    Inverse of decode_layered on volumes whose only overlaps are
    tumor-artery (-> 7) and tumor-vein (-> 8); other overlaps resolve by
    importance (tumor > vein > artery > ducts > pancreas).

    Built from the voxel indices, never a grid: each label whose channels
    the volume has sets the voxels where all of them are set, and where
    labels meet the highest wins.
    """
    voxels, labels = [np.empty(0, np.intp)], [np.empty(0, np.uint8)]
    for label, targets in LAYERED_DECODE.items():
        if all(mv.has_channel(cid) for cid in targets):
            at = reduce(partial(np.intersect1d, assume_unique=True), [mv.voxels(c) for c in targets])
            voxels.append(at)
            labels.append(np.full(at.size, label, np.uint8))
    voxels, labels = np.concatenate(voxels), np.concatenate(labels)
    # by voxel, and within a voxel by ascending label: the last of each run wins
    order = np.lexsort((labels, voxels))
    voxels, labels = voxels[order], labels[order]
    last = np.ones(voxels.size, bool)
    last[:-1] = voxels[1:] != voxels[:-1]
    return LayeredLabelVolume._of(_labelled=(_freeze(voxels[last]), _freeze(labels[last])),
                                  dims=mv.dims, spacing=mv.spacing)
