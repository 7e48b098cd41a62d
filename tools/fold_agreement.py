"""Count how much of a set of folds agrees exactly, block by block, as ``uncertainty`` sees it.

Usage::

    python3 tools/fold_agreement.py FOLD.json FOLD.json [FOLD.json ...]

``uncertainty`` computes its statistics in blocks of up to 32768
voxels, cut per channel: a block never spans two channels, so a channel
whose size is not a multiple of 32768 ends on a short block. A block where every fold equals the first under ``==`` skips the float64
stage (see ``vesselwrap.uncertainty``), and its gain depends on how many
blocks do. A block whose first voxels already differ costs one scalar
test per fold. A block whose first voxels agree but whose rest does not
costs up to one float32 block comparison per further fold on top of the
float64 stage. This prints the count of each kind and the share of voxels that are
equal in every fold, so the property can be measured on an ensemble's
own outputs before relying on the gain::

    blocks 192: agree 168, differ past the first voxel 24, differ at it 0
    voxels equal in every fold: 99.989%

(the seed-1 ``sigma-sweep`` folds of ``perfbench``, whose generator copies
one fold's values into every fold outside a rim band).

The folds are read as ``uncertainty`` reads them (``_member_blocks``), a
chunk of one channel at a time, clamped into [0, 1] and range-checked;
the headers must share a geometry.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from vesselwrap import uncertainty  # noqa: E402
from vesselwrap.volume import open_payload  # noqa: E402


def agreement(members) -> tuple[int, int, int, int, int]:
    """Blocks that agree, differ past their first voxel, differ at it; equal voxels, voxels."""
    equal = np.empty(uncertainty._BLOCK, bool)
    counts, same, total = [0, 0, 0], 0, 0
    for blocks in uncertainty._member_blocks(members):
        first = blocks[0]
        if uncertainty._agree(blocks, equal[:first.size]):
            counts[0] += 1
        else:
            counts[1 if all(x[0] == first[0] for x in blocks[1:]) else 2] += 1
        same += int(np.logical_and.reduce([x == first for x in blocks[1:]]).sum())
        total += first.size
    return (*counts, same, total)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("folds", nargs="+", type=Path, help="fold volume headers (.json)")
    args = parser.parse_args(argv)
    if len(args.folds) < 2:
        parser.error("need at least 2 folds")
    try:
        members = [open_payload(p) for p in args.folds]
        uncertainty._check_same_geometry(members)
        agree, late, early, same, total = agreement(members)
    except (ValueError, OSError) as exc:  # a bad header or payload: one line, no traceback
        parser.exit(2, f"error: {exc}\n")
    print(f"blocks {agree + late + early}: agree {agree}, "
          f"differ past the first voxel {late}, differ at it {early}")
    print(f"voxels equal in every fold: {100 * same / total:.3f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
