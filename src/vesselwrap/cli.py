"""Batch command-line entry points.

Commands: assess, evaluate, uncertainty, loss, phantom. All machine
output is JSON with stable key order and fixed rounding (degrees to 2
decimals, losses to 6), so identical inputs yield byte-identical
documents. The metrics document body, with its key order and its
rounding (4 decimals), comes from ``evaluation.build_metrics_report``.
Exit codes: 0 ok, 2 input error, 3 schema/channel error, 4 partial batch
failure. ``main()`` is the one place that maps exceptions to exit codes;
the commands only raise. ``evaluate`` alone catches, to count a failed
manifest entry and go on with the rest.

Each command and phantom scene declares only the flags it reads. A
document's ``config`` echoes the ``CONFIG_KEYS`` its command declares, in
that order, then the units, then the ks if the command declares them.
``assess`` grades its one input; ``uncertainty`` alone loads folds and
writes a sigma sweep. ``--filter-mode`` without ``--critical`` is rejected
before the command runs, and the echo shows ``voxel`` when neither is given.

Every input volume is judged once, from its header, by ``_open_kind``,
which reads ``Payload.kind``; the ``Payload`` it returns is what the
command reads, so no header is parsed twice and no refused input has a
voxel read. Mixed geometry is refused from the headers too: ``loss``
compares channels, dims and spacing, ``evaluate`` an entry's dims and
spacing (``evaluation.check_geometry``), and ``uncertainty`` every
member's, in ``fold_mean_std`` or ``sample_mean_std``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, evaluation, loss as loss_mod, overlay, uncertainty as unc
from .involvement import GRADED_CHANNELS, VESSELS, DpcgCategory, InvolvementReport, assess_scan, filter_critical_volume
from .volume import (
    CHANNEL_NAMES,
    NAME_TO_CHANNEL,
    ChannelId,
    MaskVolume,
    MissingChannelError,
    Payload,
    decode_layered,
    open_payload,
    read_volume,
    staged,
    write_header,
    write_outputs,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SCHEMA = 3
EXIT_PARTIAL = 4

SCHEMA_ASSESSMENT = "vesselwrap.assessment/1"
SCHEMA_METRICS = "vesselwrap.metrics/1"


# What assess reads: the graded tumor and vessels, and the pancreas that the
# critical filter and the overlays use.
ASSESS_CHANNELS = (ChannelId.PANCREAS, *GRADED_CHANNELS)

# The parsed flags a document's config may echo, in document order.
CONFIG_KEYS = ("connectivity", "span_method", "threshold", "filter_mode", "critical")


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_INPUT):
        super().__init__(message)
        self.code = code


def _deg(x: float) -> float:
    return round(float(x), 2)


def _loss_value(x: float) -> float:
    return round(float(x), 6)


def _document(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _emit(doc: dict, output: str | None) -> None:
    text = _document(doc)
    if output is None or output == "-":
        sys.stdout.write(text)
        return
    write_outputs({}, {output: text})


# A volume kind as ``_open_kind`` names it -> its name in a refusal.
_KIND_NAMES = {"mask": "masks", "layered-label": "layered labels", "probability": "probabilities"}
MASK_KINDS = ("mask", "layered-label")


def _open_kind(path, *kinds: str) -> Payload:
    """The checked header at ``path``, refused unless its ``Payload.kind`` is one of ``kinds``.

    No voxel is read, so a refused input costs one header parse.
    """
    payload = open_payload(path)
    if payload.kind not in kinds:
        raise CliError(f"{path}: expected a {' or '.join(kinds)} volume, "
                       f"got {_KIND_NAMES[payload.kind]}", EXIT_INPUT)
    return payload


def _load_mask(payload: Payload, channels=None) -> MaskVolume:
    """The mask volume of a ``MASK_KINDS`` header, decoded if layered; ``channels`` as in read_volume.

    Every caller judges the header with ``_open_kind`` first, so a refused
    input has no voxel read. A layered volume decodes all six channels.
    """
    vol = read_volume(payload, channels)
    return decode_layered(vol) if payload.kind == "layered-label" else vol


def _report_dict(report: InvolvementReport) -> dict:
    return {
        "present": report.present,
        "max_involvement_deg": _deg(report.max_span_deg),
        "argmax_slice": report.argmax_slice,
        "slices": [
            {
                "z": s.z,
                "present": s.present,
                "max_span_deg": _deg(s.max_span_deg),
                "component_spans_deg": [_deg(v) for v in s.component_spans_deg],
            }
            for s in report.slices
        ],
    }


def _config_echo(args) -> dict:
    parsed = vars(args)
    cfg = {key: parsed[key] for key in CONFIG_KEYS if key in parsed}
    cfg["units"] = {"angles": "deg"}
    if "ks" in parsed:
        cfg["ks"] = [float(k) for k in parsed["ks"]]
    return cfg


def _grading_dict(reports: dict[ChannelId, InvolvementReport], category: DpcgCategory) -> dict:
    return {
        "vessels": {CHANNEL_NAMES[cid]: _report_dict(reports[cid]) for cid in VESSELS},
        "dpcg_category": category.label,
    }


def _assessment_doc(scan_id: str, args, body: dict) -> dict:
    """The assessment document: header, config echo, then the ``body`` keys."""
    return {
        "schema": SCHEMA_ASSESSMENT,
        "tool_version": __version__,
        "scan_id": scan_id,
        "config": _config_echo(args),
        **body,
    }


def _load_folds(paths) -> unc.FieldStream:
    """Folds are probability volume headers, or directories of sample headers.

    Every member's header is parsed, its payload size and dtype checked,
    and the folds' geometry and sample counts compared before any voxel
    is read; the stream's pass then reads each payload once.
    """
    prob_folds: list[Payload] = []
    sample_folds: list[tuple[Payload, ...]] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            headers = sorted(p.glob("*.json"))
            if not headers:
                raise CliError(f"sample directory {p} holds no volume headers", EXIT_INPUT)
            sample_folds.append(tuple(_open_kind(h, "probability") for h in headers))
        else:
            prob_folds.append(_open_kind(p, "probability"))
    if prob_folds and sample_folds:
        raise CliError("mix of deterministic folds and sample directories", EXIT_INPUT)
    if sample_folds:
        return unc.sample_mean_std(sample_folds)
    return unc.fold_mean_std(prob_folds)


def cmd_assess(args) -> int:
    masks = _load_mask(_open_kind(args.input, *MASK_KINDS), ASSESS_CHANNELS)
    scan_id = args.scan_id or Path(args.input).stem
    if args.critical:
        masks = filter_critical_volume(masks, args.filter_mode)
    reports, category = assess_scan(masks, args.connectivity, args.span_method)
    # the document first: a failed document write leaves no overlay behind
    _emit(_assessment_doc(scan_id, args, _grading_dict(reports, category)), args.output)
    if args.overlay:
        overlay.contact_overlay(masks, reports, args.overlay, scan_id)
    return EXIT_OK


def _read_manifest(path) -> list[dict]:
    path = Path(path)
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        raise CliError(f"cannot read manifest: {exc}", EXIT_INPUT) from None
    entries = []
    seen = set()
    fold_type = None
    for i, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            entry = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CliError(f"manifest line {i}: {exc}", EXIT_INPUT) from None
        if not isinstance(entry, dict) or "scan_id" not in entry or "prediction" not in entry:
            raise CliError(f"manifest line {i}: needs scan_id and prediction", EXIT_INPUT)
        if not isinstance(entry["scan_id"], (str, int)) or isinstance(entry["scan_id"], bool):
            raise CliError(f"manifest line {i}: scan_id must be a string or integer", EXIT_INPUT)
        scan_id = str(entry["scan_id"])  # as the report prints it
        if scan_id in seen:
            raise CliError(f"manifest line {i}: duplicate scan id {scan_id!r}", EXIT_INPUT)
        seen.add(scan_id)
        fold = entry.get("fold")
        if fold is not None:
            if not isinstance(fold, (str, int)) or isinstance(fold, bool):
                raise CliError(f"manifest line {i}: fold must be a string or integer", EXIT_INPUT)
            fold_type = fold_type or type(fold)
            if type(fold) is not fold_type:
                raise CliError(f"manifest line {i}: fold labels must be all strings or all integers",
                               EXIT_INPUT)
        entries.append(entry)
    return entries


# Table label -> key path into the metrics document body.
_TABLE_ROWS = (
    ("Tumor Dice", ("dice", "tumor")),
    ("Artery Dice", ("dice", "artery")),
    ("Vein Dice", ("dice", "vein")),
    ("Artery Overlap Dice", ("dice", "artery_overlap")),
    ("Vein Overlap Dice", ("dice", "vein_overlap")),
    ("Artery Sensitivity", ("involvement", "artery", "sensitivity")),
    ("Artery Specificity", ("involvement", "artery", "specificity")),
    ("Vein Sensitivity", ("involvement", "vein", "sensitivity")),
    ("Vein Specificity", ("involvement", "vein", "specificity")),
    ("Scan Sensitivity", ("involvement", "scan", "sensitivity")),
    ("Scan Specificity", ("involvement", "scan", "specificity")),
    ("Artery R2", ("r2_max_involvement", "artery")),
    ("Vein R2", ("r2_max_involvement", "vein")),
)


def _metrics_table(body: dict) -> str:
    """The headline rows of a metrics body: Dice as mean +- per-case std, rates as values."""
    lines = [f"{'Metric':<22}  {'Value':>14}"]
    for label, path in _TABLE_ROWS:
        v = body
        for key in path:
            v = v.get(key)  # only a Dice key can be missing, and only as the last step
        if path[0] == "dice":
            value = "n/a" if v is None else f"{v['mean']:.4f} +- {v['std_per_case']:.4f}"
        else:
            value = "undefined" if v["value"] is None else f"{v['value']:.4f}"
        lines.append(f"{label:<22}  {value:>14}")
    return "\n".join(lines) + "\n"


def _entry_path(base: Path, entry: dict, key: str) -> Path:
    value = entry[key]
    if not isinstance(value, str):
        raise CliError(f"{key} must be a path string, got {value!r}", EXIT_INPUT)
    return base / value


def cmd_evaluate(args) -> int:
    entries = _read_manifest(args.manifest)
    base = Path(args.manifest).parent
    evals = []
    failures = []
    for entry in entries:
        scan_id = str(entry["scan_id"])
        try:
            if "ground_truth" not in entry:
                raise CliError("entry lacks ground_truth", EXIT_INPUT)
            if args.critical and "critical_ground_truth" not in entry:
                raise CliError("critical evaluation needs critical_ground_truth", EXIT_INPUT)
            keys = ("prediction", "ground_truth", "critical_ground_truth")[:3 if args.critical else 2]
            # every header is judged before any of the entry's payloads is read
            headers = {key: _open_kind(_entry_path(base, entry, key), *MASK_KINDS) for key in keys}
            evaluation.check_geometry(*headers.values())
            masks = {key: _load_mask(header) for key, header in headers.items()}
            evals.append(evaluation.evaluate_scan(
                masks["prediction"], masks["ground_truth"], scan_id=scan_id, fold=entry.get("fold"),
                gt_critical=masks.get("critical_ground_truth"), filter_mode=args.filter_mode,
                connectivity=args.connectivity, span_method=args.span_method,
            ))
        except (CliError, ValueError, OSError) as exc:
            failures.append(f"{scan_id}: {exc}")
    evals.sort(key=lambda ev: ev.scan_id)
    body = evaluation.build_metrics_report(evals, failures)
    header = {"schema": SCHEMA_METRICS, "tool_version": __version__,
              "config": _config_echo(args)}
    _emit({**header, **body}, args.output)
    if args.table or (args.output not in (None, "-")):
        sys.stdout.write(_metrics_table(body))
    for failure in failures:
        sys.stderr.write(f"error: {failure}\n")
    return EXIT_PARTIAL if failures else EXIT_OK


# What uncertainty writes into --out, in the order it puts them in place.
UNCERTAINTY_FILES = ("mean.json", "mean.raw", "std.json", "std.raw", "uncertainty.json")


def _written(blocks, payloads):
    """``blocks`` passed on unchanged, each block's mean and std appended to ``payloads``."""
    with contextlib.closing(blocks):
        for block in blocks:
            for f, values in zip(payloads, block):
                f.write(np.asarray(values, "<f4"))
            yield block


def _staged_uncertainty(args, stream: unc.FieldStream, tmps: dict[str, Path]) -> None:
    """Write every uncertainty output to its temporary path in ``tmps``, in one pass.

    The mean and std payloads are written block by block as the sweep's
    pass streams them. If ``--out`` cannot be made, or a payload not be
    opened, the pass still runs without writing, so that an error in the
    inputs is reported first; that OSError is raised after the sweep.
    """
    with contextlib.ExitStack() as files:
        try:
            Path(args.out).mkdir(parents=True, exist_ok=True)
            payloads = [files.enter_context(open(tmps[f"{name}.raw"], "wb"))
                        for name in ("mean", "std")]
            unwritable = None
        except OSError as exc:
            payloads, unwritable = [], exc
        stream = dataclasses.replace(stream, blocks=_written(stream.blocks, payloads))
        entries = unc.uncertainty_sweep(stream, args.ks, args.threshold, args.connectivity,
                                        args.span_method)
    if unwritable is not None:
        raise unwritable
    for name in ("mean", "std"):
        write_header(tmps[f"{name}.json"], stream.dims, stream.spacing, "f32", stream.channels)
    sweep = [{"k": float(e.k), **_grading_dict(e.reports, e.category)} for e in entries]
    doc = _assessment_doc(args.scan_id, args, {"uncertainty_kind": stream.kind, "sweep": sweep})
    tmps["uncertainty.json"].write_text(_document(doc))


def _heat_maps(out: Path, stream: unc.FieldStream, directory: Path, scan_id: str) -> None:
    """Heat maps of the graded channels, read back from the written payloads a channel at a time.

    The one payload read outside ``volume._parts``: it reads only this
    command's own output, one grid per graded channel at an offset it
    computes, where ``_parts`` would read every channel.

    A slice whose std stays below ``overlay.HEAT_CLIP`` gets no map. A
    successful sweep has graded tumor, artery and vein, so all three are there.
    """
    grid = math.prod(stream.dims)
    for cid in GRADED_CHANNELS:
        offset = stream.channels.index(cid) * grid * 4
        mean, std = (np.fromfile(out / f"{n}.raw", "<f4", grid, offset=offset).reshape(stream.dims)
                     for n in ("mean", "std"))
        for z in range(stream.dims[0]):
            if float(std[z].max()) < overlay.HEAT_CLIP:
                continue
            rgb = overlay.heatmap_overlay(mean[z], std[z])
            overlay.write_ppm(directory / f"{scan_id}_{CHANNEL_NAMES[cid]}_z{z:03d}.ppm", rgb)


def cmd_uncertainty(args) -> int:
    """Stream the folds' mean and std into --out and grade the sweep, in one pass.

    Every output is written through ``staged`` and put in place only after
    the last payload's range check and after every k is graded: a previous
    run's file is removed, then the new one renamed onto the free name. On
    any failure the temporary files and the directories this run made are
    removed, so a previous run's outputs stay as they were unless the
    failure came while putting them in place.
    """
    stream = _load_folds(args.fold)
    out = Path(args.out)
    with staged(*(out / name for name in UNCERTAINTY_FILES)) as tmps:
        _staged_uncertainty(args, stream, dict(zip(UNCERTAINTY_FILES, tmps)))
    if args.overlay:
        _heat_maps(out, stream, Path(args.overlay), args.scan_id)
    return EXIT_OK


def cmd_loss(args) -> int:
    pred_p, gt_p = (_open_kind(p, "probability", "mask") for p in (args.prediction, args.ground_truth))
    if (pred_p.channels, pred_p.dims, pred_p.spacing) != (gt_p.channels, gt_p.dims, gt_p.spacing):
        raise CliError("prediction and ground truth geometry differ", EXIT_SCHEMA)
    pred, gt = (read_volume(p).data.astype(np.float64) for p in (pred_p, gt_p))
    weights = loss_mod.LossWeights(args.beta, args.alpha_w)
    channels = pred_p.channels
    # first, so that a missing tumor, artery or vein is refused before any term is averaged
    overlap = loss_mod.overlap_loss(pred, gt, channels)
    doc = {
        "schema": "vesselwrap.loss/1",
        "tool_version": __version__,
        "weights": {"beta": args.beta, "alpha_w": args.alpha_w},
        "bce": _loss_value(loss_mod.bce(pred, gt)),
        "dice": _loss_value(loss_mod.soft_dice_loss(pred, gt)),
        "overlap": _loss_value(overlap),
        "combined": _loss_value(loss_mod.combined_loss(pred, gt, weights, channels)),
    }
    if args.gradcheck:
        doc["gradcheck_max_rel_error"] = {
            name: float(f"{loss_mod.gradcheck_loss(name, pred, gt, weights, channels):.3e}")
            for name in ("bce", "dice", "overlap", "combined")
        }
    _emit(doc, args.output)
    return EXIT_OK


def cmd_phantom(args) -> int:
    """Write the scene's volumes and documents into --out in one ``write_outputs``."""
    # the one command that draws scenes; no other command pays this import
    from . import phantom as phantom_mod

    out = Path(args.out)
    if args.scene == "confusion":
        cases = phantom_mod.gen_confusion_suite(args.seed)
        manifest_lines = []
        expected = {}
        volumes = {}
        for case in cases:
            volumes[out / f"{case.name}_pred.json"] = case.pred
            volumes[out / f"{case.name}_gt.json"] = case.gt
            manifest_lines.append(
                json.dumps(
                    {
                        "scan_id": case.name,
                        "prediction": f"{case.name}_pred.json",
                        "ground_truth": f"{case.name}_gt.json",
                    }
                )
            )
            expected[case.name] = {"vessel": CHANNEL_NAMES[case.vessel], "cell": case.expected}
        write_outputs(volumes, {out / "manifest.jsonl": "\n".join(manifest_lines) + "\n",
                                out / "expected.json": _document({"expected": expected})})
        return EXIT_OK
    spec = phantom_mod.PhantomSpec(
        vessel_radius_px=args.radius,
        wrap_span_deg=args.span,
        wrap_center_deg=args.center_deg,
        vessel_channel=NAME_TO_CHANNEL[args.channel],
        band_extra_deg=args.band_extra_deg if args.scene == "uncertainty" else 0.0,
        jitter_seed=args.seed,
    )
    if args.scene == "wrap":
        scene, truth = phantom_mod.gen_wrap_scene(spec)
        volumes, doc = {out / "scene.json": scene}, _truth_doc(truth)
    else:
        folds, truths = phantom_mod.gen_uncertainty_scene(spec, tuple(float(k) for k in args.ks))
        volumes = {out / f"fold{i}.json": fold for i, fold in enumerate(folds)}
        doc = {"per_k": {f"{k:g}": _truth_doc(t) for k, t in sorted(truths.items())}}
    write_outputs(volumes, {out / "truth.json": _document(doc)})
    return EXIT_OK


def _truth_doc(truth: phantom_mod.PhantomTruth) -> dict:
    return {
        "max_span_deg": _deg(truth.max_span_deg),
        "present": truth.present,
        "dpcg_category": truth.category.label,
        "span_by_slice_deg": {str(z): _deg(v) for z, v in sorted(truth.span_by_slice.items())},
    }


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--connectivity", type=int, choices=(4, 8), default=8)
    p.add_argument("--span-method", choices=("largest-gap", "minmax"), default="largest-gap")


def _add_critical_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--critical", action="store_true", help="drop vessels overlapping the pancreas")
    # None until main() has checked it against --critical and filled in "voxel"
    p.add_argument("--filter-mode", choices=("voxel", "component"), default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vesselwrap",
        description="Tumor-vessel involvement assessment from segmentation volumes",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("assess", help="involvement + DPCG grade for one scan")
    p.add_argument("input", help="mask or layered-label volume header")
    p.add_argument("--scan-id", default=None)
    _add_critical_flags(p)
    p.add_argument("--overlay", default=None, help="write per-slice contact overlays here")
    _add_common_flags(p)
    p.add_argument("--output", "-o", default=None, help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_assess)

    p = sub.add_parser("evaluate", help="metric suite over a JSON-lines manifest")
    p.add_argument("manifest")
    _add_critical_flags(p)
    p.add_argument("--table", action="store_true", help="also print the text table")
    _add_common_flags(p)
    p.add_argument("--output", "-o", default=None, help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("uncertainty", help="mean/std volumes and a sigma sweep")
    p.add_argument("--fold", action="append", required=True,
                   help="probability fold volume or sample directory (repeatable)")
    p.add_argument("--ks", type=float, nargs="+", default=list(unc.DEFAULT_KS))
    p.add_argument("--threshold", type=float, default=unc.DEFAULT_THRESHOLD)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--scan-id", default="scan")
    p.add_argument("--overlay", default=None, help="write heat maps here")
    _add_common_flags(p)
    p.set_defaults(func=cmd_uncertainty)

    p = sub.add_parser("loss", help="loss kernel values for a prediction/target pair")
    p.add_argument("prediction")
    p.add_argument("ground_truth")
    p.add_argument("--beta", type=float, default=0.5)
    p.add_argument("--alpha-w", type=float, default=0.8, dest="alpha_w")
    p.add_argument("--gradcheck", action="store_true")
    p.add_argument("--output", "-o", default=None, help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_loss)

    p = sub.add_parser("phantom", help="write synthetic scenes with truth sidecars")
    p.set_defaults(func=cmd_phantom)
    scenes = p.add_subparsers(dest="scene", required=True)
    for scene in ("wrap", "confusion", "uncertainty"):
        s = scenes.add_parser(scene)
        s.add_argument("--out", required=True)
        if scene != "confusion":
            s.add_argument("--radius", type=float, default=8.0)
            s.add_argument("--span", type=float, default=180.0)
            s.add_argument("--center-deg", type=float, default=90.0)
            s.add_argument("--channel", choices=("artery", "vein"), default="vein")
        if scene == "uncertainty":
            s.add_argument("--band-extra-deg", type=float, default=25.0)
            s.add_argument("--ks", type=float, nargs="+", default=list(unc.DEFAULT_KS))
        s.add_argument("--seed", type=int, default=0)

    return parser


def main(argv=None) -> int:
    """Run one command and map its failure to an exit code and one ``error:`` line.

    A CliError exits with its own code, a MissingChannelError with 3, and any
    other ValueError (a malformed volume, loss weights or phantom parameters)
    or OSError (an unreadable path, or one of the wrong kind) with 2. A
    non-finite float flag is rejected with 2 before the command runs: it
    would be echoed into the document as NaN or Infinity, which is not JSON.
    So is ``--filter-mode`` without ``--critical``, which would filter nothing.
    """
    args = build_parser().parse_args(argv)
    try:
        for dest, value in vars(args).items():
            for v in value if isinstance(value, list) else (value,):
                if isinstance(v, float) and not math.isfinite(v):
                    raise CliError(f"--{dest.replace('_', '-')} must be finite, got {v}")
        if "filter_mode" in vars(args):
            if args.filter_mode is not None and not args.critical:
                raise CliError("--filter-mode acts only with --critical")
            args.filter_mode = args.filter_mode or "voxel"
        return args.func(args)
    except (CliError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        if isinstance(exc, CliError):
            return exc.code
        return EXIT_SCHEMA if isinstance(exc, MissingChannelError) else EXIT_INPUT


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
