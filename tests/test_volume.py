import json
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vesselwrap import volume
from vesselwrap.involvement import filter_critical_volume
from vesselwrap.volume import (
    ChannelId,
    LayeredLabelVolume,
    MaskVolume,
    ProbVolume,
    Spacing,
    STANDARD_CHANNELS,
    VolumeFormatError,
    check_agree,
    decode_layered,
    encode_layered,
    read_volume,
    set_voxels,
    write_volume,
)
from conftest import encode_layered_reference, make_mask, make_prob

SP1 = Spacing(1.0, 1.0, 1.0)


def _write_raw_pair(tmp_path, header: dict, payload: bytes, name="vol"):
    (tmp_path / f"{name}.json").write_text(json.dumps(header))
    (tmp_path / f"{name}.raw").write_bytes(payload)
    return tmp_path / f"{name}.json"


def _header(dims, channels, dtype):
    return {
        "dims": dims,
        "spacing_mm": [1.0, 1.0, 1.0],
        "dtype": dtype,
        "order": "channel-major,z,y,x",
        "channels": channels,
    }


class TestSpacing:
    def test_positive_required(self):
        with pytest.raises(ValueError):
            Spacing(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            Spacing(1.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            Spacing(1.0, 1.0, float("nan"))


# Entries drawn for the parity property; the JSON form of a numpy scalar is its ``.item()``.
DIMS_ENTRIES = (1, 2, 3, 4, 0, -1, True, 2.0, np.int64(2), 10**400)
SPACING_ENTRIES = (0.5, 1, np.float32(0.67), np.int64(3), 0, -1, float("nan"), float("inf"), True,
                   np.bool_(True), 10**400, "1")


def _json_form(v):
    return v.item() if isinstance(v, np.generic) else v


def _accepts(build, error) -> bool:
    try:
        build()
    except error:
        return False
    return True


class TestOneGeometryRule:
    """A header and the constructors judge dims, spacing and channels with the same code."""

    @settings(max_examples=300, deadline=None)
    @given(dims=st.lists(st.sampled_from(DIMS_ENTRIES), min_size=3, max_size=3),
           spacing=st.lists(st.sampled_from(SPACING_ENTRIES), min_size=3, max_size=3))
    def test_header_accepted_exactly_when_constructors_accept(self, dims, spacing):
        header = {"dims": [_json_form(v) for v in dims], "spacing_mm": [_json_form(v) for v in spacing],
                  "dtype": "u8", "order": volume.HEADER_ORDER, "channels": []}
        with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
            warnings.simplefilter("error")
            path = _write_raw_pair(Path(tmp), header, b"")
            read_ok = _accepts(lambda: volume.open_payload(path), VolumeFormatError)
            spacing_ok = _accepts(lambda: Spacing(*spacing), ValueError)
            dims_ok = _accepts(lambda: MaskVolume.from_voxels({}, dims, SP1), VolumeFormatError)
            assert read_ok == (spacing_ok and dims_ok)
            if not read_ok:
                return
            vol = MaskVolume.from_voxels({}, dims, Spacing(*spacing))
            assert vol.dims == tuple(int(d) for d in dims)
            assert all(type(d) is int for d in vol.dims)
            assert all(type(mm) is float for mm in vol.spacing.as_tuple())
            payload = volume.open_payload(path)
            assert (payload.dims, payload.spacing) == (vol.dims, vol.spacing)
            write_volume(vol, Path(tmp) / "back.json")
            back = read_volume(Path(tmp) / "back.json")
            assert (back.dims, back.spacing) == (vol.dims, vol.spacing)
            assert all(type(d) is int for d in back.dims)

    @pytest.mark.parametrize("value", [True, np.bool_(True)])
    def test_bool_spacing_refused(self, value):
        with pytest.raises(ValueError, match="spacing z_mm must be a positive finite number"):
            Spacing(value, 1, 1)

    def test_numpy_spacing_taken_as_its_value(self):
        sp = Spacing(np.float32(0.67), np.int64(3), 1)
        assert sp.as_tuple() == (float(np.float32(0.67)), 3.0, 1.0)
        assert all(type(mm) is float for mm in (sp.z_mm, sp.y_mm, sp.x_mm))
        assert Spacing(1, 1, 1).z_mm == 1.0 and type(Spacing(1, 1, 1).z_mm) is float

    @pytest.mark.parametrize("build", [
        lambda: MaskVolume(np.zeros((1, 0, 4, 4), np.uint8), (ChannelId.TUMOR,), SP1),
        lambda: ProbVolume(np.zeros((1, 2, 0, 4), np.float32), (ChannelId.TUMOR,), SP1),
        lambda: LayeredLabelVolume(np.zeros((2, 4, 0), np.uint8), SP1),
        lambda: MaskVolume.from_voxels({}, (2, 0, 4), SP1),
    ], ids=["mask", "probability", "layered", "from_voxels"])
    def test_empty_grid_refused(self, build):
        with pytest.raises(VolumeFormatError, match=r"^bad dims \(.*\): need three positive integers$"):
            build()

    def test_numpy_dims_become_python_ints(self, tmp_path):
        vol = MaskVolume.from_voxels({ChannelId.TUMOR: np.array([1, 5])}, np.array([2, 4, 4]), SP1)
        assert vol.dims == (2, 4, 4) and all(type(d) is int for d in vol.dims)
        write_volume(vol, tmp_path / "v.json")
        assert json.loads((tmp_path / "v.json").read_text())["dims"] == [2, 4, 4]
        dense = MaskVolume(vol.data, vol.channels, SP1)
        check_agree([("indices", vol), ("grid", dense)])
        check_agree([("header", volume.open_payload(tmp_path / "v.json")), ("grid", dense)])

    @pytest.mark.parametrize("build", [
        lambda sp: MaskVolume(np.zeros((1, 2, 2, 2), np.uint8), (ChannelId.TUMOR,), sp),
        lambda sp: ProbVolume(np.zeros((1, 2, 2, 2), np.float32), (ChannelId.TUMOR,), sp),
        lambda sp: LayeredLabelVolume(np.zeros((2, 2, 2), np.uint8), sp),
        lambda sp: MaskVolume.from_voxels({}, (2, 2, 2), sp),
    ], ids=["mask", "probability", "layered", "from_voxels"])
    def test_spacing_must_be_a_spacing(self, build):
        with pytest.raises(TypeError, match="spacing must be a Spacing, got tuple"):
            build((1.0, 1.0, 1.0))
        assert build(SP1).spacing is SP1

    def test_duplicate_channels_one_message(self, tmp_path):
        """The header's refusal is the constructor's, named by the header's path."""
        message = "duplicate channels in ['artery', 'vein', 'vein']"
        path = _write_raw_pair(tmp_path, _header([1, 1, 1], ["artery", "vein", "vein"], "u8"), bytes(3))
        with pytest.raises(VolumeFormatError) as header:
            volume.open_payload(path)
        with pytest.raises(VolumeFormatError) as constructor:
            MaskVolume(np.zeros((3, 1, 1, 1), np.uint8),
                       (ChannelId.ARTERY, ChannelId.VEIN, ChannelId.VEIN), SP1)
        assert str(constructor.value) == message
        assert str(header.value) == f"{path}: " + message


# Pools for the agreement property: two spacings differ only past float32 precision.
AGREE_DIMS = ((1, 2, 2), (2, 2, 2), (1, 2, 3))
AGREE_SPACINGS = (Spacing(1, 1, 1), Spacing(np.float32(0.67), 1, 1), Spacing(0.67, 1, 1))
AGREE_CHANNELS = ((ChannelId.TUMOR,), (ChannelId.TUMOR, ChannelId.ARTERY), (ChannelId.ARTERY, ChannelId.TUMOR))


@st.composite
def _agree_inputs(draw, channels: bool):
    """2 to 4 (name, input, (channels, dims, spacing)) triples; an input is a volume or a header."""
    inputs = []
    for i in range(draw(st.integers(2, 4))):
        name = draw(st.sampled_from(["a", "b", "a.json"]))  # names may repeat
        dims, spacing = draw(st.sampled_from(AGREE_DIMS)), draw(st.sampled_from(AGREE_SPACINGS))
        chans = draw(st.sampled_from(AGREE_CHANNELS if channels else AGREE_CHANNELS + (None,)))
        if chans is not None and draw(st.booleans()):
            v = MaskVolume.from_voxels({c: np.empty(0, np.intp) for c in chans}, dims, spacing)
        else:
            v = volume.Payload(Path(f"{i}.json"), dims, spacing, "u8", chans)
        inputs.append((name, v, (chans, dims, spacing)))
    return inputs


class TestOneAgreementRule:
    """``check_agree`` refuses exactly the first input whose compared values differ from the first's."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), channels=st.booleans())
    def test_refuses_exactly_the_first_differing_input(self, data, channels):
        inputs = data.draw(_agree_inputs(channels))
        (head, _, (chans0, dims0, sp0)), expected = inputs[0], None
        for name, _, (chans, dims, sp) in inputs[1:]:
            if channels and chans != chans0:
                names = [[volume.CHANNEL_NAMES[c] for c in cs] for cs in (chans0, chans)]
                expected = f"channel mismatch: {head} {names[0]}, {name} {names[1]}"
            elif (dims, sp) != (dims0, sp0):
                expected = (f"geometry mismatch: {head} {dims0} at {sp0.as_tuple()} mm, "
                            f"{name} {dims} at {sp.as_tuple()} mm")
            if expected:
                break
        named = [(name, v) for name, v, _ in inputs]
        if expected is None:
            check_agree(named, channels=channels)
            return
        with pytest.raises(ValueError) as refused:
            check_agree(named, channels=channels)
        assert str(refused.value) == expected


# Every header field drawn from arbitrary JSON values, huge integers and non-finite floats among them.
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.text(max_size=6)
    | st.integers(min_value=-10**400, max_value=10**400) | st.sampled_from([10**400, -(10**400)])
    | st.floats(allow_nan=True, allow_infinity=True),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=8,
)
_VALID_FIELDS = {"dims": [2, 2, 2], "spacing_mm": [1.0, 0.5, 0.5], "dtype": "u8",
                 "order": volume.HEADER_ORDER, "channels": ["tumor"]}


class TestHeaderFuzz:
    """A header of any JSON content is a ``Payload`` or a VolumeFormatError, never another error."""

    @settings(max_examples=200, deadline=None)
    @given(broken=st.sets(st.sampled_from(sorted(_VALID_FIELDS))), size=st.sampled_from([0, 4, 8, 16]),
           data=st.data())
    def test_payload_or_volume_format_error(self, broken, size, data):
        """The fields in ``broken`` are drawn, whole or as three entries; the others stay valid."""
        fields = dict(_VALID_FIELDS)
        for key in sorted(broken):
            fields[key] = data.draw(_JSON_VALUES | st.lists(_JSON_VALUES, min_size=3, max_size=3), label=key)
        with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
            warnings.simplefilter("error")
            path = _write_raw_pair(Path(tmp), fields, bytes(size))
            try:
                payload = volume.open_payload(path)
            except VolumeFormatError:
                return
            assert isinstance(payload, volume.Payload)
            assert all(type(d) is int and d > 0 for d in payload.dims)
            assert isinstance(payload.spacing, Spacing)


class TestReadWrite:
    def test_hand_written_header_all_ones(self, tmp_path):
        path = _write_raw_pair(tmp_path, _header([2, 2, 2], ["tumor"], "u8"), b"\x01" * 8)
        vol = read_volume(path)
        assert isinstance(vol, MaskVolume)
        assert vol.channels == (ChannelId.TUMOR,)
        assert vol.dims == (2, 2, 2)
        assert (vol.data == 1).all()

    def test_payload_size_mismatch(self, tmp_path):
        path = _write_raw_pair(tmp_path, _header([2, 2, 2], ["tumor"], "u8"), b"\x01" * 7)
        with pytest.raises(VolumeFormatError, match="payload size mismatch"):
            read_volume(path)

    @pytest.mark.parametrize("channels", [None, ["tumor", "vein"]], ids=["layered", "mask"])
    def test_payload_shrunk_after_size_check(self, tmp_path, channels):
        """A payload cut after its size was checked is reported, not left to numpy."""
        size = 32 * (len(channels) if channels else 1)
        path = _write_raw_pair(tmp_path, _header([2, 4, 4], channels, "u8"), bytes(size))
        checked = volume.open_payload

        def cut(header):
            payload = checked(header)
            with open(payload.raw, "r+b") as fh:
                fh.truncate(10)
            return payload

        with mock.patch.object(volume, "open_payload", cut), \
                pytest.raises(VolumeFormatError, match=r"^payload .*vol\.raw shrank while being read$"):
            read_volume(path)

    def test_prob_clamped_within_tolerance(self, tmp_path):
        payload = np.array([1.0005, 0.5, -0.0004, 0.0], dtype="<f4").tobytes()
        path = _write_raw_pair(tmp_path, _header([1, 2, 2], ["tumor"], "f32"), payload)
        vol = read_volume(path)
        assert isinstance(vol, ProbVolume)
        assert vol.data.max() == 1.0
        assert vol.data.min() == 0.0

    def test_prob_rejected_outside_tolerance(self, tmp_path):
        payload = np.array([1.1, 0.5, 0.5, 0.5], dtype="<f4").tobytes()
        path = _write_raw_pair(tmp_path, _header([1, 2, 2], ["tumor"], "f32"), payload)
        with pytest.raises(VolumeFormatError, match="outside tolerated range"):
            read_volume(path)

    def test_garbled_header(self, tmp_path):
        (tmp_path / "bad.json").write_text("{not json")
        (tmp_path / "bad.raw").write_bytes(b"")
        with pytest.raises(VolumeFormatError, match="garbled header"):
            read_volume(tmp_path / "bad.json")

    def test_missing_header(self, tmp_path):
        with pytest.raises(VolumeFormatError, match="header not found"):
            read_volume(tmp_path / "nope.json")

    def test_missing_raw(self, tmp_path):
        (tmp_path / "v.json").write_text(json.dumps(_header([1, 1, 1], ["tumor"], "u8")))
        with pytest.raises(VolumeFormatError, match="raw payload not found"):
            read_volume(tmp_path / "v.json")

    def test_unknown_dtype(self, tmp_path):
        path = _write_raw_pair(tmp_path, _header([1, 1, 1], ["tumor"], "i16"), b"\x00")
        with pytest.raises(VolumeFormatError, match="unknown dtype"):
            read_volume(path)

    def test_unknown_channel_name(self, tmp_path):
        path = _write_raw_pair(tmp_path, _header([1, 1, 1], ["bogus"], "u8"), b"\x00")
        with pytest.raises(VolumeFormatError, match="unknown channel name"):
            read_volume(path)

    def test_mask_values_validated(self, tmp_path):
        path = _write_raw_pair(tmp_path, _header([1, 1, 1], ["tumor"], "u8"), b"\x02")
        with pytest.raises(VolumeFormatError, match="0 or 1"):
            read_volume(path)

    def test_layered_header_without_channels(self, tmp_path):
        header = _header([1, 2, 2], None, "u8")
        path = _write_raw_pair(tmp_path, header, bytes([0, 5, 7, 8]))
        vol = read_volume(path)
        assert isinstance(vol, LayeredLabelVolume)
        assert vol.data.tolist() == [[[0, 5], [7, 8]]]

    def test_roundtrip_mask(self, tmp_path, rng):
        data = rng.integers(0, 2, size=(2, 4, 8, 8), dtype=np.uint8)
        vol = make_mask(data, channels=(ChannelId.ARTERY, ChannelId.TUMOR))
        write_volume(vol, tmp_path / "m.json")
        back = read_volume(tmp_path / "m.json")
        assert isinstance(back, MaskVolume)
        assert back.channels == vol.channels
        assert back.spacing == vol.spacing
        assert (back.data == vol.data).all()

    def test_roundtrip_prob_halves(self, tmp_path):
        vol = make_prob(np.full((1, 2, 2, 2), 0.5), channels=(ChannelId.TUMOR,))
        write_volume(vol, tmp_path / "p.json")
        back = read_volume(tmp_path / "p.json")
        assert (back.data == vol.data).all()

    @pytest.mark.parametrize("order", [">", "<"])
    def test_roundtrip_prob_any_byte_order(self, tmp_path, rng, order):
        data = rng.random((2, 3, 4, 5)).astype(f"{order}f4")
        vol = ProbVolume(data, (ChannelId.ARTERY, ChannelId.TUMOR), SP1)
        write_volume(vol, tmp_path / "p.json")
        assert (tmp_path / "p.raw").read_bytes() == data.astype("<f4").tobytes()
        back = read_volume(tmp_path / "p.json")
        assert back.data.tobytes() == vol.data.tobytes()

    def test_write_unwritable_path(self, tmp_path):
        vol = make_prob(np.zeros((1, 1, 1, 1)), channels=(ChannelId.TUMOR,))
        target = tmp_path / "adir.json"
        target.mkdir()
        with pytest.raises(OSError):
            write_volume(vol, target)

    def test_failed_payload_write_keeps_previous_volume(self, tmp_path, monkeypatch):
        """A payload write that fails after the header is staged changes no final file."""
        path = tmp_path / "m.json"
        old = make_mask(np.ones((2, 2, 3, 3), dtype=np.uint8),
                        channels=(ChannelId.ARTERY, ChannelId.TUMOR))
        write_volume(old, path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        real_open = open

        def failing(file, mode="r", *args, **kwargs):
            if str(file).endswith(".raw.tmp"):
                assert (tmp_path / "m.json.tmp").exists()  # the header is staged
                with real_open(file, mode, *args, **kwargs) as f:
                    f.write(b"\x01" * 5)
                raise OSError(28, "No space left on device")
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.setattr(volume, "open", failing, raising=False)
        new = make_mask(np.zeros((1, 4, 4, 4), dtype=np.uint8), channels=(ChannelId.VEIN,))
        with pytest.raises(OSError, match="No space left on device"):
            write_volume(new, path)
        monkeypatch.undo()
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
        back = read_volume(path)
        assert back.channels == old.channels and (back.data == old.data).all()

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_roundtrip_property(self, tmp_path_factory, data):
        seed = data.draw(st.integers(0, 2**31 - 1))
        gen = np.random.default_rng(seed)
        dims = tuple(int(d) for d in gen.integers(1, 5, size=3))
        n_ch = int(gen.integers(1, 4))
        channels = STANDARD_CHANNELS[:n_ch]
        tmp = tmp_path_factory.mktemp("rt")
        if gen.random() < 0.5:
            vol = make_mask(gen.integers(0, 2, size=(n_ch,) + dims), channels=channels)
        else:
            vol = make_prob(gen.random(size=(n_ch,) + dims, dtype=np.float32), channels=channels)
        write_volume(vol, tmp / "v.json")
        back = read_volume(tmp / "v.json")
        assert type(back) is type(vol)
        assert (back.data == vol.data).all()


class TestLayered:
    def test_label8_sets_vein_and_tumor(self):
        lv = LayeredLabelVolume(np.array([[[8]]], dtype=np.uint8), SP1)
        mv = decode_layered(lv)
        assert mv.channel(ChannelId.VEIN)[0, 0, 0] == 1
        assert mv.channel(ChannelId.TUMOR)[0, 0, 0] == 1
        for cid in (ChannelId.PANCREAS, ChannelId.ARTERY, ChannelId.PANCREATIC_DUCT):
            assert mv.channel(cid)[0, 0, 0] == 0

    def test_label0_background(self):
        mv = decode_layered(LayeredLabelVolume(np.zeros((1, 2, 2), dtype=np.uint8), SP1))
        assert mv.data.sum() == 0

    def test_label6_tumor_only(self):
        mv = decode_layered(LayeredLabelVolume(np.array([[[6]]], dtype=np.uint8), SP1))
        assert mv.channel(ChannelId.TUMOR)[0, 0, 0] == 1
        assert mv.data.sum() == 1

    def test_out_of_range_label_rejected(self):
        with pytest.raises(VolumeFormatError):
            LayeredLabelVolume(np.array([[[9]]], dtype=np.uint8), SP1)

    @pytest.mark.parametrize("value, dtype", [
        (7.9, np.float64), (2.5, np.float64), (-1, np.float64), (9, np.float64),
        (-1, np.int64), (9, np.int64),
    ])
    def test_non_label_values_rejected(self, value, dtype):
        """A value that is not an integer in 0..8 is rejected, not truncated to a label."""
        with pytest.raises(VolumeFormatError, match=r"layered labels must lie in 0\.\.8"):
            LayeredLabelVolume(np.array([[[0, value]]], dtype=dtype), SP1)

    def test_decode_then_encode_recovers_labels(self, rng):
        labels = rng.integers(0, 9, size=(3, 6, 6)).astype(np.uint8)
        lv = LayeredLabelVolume(labels, SP1)
        back = encode_layered(decode_layered(lv))
        assert (back.data == labels).all()

    @pytest.mark.parametrize("dtype", [np.uint8, bool])
    def test_data_built_read_only_input_left_writable(self, dtype):
        """The volume keeps only the labelled voxels: ``data`` is a fresh read-only grid each time."""
        labels = (np.arange(24).reshape(2, 3, 4) % 3 == 1).astype(dtype)
        lv = LayeredLabelVolume(labels, SP1)
        first, second = lv.data, lv.data
        assert first is not second and first is not labels
        assert first.dtype == np.uint8 and np.array_equal(first, labels)
        assert not first.flags.writeable and not second.flags.writeable
        assert labels.flags.writeable

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dims=st.tuples(st.integers(1, 4), st.integers(1, 7), st.integers(1, 9)),
        density=st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]),
        subset=st.sets(st.sampled_from(STANDARD_CHANNELS)),
        from_voxels=st.booleans(),
    )
    def test_encode_equals_grid_loop(self, seed, dims, density, subset, from_voxels):
        """Random overlapping channels, any subset of them (none included): labels as the grid loop."""
        gen = np.random.default_rng(seed)
        channels = tuple(c for c in STANDARD_CHANNELS if c in subset)
        data = (gen.random((len(channels),) + dims) < density).astype(np.uint8)
        mv = make_mask(data, channels=channels)
        if from_voxels:
            mv = MaskVolume.from_voxels({c: mv.voxels(c) for c in channels}, dims, SP1)
        got, want = encode_layered(mv), encode_layered_reference(mv)
        assert got.dims == want.dims == dims
        assert np.array_equal(got.data, want.data)
        for a, b in zip(got.labelled(), want.labelled()):
            assert np.array_equal(a, b) and a.dtype == b.dtype

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dims=st.tuples(st.integers(1, 5), st.integers(1, 7), st.integers(1, 9)),
        density=st.sampled_from([0.0, 0.05, 0.5, 1.0]),
    )
    def test_sparse_decode_matches_dense_reference(self, seed, dims, density):
        gen = np.random.default_rng(seed)
        labels = np.where(gen.random(dims) < density, gen.integers(1, 9, size=dims), 0).astype(np.uint8)
        mv = decode_layered(LayeredLabelVolume(labels, SP1))
        # the dense decode: OR over whole-grid compares, one per label
        assert mv.channels == STANDARD_CHANNELS
        for cid in STANDARD_CHANNELS:
            want = np.zeros(dims, dtype=bool)
            for label, targets in volume.LAYERED_DECODE.items():
                if cid in targets:
                    want |= labels == label
            assert np.array_equal(mv.channel(cid), want.view(np.uint8))
            assert np.array_equal(mv.voxels(cid), np.flatnonzero(want))


class TestSetVoxels:
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.lists(st.integers(0, 13), min_size=1, max_size=3),
        fill=st.sampled_from(["zeros", "ones", "sparse", "labels"]),
        strided=st.booleans(),
        dtype=st.sampled_from([np.uint8, bool]),
    )
    def test_equals_flatnonzero(self, seed, shape, fill, strided, dtype):
        gen = np.random.default_rng(seed)
        if strided:
            shape = [2 * n for n in shape]
        grid = {
            "zeros": np.zeros(shape, dtype=np.uint8),
            "ones": np.ones(shape, dtype=np.uint8),
            "sparse": (gen.random(shape) < 0.1).astype(np.uint8),
            "labels": gen.integers(0, 9, size=shape, dtype=np.uint8),
        }[fill].astype(dtype)
        if strided:
            grid = grid[(slice(None, None, 2),) * grid.ndim]
            assert not grid.flags.c_contiguous or grid.size <= 1
        got = set_voxels(grid)
        assert np.array_equal(got, np.flatnonzero(grid != 0))
        assert got.dtype == np.intp

    def test_rejects_wider_dtypes(self):
        with pytest.raises(TypeError):
            set_voxels(np.ones((2, 2), dtype=np.int16))


class TestVoxelIndex:
    def test_cached_read_only_and_equal_to_flatnonzero(self, rng):
        mv = make_mask(rng.integers(0, 2, size=(6, 3, 5, 7)))
        for cid in mv.channels:
            voxels = mv.voxels(cid)
            assert mv.voxels(cid) is voxels
            assert np.array_equal(voxels, np.flatnonzero(mv.channel(cid)))
            with pytest.raises(ValueError, match="read-only"):
                voxels[:1] = 0

    def test_decoded_index_is_read_only(self):
        mv = decode_layered(LayeredLabelVolume(np.full((1, 2, 3), 8, dtype=np.uint8), SP1))
        with pytest.raises(ValueError, match="read-only"):
            mv.voxels(ChannelId.VEIN)[0] = 1

    def test_missing_channel(self):
        mv = make_mask(np.zeros((1, 1, 2, 2)), channels=(ChannelId.VEIN,))
        with pytest.raises(volume.MissingChannelError):
            mv.voxels(ChannelId.ARTERY)


def _mask_array(_):
    return MaskVolume(np.eye(2, 3, dtype=np.uint8)[None, None], (ChannelId.TUMOR,), SP1)


def _prob_array(_):
    return ProbVolume(np.full((1, 1, 2, 3), 0.25, np.float32), (ChannelId.TUMOR,), SP1)


def _layered_array(_):
    return LayeredLabelVolume(np.arange(6, dtype=np.uint8).reshape(1, 2, 3), SP1)


def _read_back(build):
    def read(tmp_path):
        write_volume(build(tmp_path), tmp_path / "vol.json")
        return read_volume(tmp_path / "vol.json")
    return read


def _filtered(_):
    stack = np.zeros((2, 1, 2, 3), np.uint8)
    stack[0, 0, 0, 0] = stack[1, 0, 0, :2] = 1  # the vein touches the pancreas
    return filter_critical_volume(MaskVolume(stack, (ChannelId.PANCREAS, ChannelId.VEIN), SP1))


# Every kind of volume, by every path that builds one.
_EVERY_VOLUME = {
    "mask-array": _mask_array,
    "mask-from_voxels": lambda _: MaskVolume.from_voxels({ChannelId.VEIN: np.array([1, 4])},
                                                         (1, 2, 3), SP1),
    "mask-read": _read_back(_mask_array),
    "mask-decode_layered": lambda t: decode_layered(_layered_array(t)),
    "mask-filter_critical_volume": _filtered,
    "prob-array": _prob_array,
    "prob-read": _read_back(_prob_array),
    "layered-array": _layered_array,
    "layered-read": _read_back(_layered_array),
    "layered-encode_layered": lambda t: encode_layered(decode_layered(_layered_array(t))),
}


class TestChannelVolume:
    def test_stack_is_kept_and_grids_view_it(self):
        stack = np.zeros((2, 3, 4, 5), dtype=np.uint8)
        vol = MaskVolume(stack, (ChannelId.ARTERY, ChannelId.TUMOR), SP1)
        assert vol.data is stack
        assert all(vol.channel(c).base is stack and not vol.channel(c).flags.writeable
                   for c in vol.channels)
        assert vol.dims == (3, 4, 5)

    def test_grids_are_shared_and_stacked_on_request(self):
        """A filtered volume holds indices and shares the unfiltered ones; ``data`` builds a stack."""
        stack = np.zeros((3, 2, 3, 4), np.uint8)
        stack[0, 0, 0, 0] = 1  # the pancreas touches the vein
        stack[1, :, 1] = stack[1, 0, 0, 0] = 1
        stack[2, 1] = 1
        vol = MaskVolume(stack, (ChannelId.PANCREAS, ChannelId.VEIN, ChannelId.TUMOR), SP1)
        out = filter_critical_volume(vol)
        assert out.voxels(ChannelId.TUMOR) is vol.voxels(ChannelId.TUMOR)
        assert out.voxels(ChannelId.VEIN) is not vol.voxels(ChannelId.VEIN)
        assert not out.channel(ChannelId.VEIN).flags.writeable
        data = out.data
        assert data.shape == (3, 2, 3, 4) and not data.flags.writeable
        assert np.array_equal(data, np.stack([out.channel(c) for c in out.channels]))
        assert data is not out.data
        assert vol.data is stack

    def test_zero_channels_keep_dims(self):
        vol = MaskVolume(np.zeros((0, 3, 4, 5), np.uint8), (), SP1)
        assert vol.data.shape == (0, 3, 4, 5) and vol.dims == (3, 4, 5)

    @pytest.mark.parametrize("grids, match", [
        (np.zeros(0), "4-D"),
        (np.zeros((1, 1, 2, 2, 2)), "4-D"),
        (np.zeros((1, 2, 2)), "4-D"),
        ([np.zeros((2, 2, 2))] * 2, "channel count mismatch"),
        ([np.full((2, 2, 2), 2)], "0 or 1"),
    ])
    def test_bad_grids_rejected(self, grids, match):
        with pytest.raises(ValueError, match=match):
            MaskVolume(grids, (ChannelId.TUMOR,), SP1)

    @pytest.mark.parametrize("value", [np.nan, -0.25, 1.5])
    def test_probabilities_outside_unit_interval_rejected(self, value):
        data = np.full((1, 2, 2, 2), 0.5, np.float32)
        data[0, 1, 0, 1] = value
        with pytest.raises(VolumeFormatError, match=r"probabilities must lie in \[0, 1\]"):
            ProbVolume(data, (ChannelId.TUMOR,), SP1)
        with pytest.raises(VolumeFormatError, match=r"probabilities must lie in \[0, 1\]"):
            ProbVolume(np.full_like(data, value), (ChannelId.TUMOR,), SP1)

    @pytest.mark.parametrize("build", list(_EVERY_VOLUME.values()), ids=list(_EVERY_VOLUME))
    def test_immutable(self, tmp_path, build):
        vol = build(tmp_path)
        for name in ("spacing", "dims", "data"):
            with pytest.raises(AttributeError):
                setattr(vol, name, None)
            with pytest.raises(AttributeError):
                delattr(vol, name)
        arrays = [vol.data]
        if isinstance(vol, LayeredLabelVolume):
            arrays += vol.labelled()
        else:
            arrays += [vol.channel(c) for c in vol.channels]
        if isinstance(vol, MaskVolume):
            arrays += [vol.voxels(c) for c in vol.channels]
        assert not any(a.flags.writeable for a in arrays)
        assert vol.spacing == SP1 and vol.data.shape[-3:] == vol.dims == (1, 2, 3)

    @pytest.mark.parametrize("second", [np.zeros((1, 1, 2, 3)), "vol", None])
    def test_write_outputs_rejects_non_volume(self, tmp_path, second):
        """The type is checked before anything is staged: no ``.tmp`` file, no new directory."""
        out = tmp_path / "new" / "deeper"
        with pytest.raises(TypeError, match="not a volume"):
            volume.write_outputs({out / "a.json": _mask_array(tmp_path), out / "b.json": second},
                                 {out / "doc.txt": "text"})
        assert list(tmp_path.rglob("*")) == []


def _six_channel_payload(gen, dims):
    return gen.integers(0, 2, size=(len(STANDARD_CHANNELS),) + dims, dtype=np.uint8)


class TestChannelRead:
    """read_volume(path, channels) against the whole read of the same file."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dims=st.tuples(st.integers(1, 3), st.integers(1, 5), st.integers(1, 5)),
        order=st.permutations(STANDARD_CHANNELS),
        subset=st.sets(st.sampled_from(list(ChannelId))),
        stream_bytes=st.integers(1, 80),
    )
    def test_kept_grids_match_whole_read(self, tmp_path_factory, seed, dims, order, subset,
                                         stream_bytes):
        tmp = tmp_path_factory.mktemp("lazy")
        gen = np.random.default_rng(seed)
        dense = _six_channel_payload(gen, dims)
        write_volume(MaskVolume(dense, order, SP1), tmp / "v.json")
        whole = read_volume(tmp / "v.json")
        with mock.patch.object(volume, "_STREAM_BYTES", stream_bytes):
            part = read_volume(tmp / "v.json", subset)
        assert isinstance(part, MaskVolume)
        assert part.channels == tuple(c for c in order if c in subset)
        assert part.dims == dims and part.spacing == whole.spacing
        for cid in part.channels:
            assert np.array_equal(part.channel(cid), whole.channel(cid))
            assert np.array_equal(part.voxels(cid), set_voxels(dense[order.index(cid)]))

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dims=st.tuples(st.integers(1, 3), st.integers(1, 5), st.integers(1, 5)),
        subset=st.sets(st.sampled_from(STANDARD_CHANNELS)),
        bad=st.data(),
        stream_bytes=st.integers(1, 80),
    )
    def test_bad_voxel_in_any_channel(self, tmp_path_factory, seed, dims, subset, bad,
                                      stream_bytes):
        """A 2 in any channel, kept or streamed, gives the text of the whole read."""
        tmp = tmp_path_factory.mktemp("lazy")
        gen = np.random.default_rng(seed)
        payload = _six_channel_payload(gen, dims)
        channel = bad.draw(st.integers(0, len(STANDARD_CHANNELS) - 1))
        payload[channel].reshape(-1)[bad.draw(st.integers(0, payload[0].size - 1))] = 2
        names = [volume.CHANNEL_NAMES[c] for c in STANDARD_CHANNELS]
        path = _write_raw_pair(tmp, _header(list(dims), names, "u8"), payload.tobytes())
        with pytest.raises(VolumeFormatError) as whole:
            read_volume(path)
        with mock.patch.object(volume, "_STREAM_BYTES", stream_bytes), \
                pytest.raises(VolumeFormatError) as part:
            read_volume(path, subset)
        assert str(part.value) == str(whole.value) == f"{path}: mask voxels must be 0 or 1"

    def test_channels_ignored_for_layered_and_probabilities(self, tmp_path):
        lv = LayeredLabelVolume(np.array([[[0, 5], [7, 8]]], dtype=np.uint8), SP1)
        write_volume(lv, tmp_path / "l.json")
        assert isinstance(read_volume(tmp_path / "l.json", (ChannelId.TUMOR,)), LayeredLabelVolume)
        prob = make_prob(np.full((2, 1, 2, 2), 0.5), channels=(ChannelId.ARTERY, ChannelId.TUMOR))
        write_volume(prob, tmp_path / "p.json")
        back = read_volume(tmp_path / "p.json", (ChannelId.TUMOR,))
        assert back.channels == prob.channels

    @pytest.mark.parametrize("channels", [None, (ChannelId.TUMOR, ChannelId.ARTERY)])
    @pytest.mark.parametrize("kind", ["mask", "empty-mask", "layered", "probability"])
    def test_payload_read_equals_path_read(self, tmp_path, monkeypatch, kind, channels):
        """read_volume(open_payload(p), channels) is read_volume(p, channels), and parses no header."""
        gen = np.random.default_rng(4)
        dims = (2, 3, 5)
        if kind == "empty-mask":  # "channels": [] is a mask volume of no channel, not layered labels
            path = _write_raw_pair(tmp_path, _header(list(dims), [], "u8"), b"")
        else:
            vol = {
                "mask": lambda: MaskVolume(_six_channel_payload(gen, dims), STANDARD_CHANNELS, SP1),
                "layered": lambda: LayeredLabelVolume(gen.integers(0, 9, dims, dtype=np.uint8), SP1),
                "probability": lambda: make_prob(gen.random((3,) + dims),
                                                 channels=(ChannelId.VEIN, ChannelId.TUMOR,
                                                           ChannelId.ARTERY)),
            }[kind]()
            path = tmp_path / "v.json"
            write_volume(vol, path)
        by_path = read_volume(path, channels)
        payload = volume.open_payload(path)
        monkeypatch.setattr(volume, "open_payload", None)
        by_payload = read_volume(payload, channels)
        assert type(by_payload) is type(by_path)
        assert (by_payload.dims, by_payload.spacing) == (by_path.dims, by_path.spacing)
        assert getattr(by_payload, "channels", None) == getattr(by_path, "channels", None)
        assert by_payload.data.tobytes() == by_path.data.tobytes()
        if kind == "empty-mask":
            assert isinstance(by_path, MaskVolume) and by_path.channels == ()

    def test_header_errors_unchanged(self, tmp_path):
        path = _write_raw_pair(tmp_path, _header([2, 2, 2], ["tumor", "vein"], "u8"), b"\x01" * 15)
        with pytest.raises(VolumeFormatError, match="payload size mismatch: expected 16 bytes, got 15"):
            read_volume(path, (ChannelId.TUMOR,))


class TestStreamedReader:
    """Layered payloads through a buffer of a few bytes: the labelled voxels are exact.

    Six-channel payloads are covered by ``TestChannelRead``.
    """

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dims=st.tuples(st.integers(1, 3), st.integers(1, 7), st.integers(1, 7)),
        density=st.sampled_from([0.0, 0.1, 0.6, 1.0]),
        stream_bytes=st.sampled_from([1, 3, 5, 8, 13, 24]),
    )
    def test_layered_indices_equal_set_voxels(self, tmp_path_factory, seed, dims, density, stream_bytes):
        tmp = tmp_path_factory.mktemp("stream")
        gen = np.random.default_rng(seed)
        labels = np.where(gen.random(dims) < density, gen.integers(1, 9, size=dims), 0).astype(np.uint8)
        write_volume(LayeredLabelVolume(labels, SP1), tmp / "l.json")
        with mock.patch.object(volume, "_STREAM_BYTES", stream_bytes):
            lv = read_volume(tmp / "l.json")
        voxels, values = lv.labelled()
        assert np.array_equal(voxels, set_voxels(labels))
        assert np.array_equal(values, labels.reshape(-1)[voxels])
        assert np.array_equal(lv.data, labels) and not lv.data.flags.writeable
        dense = decode_layered(LayeredLabelVolume(labels, SP1))
        decoded = decode_layered(lv)
        for cid in dense.channels:
            assert np.array_equal(decoded.channel(cid), dense.channel(cid))

    @pytest.mark.parametrize("layered", [False, True])
    def test_read_holds_no_grid(self, tmp_path, monkeypatch, layered):
        """A read allocates well under one grid; ``data`` and ``channel`` build one on each request."""
        dense = np.zeros((2, 16, 256, 256), np.uint8)
        dense[1, 2, 3, 4:9] = dense[0, 0, 0, 0] = 1
        vol = MaskVolume(dense, (ChannelId.VEIN, ChannelId.TUMOR), SP1)
        write_volume(encode_layered(vol) if layered else vol, tmp_path / "v.json")
        monkeypatch.setattr(volume, "_STREAM_BYTES", 1 << 16)
        tracemalloc.start()
        try:
            back = read_volume(tmp_path / "v.json")
            if layered:
                back = decode_layered(back)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < dense[0].nbytes / 4
        assert back.voxels(ChannelId.TUMOR).tolist() == [2 * 256 * 256 + 3 * 256 + c for c in range(4, 9)]
        kept = [back.channels.index(c) for c in vol.channels]
        assert np.array_equal(back.data[kept], dense) and back.data is not back.data
        assert back.channel(ChannelId.VEIN) is not back.channel(ChannelId.VEIN)
        assert not back.channel(ChannelId.VEIN).flags.writeable


# Headers with no channels pass the size check with an empty payload; their
# dims overflow what numpy can allocate.
OVERSIZE_DIMS = ([10**20, 1, 1], [2**40, 2**40, 1], [2**31, 2**31, 4])


class TestOversizeDims:
    @pytest.mark.parametrize("dims", OVERSIZE_DIMS)
    @pytest.mark.parametrize("channels", [None, (ChannelId.TUMOR,)])
    def test_read_volume_names_dims(self, tmp_path, dims, channels):
        path = _write_raw_pair(tmp_path, _header(dims, [], "u8"), b"")
        with pytest.raises(VolumeFormatError, match=r"bad dims \[.*addressable"):
            read_volume(path, channels)


class TestProbChunks:
    """The one probability reader: chunked, clamped, checked over the whole payload."""

    def write(self, tmp_path, values) -> volume.Payload:
        payload = np.asarray(values, dtype="<f4")
        _write_raw_pair(tmp_path, _header([1, 1, payload.size], ["tumor"], "f32"), payload.tobytes())
        return volume.open_payload(tmp_path / "vol.json")

    def test_chunks_clamped_and_whole_read_agrees(self, tmp_path):
        gen = np.random.default_rng(4)
        values = gen.random(2 * volume.PROB_CHUNK + 5, dtype=np.float32)
        values[[3, volume.PROB_CHUNK + 1, -1]] = (-0.0005, 1.0009, -0.0)
        payload = self.write(tmp_path, values)
        chunks = [c.copy() for c in volume.prob_chunks(payload)]
        assert [c.size for c in chunks] == [volume.PROB_CHUNK, volume.PROB_CHUNK, 5]
        clamped = np.clip(values, 0.0, 1.0)
        assert np.concatenate(chunks).tobytes() == clamped.tobytes()
        assert read_volume(payload.path).data.tobytes() == clamped.tobytes()

    def test_parts_stay_inside_one_channel(self, tmp_path):
        """Every channel grid is read on its own: a part never takes voxels of the next channel."""
        grid = volume.PROB_CHUNK + 37
        values = np.random.default_rng(5).random(3 * grid, dtype=np.float32)
        _write_raw_pair(tmp_path, _header([1, 1, grid], ["artery", "vein", "tumor"], "f32"),
                        values.astype("<f4").tobytes())
        chunks = [c.copy() for c in volume.prob_chunks(volume.open_payload(tmp_path / "vol.json"))]
        assert [c.size for c in chunks] == [volume.PROB_CHUNK, 37] * 3
        assert np.concatenate(chunks).tobytes() == values.tobytes()

    def test_size_mismatch_names_header(self, tmp_path):
        _write_raw_pair(tmp_path, _header([1, 2, 2], ["tumor"], "f32"), bytes(12))
        with pytest.raises(VolumeFormatError) as exc:
            volume.open_payload(tmp_path / "vol.json")
        assert str(exc.value) == (
            f"{tmp_path / 'vol.json'}: payload size mismatch: expected 16 bytes, got 12"
        )

    def test_shrunk_payload(self, tmp_path):
        payload = self.write(tmp_path, np.full(volume.PROB_CHUNK + 3, 0.5))
        (tmp_path / "vol.raw").write_bytes(bytes(4 * volume.PROB_CHUNK))
        with pytest.raises(VolumeFormatError, match=r"^payload .*vol\.raw shrank while being read$"):
            list(volume.prob_chunks(payload))

    def test_range_checked_after_last_chunk(self, tmp_path):
        values = np.full(volume.PROB_CHUNK + 3, 0.5, dtype=np.float32)
        values[[0, -1]] = (1.5, -0.25)
        chunks = volume.prob_chunks(self.write(tmp_path, values))
        assert next(chunks)[0] == 1.0  # clamped; the whole range is not known yet
        with pytest.raises(VolumeFormatError) as exc:
            next(chunks)
            next(chunks)
        assert str(exc.value) == (f"{tmp_path / 'vol.json'}: probability values non-finite or "
                                  "outside tolerated range: min=-0.25, max=1.5")

    def test_read_volume_scans_values_once(self, tmp_path, monkeypatch):
        """``read_volume`` wraps the values ``prob_chunks`` checked; ``ProbVolume(...)`` never runs."""
        values = np.linspace(0.0, 1.0, volume.PROB_CHUNK + 3, dtype=np.float32)
        payload = self.write(tmp_path, values)
        scanned = []
        real = ProbVolume.__init__

        def spy(self, data, *rest):
            scanned.append(np.shape(data))
            real(self, data, *rest)

        monkeypatch.setattr(ProbVolume, "__init__", spy)
        vol = read_volume(payload.path)
        assert scanned == []
        assert isinstance(vol, ProbVolume) and vol.channels == (ChannelId.TUMOR,)
        assert vol.data.tobytes() == values.tobytes() and not vol.data.flags.writeable

    @pytest.mark.parametrize("bad, shown", [(1.5, "min=0.0, max=1.5"), (np.nan, "min=nan, max=nan")])
    def test_read_volume_rejects_bad_values(self, tmp_path, bad, shown):
        values = np.full(volume.PROB_CHUNK + 3, 0.5, dtype=np.float32)
        values[-2] = bad
        payload = self.write(tmp_path, values)
        with pytest.raises(VolumeFormatError) as exc:
            read_volume(payload.path)
        assert str(exc.value) == (f"{payload.path}: probability values non-finite or "
                                  f"outside tolerated range: {shown}")

    def test_mask_payload_rejected(self, tmp_path):
        _write_raw_pair(tmp_path, _header([1, 2, 2], ["tumor"], "u8"), bytes(4))
        with pytest.raises(VolumeFormatError, match="not a probability payload"):
            list(volume.prob_chunks(volume.open_payload(tmp_path / "vol.json")))
