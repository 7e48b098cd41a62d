import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vesselwrap.volume import (
    ChannelId,
    LayeredLabelVolume,
    MaskVolume,
    ProbVolume,
    Spacing,
    STANDARD_CHANNELS,
    VolumeFormatError,
    decode_layered,
    encode_layered,
    read_volume,
    write_volume,
)
from conftest import make_mask, make_prob

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

    def test_decode_then_encode_recovers_labels(self, rng):
        labels = rng.integers(0, 9, size=(3, 6, 6)).astype(np.uint8)
        lv = LayeredLabelVolume(labels, SP1)
        back = encode_layered(decode_layered(lv))
        assert (back.data == labels).all()
