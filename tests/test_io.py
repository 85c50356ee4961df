import numpy as np
import pytest

from fractaldepth.core import DepthMap
from fractaldepth.errors import InputError
from fractaldepth.imgio import (read_depth_pfm, read_pfm, read_pgm16, write_depth_pfm,
                                write_pfm, write_pgm16)


class TestPgm16:
    def test_round_trip_quantized(self, tmp_path):
        rng = np.random.default_rng(0)
        d = DepthMap(values=rng.uniform(0.5, 8.0, (7, 5)))
        path = tmp_path / "d.pgm"
        write_pgm16(path, d, counts_per_meter=256.0)
        back = read_pgm16(path, counts_per_meter=256.0)
        assert back.values.shape == (7, 5)
        # quantization at 256 counts/m: error bounded by half a count
        assert np.max(np.abs(back.values - d.values)) <= 0.5 / 256.0
        assert np.all(back.valid_mask)

    def test_invalid_pixels_zero(self, tmp_path):
        mask = np.ones((4, 4), dtype=bool)
        mask[1, 2] = False
        d = DepthMap(values=np.full((4, 4), 2.0), valid_mask=mask)
        path = tmp_path / "m.pgm"
        write_pgm16(path, d)
        back = read_pgm16(path)
        assert not back.valid_mask[1, 2]
        assert back.valid_mask.sum() == 15

    def test_header_format(self, tmp_path):
        d = DepthMap(values=np.ones((2, 3)))
        path = tmp_path / "h.pgm"
        write_pgm16(path, d)
        data = path.read_bytes()
        assert data.startswith(b"P5\n3 2\n65535\n")
        assert len(data) == len(b"P5\n3 2\n65535\n") + 2 * 3 * 2

    def test_raster_bytes_resembling_whitespace(self, tmp_path):
        # counts of 0x0A0A etc. must survive: the reader may not treat
        # raster bytes as header whitespace
        counts = np.array([[0x0A0A, 0x2020], [0x0D0A, 0x0909]], dtype=">u2")
        path = tmp_path / "ws.pgm"
        path.write_bytes(b"P5\n2 2\n65535\n" + counts.tobytes())
        back = read_pgm16(path, counts_per_meter=1.0)
        assert np.array_equal(back.values, counts.astype(np.float64))

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "x.pgm"
        path.write_bytes(b"P2\n2 2\n65535\n" + b"\0" * 8)
        with pytest.raises(InputError):
            read_pgm16(path)

    def test_wrong_maxval(self, tmp_path):
        path = tmp_path / "x.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + b"\0" * 4)
        with pytest.raises(InputError):
            read_pgm16(path)


class TestPfm:
    def test_round_trip_float32_exact(self, tmp_path):
        vals = np.random.default_rng(1).normal(size=(6, 9)).astype(np.float32)
        path = tmp_path / "v.pfm"
        write_pfm(path, vals)
        back = read_pfm(path)
        assert np.array_equal(back, vals.astype(np.float64))

    def test_bottom_up_row_order(self, tmp_path):
        vals = np.arange(6.0).reshape(3, 2)
        path = tmp_path / "r.pfm"
        write_pfm(path, vals)
        raw = path.read_bytes()
        header = b"Pf\n2 3\n-1.0\n"
        assert raw.startswith(header)
        first_stored = np.frombuffer(raw[len(header):len(header) + 8], dtype="<f4")
        # the file stores the bottom image row first
        assert np.array_equal(first_stored, vals[-1].astype(np.float32))

    def test_depth_round_trip_mask(self, tmp_path):
        d = DepthMap(values=np.random.default_rng(2).uniform(0.5, 5.0, (4, 4)))
        path = tmp_path / "d.pfm"
        write_depth_pfm(path, d)
        back = read_depth_pfm(path)
        assert np.max(np.abs(back.values - d.values)) <= 1e-6
        assert np.all(back.valid_mask)

    def test_not_2d_rejected(self, tmp_path):
        with pytest.raises(InputError):
            write_pfm(tmp_path / "x.pfm", np.zeros((2, 2, 3)))

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "x.pfm"
        path.write_bytes(b"PF\n2 2\n-1.0\n" + b"\0" * 48)
        with pytest.raises(InputError):
            read_pfm(path)


def _valid_pfm(path):
    write_pfm(path, np.arange(6.0).reshape(2, 3))


def _valid_pgm(path):
    write_pgm16(path, DepthMap(values=np.full((2, 3), 2.0)))


class TestTruncatedAndMalformed:
    @pytest.mark.parametrize("write, read", [(_valid_pfm, read_pfm), (_valid_pgm, read_pgm16)],
                             ids=["pfm", "pgm"])
    def test_every_byte_prefix_rejected(self, tmp_path, write, read):
        path = tmp_path / "full"
        write(path)
        data = path.read_bytes()
        read(path)  # the whole file reads
        cut = tmp_path / "cut"
        for n in range(len(data)):
            cut.write_bytes(data[:n])
            with pytest.raises(InputError):
                read(cut)

    @pytest.mark.parametrize("header", [b"Pf\n3\n-1.0\n", b"Pf\n3 2 1\n-1.0\n", b"Pf\nx 2\n-1.0\n",
                                        b"Pf\n3 2\nscale\n", b"Pf\n-3 2\n-1.0\n"])
    def test_malformed_pfm_header(self, tmp_path, header):
        path = tmp_path / "bad.pfm"
        path.write_bytes(header + b"\0" * 24)
        with pytest.raises(InputError):
            read_pfm(path)

    def test_malformed_pgm_header(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P5\n3 -2\n65535\n" + b"\0" * 12)
        with pytest.raises(InputError):
            read_pgm16(path)
