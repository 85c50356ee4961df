import numpy as np
import pytest

from fractaldepth.core import DepthMap
from fractaldepth.errors import InputError
from fractaldepth.imgio import read_depth_pfm, read_pfm, write_pfm, write_pgm16


def _pgm_raster(path, h, w):
    """Check the header and size of a file write_pgm16 wrote; return its raster."""
    data = path.read_bytes()
    header = f"P5\n{w} {h}\n65535\n".encode("ascii")
    assert data.startswith(header) and len(data) == len(header) + 2 * h * w
    return np.frombuffer(data[len(header):], dtype=">u2").reshape(h, w)


class TestPgm16:
    def test_round_trip_quantized(self, tmp_path):
        rng = np.random.default_rng(0)
        d = DepthMap(values=rng.uniform(0.5, 8.0, (7, 5)))
        path = tmp_path / "d.pgm"
        write_pgm16(path, d, counts_per_meter=256.0)
        raster = _pgm_raster(path, 7, 5)
        assert np.array_equal(raster, np.round(d.values * 256.0))
        # quantization at 256 counts/m: error bounded by half a count
        assert np.max(np.abs(raster / 256.0 - d.values)) <= 0.5 / 256.0

    def test_counts_clipped(self, tmp_path):
        # valid pixels keep a count in [1, 65535]: 0 is reserved for invalid
        d = DepthMap(values=np.array([[1e-6, 0.5, 1e3]]))
        path = tmp_path / "c.pgm"
        write_pgm16(path, d, counts_per_meter=256.0)
        assert _pgm_raster(path, 1, 3).tolist() == [[1, 128, 65535]]

    def test_invalid_pixels_zero(self, tmp_path):
        mask = np.ones((4, 4), dtype=bool)
        mask[1, 2] = False
        d = DepthMap(values=np.full((4, 4), 2.0), valid_mask=mask)
        path = tmp_path / "m.pgm"
        write_pgm16(path, d)
        raster = _pgm_raster(path, 4, 4)
        assert raster[1, 2] == 0
        assert np.all(raster[mask] == 512)

    def test_header_format(self, tmp_path):
        d = DepthMap(values=np.ones((2, 3)))
        path = tmp_path / "h.pgm"
        write_pgm16(path, d)
        data = path.read_bytes()
        assert data.startswith(b"P5\n3 2\n65535\n")
        assert len(data) == len(b"P5\n3 2\n65535\n") + 2 * 3 * 2

    def test_raster_bytes_resembling_whitespace(self, tmp_path):
        # counts of 0x0A0A etc. are written as they are, big-endian, right
        # after the single newline that ends the header
        counts = np.array([[0x0A0A, 0x2020], [0x0D0A, 0x0909]], dtype=">u2")
        path = tmp_path / "ws.pgm"
        write_pgm16(path, DepthMap(values=counts.astype(np.float64)), counts_per_meter=1.0)
        assert path.read_bytes() == b"P5\n2 2\n65535\n" + counts.tobytes()


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
        write_pfm(path, d.values)
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


class TestTruncatedAndMalformed:
    @pytest.mark.parametrize("write, read", [(_valid_pfm, read_pfm)], ids=["pfm"])
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
                                        b"Pf\n3 2\nscale\n", b"Pf\n-3 2\n-1.0\n",
                                        # rasters that f.read cannot even allocate
                                        b"Pf\n100000 100000\n-1.0\n",
                                        b"Pf\n4000000000 4000000000\n-1.0\n"])
    def test_malformed_pfm_header(self, tmp_path, header):
        path = tmp_path / "bad.pfm"
        path.write_bytes(header + b"\0" * 24)
        with pytest.raises(InputError, match="bad.pfm"):
            read_pfm(path)
