import struct

import numpy as np
import pytest

from blast import io
from blast.errors import DataError, ParseError
from blast.evalsim import SimScenario, generate
from blast.posterior import BlastConfig, run_blast
from blast.spectral import LatentDims


@pytest.fixture(scope="module", params=["selected", "q_zero"])
def fit(request):
    if request.param == "selected":
        ds, _ = generate(SimScenario(n_studies=3, n_per_study=100, p=40, k0=2, q_s=2,
                                     loading_sd=1.0, seed=31))
        return run_blast(ds, BlastConfig(n_mc=12, seed=3))
    ds, _ = generate(SimScenario(n_studies=2, n_per_study=50, p=30, k0=2, q_s=(0, 2),
                                 loading_sd=1.0, seed=19))
    dims = LatentDims(k0=2, k_s=(2, 4), q_s=(0, 2))
    return run_blast(ds, BlastConfig(dims=dims, n_mc=10, seed=2))


@pytest.fixture(scope="module")
def draws_file(fit, tmp_path_factory):
    out = tmp_path_factory.mktemp("draws")
    io.write_draws(out / "draws.bin", fit.draws, out / "draws_manifest.json")
    return out / "draws.bin"


def parse_draws_bin(raw):
    """The README layout, read without blast.io: header, then blocks of
    u8 ndim, ndim x u64 dims and row-major little-endian f64 data."""
    magic, version, n_blocks = struct.unpack_from("<8sIQ", raw, 0)
    off = 20
    blocks = []
    for _ in range(n_blocks):
        ndim = raw[off]
        shape = struct.unpack_from(f"<{ndim}Q", raw, off + 1)
        off += 1 + 8 * ndim
        count = int(np.prod(shape))
        blocks.append(np.frombuffer(raw, dtype="<f8", count=count, offset=off).reshape(shape))
        off += 8 * count
    assert off == len(raw)
    return magic, version, blocks


class TestDrawFormat:
    def test_roundtrip_is_bit_equal(self, fit, draws_file):
        back = io.read_draws(draws_file)
        assert len(back) == len(fit.draws)
        assert np.array_equal(back.lambda_tilde, fit.draws.lambda_tilde)
        assert np.array_equal(back.sigma_tilde_sq, fit.draws.sigma_tilde_sq)
        assert len(back.gamma_tilde_s) == len(fit.draws.gamma_tilde_s)
        for got, want in zip(back.gamma_tilde_s, fit.draws.gamma_tilde_s):
            assert got.shape == want.shape
            assert np.array_equal(got, want)

    def test_independent_parse_matches_manifest(self, fit, draws_file):
        manifest = io.read_json(draws_file.parent / "draws_manifest.json",
                                schema="draws_manifest")
        magic, version, blocks = parse_draws_bin(draws_file.read_bytes())
        assert magic.decode() == manifest["magic"]
        assert version == manifest["version"] == io.DRAWS_VERSION == 2
        t, p = manifest["n_mc"], manifest["p"]
        shapes = {"lambda": (t, p, manifest["k0"]), "sigma_sq": (t, p)}
        shapes.update({f"gamma_{s}": (t, p, q) for s, q in enumerate(manifest["q_s"], start=1)})
        assert [b.shape for b in blocks] == [shapes[name] for name in manifest["block_order"]]
        arrays = (fit.draws.lambda_tilde, *fit.draws.gamma_tilde_s, fit.draws.sigma_tilde_sq)
        for block, want in zip(blocks, arrays, strict=True):
            assert np.array_equal(block, want)


class TestReadDrawsErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            io.read_draws(tmp_path / "missing.bin")

    @pytest.mark.parametrize("keep", [0, 5, 13])
    def test_short_header(self, draws_file, tmp_path, keep):
        bad = tmp_path / "short.bin"
        bad.write_bytes(draws_file.read_bytes()[:keep])
        with pytest.raises(ParseError, match="short.bin"):
            io.read_draws(bad)

    def test_truncated_block(self, draws_file, tmp_path):
        bad = tmp_path / "half.bin"
        raw = draws_file.read_bytes()
        bad.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(ParseError, match="half.bin.*past the end"):
            io.read_draws(bad)

    def test_huge_dims_do_not_allocate(self, tmp_path):
        # 2^63 x 2^63 doubles overflow a fixed-width product
        bad = tmp_path / "huge.bin"
        bad.write_bytes(io.DRAWS_MAGIC + struct.pack("<IQ", 2, 3)
                        + struct.pack("<B2Q", 2, 2**63, 2**63))
        with pytest.raises(ParseError, match="huge.bin.*past the end"):
            io.read_draws(bad)

    def test_version_1_rejected(self, draws_file, tmp_path):
        bad = tmp_path / "v1.bin"
        raw = bytearray(draws_file.read_bytes())
        raw[8:12] = struct.pack("<I", 1)
        bad.write_bytes(bytes(raw))
        with pytest.raises(ParseError, match="v1.bin.*version 1"):
            io.read_draws(bad)

    @pytest.mark.parametrize("case", ["ndim", "n_draws", "p"])
    def test_inconsistent_blocks(self, tmp_path, case):
        lam = np.zeros((4, 6, 2))
        sig = {"ndim": np.zeros((4, 6, 1)), "n_draws": np.zeros((3, 6)),
               "p": np.zeros((4, 5))}[case]
        bad = tmp_path / f"{case}.bin"
        with bad.open("wb") as fh:
            fh.write(io.DRAWS_MAGIC + struct.pack("<IQ", 2, 2))
            io._write_block(fh, lam)
            io._write_block(fh, sig)
        with pytest.raises(ParseError, match=f"{case}.bin"):
            io.read_draws(bad)
