import numpy as np
import pytest

from hormspace import gridio
from hormspace import plus_spaces as ps
from hormspace import spectra as sp


def test_binary_round_trip(tmp_path, small_lattice):
    g = sp.random_grid(small_lattice, 42)
    path = tmp_path / "g.hgrd"
    gridio.save_grid(path, g)
    g2, region = gridio.load_grid(path)
    assert region is None
    assert g2.lattice == small_lattice
    # complex64 storage: single precision accuracy
    assert np.max(np.abs(g2.samples - g.samples)) < 1e-5


def test_binary_header_layout(tmp_path, small_lattice):
    g = sp.random_grid(small_lattice, 1)
    path = tmp_path / "g.hgrd"
    gridio.save_grid(path, g)
    raw = path.read_bytes()
    assert raw[:4] == b"HGRD"
    assert len(raw) == 32 + 8 * small_lattice.size


def test_mask_section_round_trip(tmp_path, small_lattice):
    g = sp.random_grid(small_lattice, 2)
    region = ps.time_window_region(small_lattice, 0.0, small_lattice.L_t / 4)
    path = tmp_path / "gr.hgrd"
    gridio.save_grid(path, g, region)
    _g2, r2 = gridio.load_grid(path)
    assert np.array_equal(r2.v_mask, region.v_mask)
    assert np.array_equal(r2.t_nonneg_mask, region.t_nonneg_mask)


def test_json_round_trip(small_lattice):
    g = sp.random_grid(small_lattice, 3)
    g2 = gridio.grid_from_json(gridio.grid_to_json(g))
    assert np.array_equal(g2.samples, g.samples)
    assert g2.lattice == g.lattice


def test_reject_non_finite_header_period(tmp_path):
    # a NaN period in the HGRD header is refused when the lattice is built
    path = tmp_path / "nan.hgrd"
    path.write_bytes(gridio._HEADER.pack(b"HGRD", 1, 8, 8, float("nan"), 1.0) + bytes(8 * 64))
    with pytest.raises(ValueError, match="finite"):
        gridio.load_grid(path)


def test_reject_garbage(tmp_path):
    path = tmp_path / "bad.hgrd"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ValueError):
        gridio.load_grid(path)


def test_reject_truncated_samples_and_malformed_masks(tmp_path, small_lattice):
    g = sp.random_grid(small_lattice, 4)
    region = ps.time_window_region(small_lattice, 0.0, small_lattice.L_t / 4)
    path = tmp_path / "gr.hgrd"
    gridio.save_grid(path, g, region)
    raw = path.read_bytes()
    samples_end = 32 + 8 * small_lattice.size
    for cut, message in [(samples_end - 1, "truncated sample section"),
                         (samples_end + 1, "malformed mask section"),
                         (len(raw) - 1, "malformed mask section")]:
        path.write_bytes(raw[:cut])
        with pytest.raises(ValueError, match=message):
            gridio.load_grid(path)
    path.write_bytes(raw[:samples_end])
    g2, region2 = gridio.load_grid(path)
    assert region2 is None
    assert np.array_equal(g2.samples, g.samples.astype(np.complex64))
