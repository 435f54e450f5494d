"""Grid file I/O.

Binary layout ("HGRD", 32-byte header, little endian):

    offset  size  field
    0       4     magic b"HGRD"
    4       4     uint32 k       (spatial dimension)
    8       4     uint32 n_x
    12      4     uint32 n_t
    16      8     float64 L_x
    24      8     float64 L_t

followed by n_x**k * n_t complex64 samples in C order.  When a region is
stored alongside the grid, two bit-packed mask sections follow the samples
(v_mask first, then t_nonneg_mask, each ceil(N/8) bytes); presence is
detected from the file length.

Small grids can also round-trip through JSON at full double precision.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .plus_spaces import RegionMask
from .spectra import GridFunction, Lattice

__all__ = ["save_grid", "load_grid", "grid_to_json", "grid_from_json"]

_MAGIC = b"HGRD"
_HEADER = struct.Struct("<4sIIIdd")


def save_grid(path, g: GridFunction, region: RegionMask | None = None) -> None:
    lat = g.lattice
    header = _HEADER.pack(_MAGIC, lat.k, lat.n_x, lat.n_t, lat.L_x, lat.L_t)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(g.samples.astype(np.complex64)).tobytes())
        if region is not None:
            if region.lattice != lat:
                raise ValueError("region lattice differs from grid lattice")
            fh.write(np.packbits(region.v_mask.ravel(order="C")).tobytes())
            fh.write(np.packbits(region.t_nonneg_mask.ravel(order="C")).tobytes())


def load_grid(path) -> tuple[GridFunction, RegionMask | None]:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size or raw[:4] != _MAGIC:
        raise ValueError(f"{path}: not an HGRD grid file")
    magic, k, n_x, n_t, L_x, L_t = _HEADER.unpack_from(raw, 0)
    lat = Lattice(k=int(k), n_x=int(n_x), n_t=int(n_t), L_x=L_x, L_t=L_t)
    n = lat.size
    # every section is read in place by its offset into raw, not sliced out
    # of it, since a bytes slice is a copy
    masks_at = _HEADER.size + 8 * n
    if len(raw) < masks_at:
        raise ValueError(f"{path}: truncated sample section")
    with np.errstate(invalid="ignore"):  # a signalling nan, which GridFunction refuses
        samples = np.frombuffer(raw, dtype="<c8", count=n, offset=_HEADER.size).astype(complex)
    g = GridFunction(lat, samples.reshape(lat.shape))
    if len(raw) == masks_at:
        return g, None
    mask_bytes = (n + 7) // 8
    if len(raw) - masks_at != 2 * mask_bytes:
        raise ValueError(f"{path}: malformed mask section")

    def mask(at):
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8, count=mask_bytes, offset=at))
        return bits[:n].astype(bool).reshape(lat.shape)

    return g, RegionMask(lat, mask(masks_at), mask(masks_at + mask_bytes))


def grid_to_json(g: GridFunction) -> str:
    lat = g.lattice
    flat = g.samples.ravel(order="C")
    return json.dumps(
        {
            "k": lat.k,
            "n_x": lat.n_x,
            "n_t": lat.n_t,
            "L_x": lat.L_x,
            "L_t": lat.L_t,
            "re": flat.real.tolist(),
            "im": flat.imag.tolist(),
        }
    )


def grid_from_json(text: str) -> GridFunction:
    d = json.loads(text)
    lat = Lattice(k=d["k"], n_x=d["n_x"], n_t=d["n_t"], L_x=d["L_x"], L_t=d["L_t"])
    flat = np.asarray(d["re"], dtype=float) + 1j * np.asarray(d["im"], dtype=float)
    if flat.size != lat.size:
        raise ValueError("sample count does not match lattice")
    return GridFunction(lat, flat.reshape(lat.shape))
