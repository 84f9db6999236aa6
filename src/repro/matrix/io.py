"""Serialization of BAND-DENSE-TLR matrices to ``.npz`` archives.

Compressing a large covariance problem is the expensive step of the
pipeline (one SVD per tile); persisting the compressed matrix lets MLE
runs, benchmarks, and post-mortem analyses reload it instantly.  The
format is a flat NumPy archive:

* ``__meta__`` — ``[n, tile_size, band_size, eps-mantissa...]`` header;
* per tile ``(i, j)``: ``D_i_j`` for dense data, or ``U_i_j`` / ``V_i_j``
  for low-rank factors.

Only NumPy is involved — no pickle — so archives are portable and safe
to load from untrusted sources.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from ..linalg.compression import TruncationRule
from ..linalg.tiles import DenseTile, LowRankTile
from ..utils.exceptions import ConfigurationError
from .descriptor import TileDescriptor
from .tlr_matrix import BandTLRMatrix

__all__ = ["save_matrix", "load_matrix"]

_FORMAT_VERSION = 1


def save_matrix(matrix: BandTLRMatrix, path: str | Path) -> Path:
    """Write a matrix (compressed or factorized) to ``path`` (.npz)."""
    matrix.require_realized("save_matrix")
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    arrays: dict[str, np.ndarray] = {}
    meta = {
        "version": _FORMAT_VERSION,
        "n": matrix.n,
        "tile_size": matrix.desc.tile_size,
        "band_size": matrix.band_size,
        "rule": {
            "eps": matrix.rule.eps,
            "norm": matrix.rule.norm,
            "relative": matrix.rule.relative,
            "maxrank": matrix.rule.maxrank,
        },
    }
    arrays["__meta__"] = np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8
    ).copy()
    for (i, j), tile in matrix.tiles.items():
        if isinstance(tile, DenseTile):
            arrays[f"D_{i}_{j}"] = tile.data
        else:
            arrays[f"U_{i}_{j}"] = tile.u
            arrays[f"V_{i}_{j}"] = tile.v
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(path, **arrays)
    return path


def load_matrix(path: str | Path) -> BandTLRMatrix:
    """Load a matrix previously written by :func:`save_matrix`."""
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"no such file: {path}")
    with np.load(path) as data:
        if "__meta__" not in data:
            raise ConfigurationError(f"{path} is not a repro matrix archive")
        meta = json.loads(bytes(data["__meta__"]).decode("utf-8"))
        if meta.get("version") != _FORMAT_VERSION:
            raise ConfigurationError(
                f"unsupported archive version {meta.get('version')!r}"
            )
        rule = TruncationRule(
            eps=meta["rule"]["eps"],
            norm=meta["rule"]["norm"],
            relative=meta["rule"]["relative"],
            maxrank=meta["rule"]["maxrank"],
        )
        desc = TileDescriptor(meta["n"], meta["tile_size"])
        matrix = BandTLRMatrix(
            desc=desc, band_size=meta["band_size"], rule=rule
        )
        dense_keys = [k for k in data.files if k.startswith("D_")]
        u_keys = [k for k in data.files if k.startswith("U_")]
        for key in dense_keys:
            _, i, j = key.split("_")
            matrix.tiles[(int(i), int(j))] = DenseTile(data[key])
        for key in u_keys:
            _, i, j = key.split("_")
            vkey = f"V_{i}_{j}"
            if vkey not in data:
                raise ConfigurationError(f"archive missing factor {vkey}")
            matrix.tiles[(int(i), int(j))] = LowRankTile(data[key], data[vkey])

    expected = set(desc.lower_tiles())
    if set(matrix.tiles) != expected:
        missing = expected - set(matrix.tiles)
        raise ConfigurationError(
            f"archive incomplete: {len(missing)} tiles missing (e.g. "
            f"{sorted(missing)[:3]})"
        )
    return matrix
