"""JSON schema for density matrices."""

from __future__ import annotations

import json

import numpy as np


def density_to_json(rho: np.ndarray) -> dict:
    """{"dim": n, "re": [[...]], "im": [[...]]}"""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError("density matrix must be square")
    return {
        "dim": rho.shape[0],
        "re": rho.real.tolist(),
        "im": rho.imag.tolist(),
    }


def density_from_json(obj: dict) -> np.ndarray:
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object with dim, re and im, got {type(obj).__name__}")
    dim = int(obj["dim"])
    re = np.asarray(obj["re"], dtype=float)
    im = np.asarray(obj["im"], dtype=float)
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise ValueError("re/im shapes do not match dim")
    return re + 1j * im


def load_density(path: str) -> np.ndarray:
    with open(path) as fh:
        return density_from_json(json.load(fh))


def save_density(path: str, rho: np.ndarray):
    with open(path, "w") as fh:
        json.dump(density_to_json(rho), fh)
