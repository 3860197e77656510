"""Seeded generator of the model and noise files the benchmark jobs read.

Every file is a function of the workload seed alone.  Dense models have a
planted spectrum: half of the eigenvalues inside the disc with moduli in
[0.4, 0.85], half outside with moduli in [1.25, 2.2], conjugated by an
eigenbasis of condition number exactly ``BASIS_COND``.  The extreme moduli
0.85 and 1.25 are always present, so the decay rate that sets truncation
depth and quadrature node counts is the same for every seed, while the
rest of the spectrum, the eigenbasis and the moving-average operators vary.

AR(2) models are built as (I - zC1)(I - zC2) from two planted factors, so
the companion spectrum is eig(C1) | eig(C2) and avoids the circle by
construction.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

INNER = (0.4, 0.85)
OUTER = (1.25, 2.2)
BASIS_COND = 10.0


def _pairs(m: np.ndarray) -> list:
    """Complex matrix in the oparma file encoding: [re, im] per entry."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def planted_matrix(rng: np.random.Generator, d: int) -> np.ndarray:
    """d x d matrix with half its spectrum inside INNER, half inside OUTER."""
    n_in = d // 2
    inner = rng.uniform(*INNER, size=n_in)
    outer = rng.uniform(*OUTER, size=d - n_in)
    inner[0], outer[0] = INNER[1], OUTER[0]
    moduli = np.concatenate([inner, outer])
    eigs = moduli * np.exp(2j * np.pi * rng.uniform(size=d))
    sigma = np.geomspace(1.0, BASIS_COND, d)
    basis = (_unitary(rng, d) * sigma) @ _unitary(rng, d).conj().T
    return basis @ np.diag(eigs) @ np.linalg.inv(basis)


def _dense(m: np.ndarray) -> dict:
    return {"kind": "dense", "dim": m.shape[0], "params": {"entries": _pairs(m)}}


def _ma_ops(rng: np.random.Generator, d: int, q: int) -> list:
    ops = [{"kind": "identity", "dim": d}]
    for _ in range(q):
        b = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / (2 * np.sqrt(d))
        ops.append(_dense(b))
    return ops


def ar1_model(rng, d: int, q: int = 2) -> dict:
    return {"ar": [_dense(planted_matrix(rng, d))], "ma": _ma_ops(rng, d, q)}


def ar2_model(rng, d: int, q: int = 2) -> dict:
    c1, c2 = planted_matrix(rng, d), planted_matrix(rng, d)
    return {"ar": [_dense(c1 + c2), _dense(-c1 @ c2)], "ma": _ma_ops(rng, d, q)}


def volterra_model(rng, d: int) -> dict:
    mult = rng.uniform(0.2, 0.6, size=d)
    return {
        "ar": [{"kind": "volterra", "dim": d}],
        "ma": [
            {"kind": "identity", "dim": d},
            {"kind": "multiplication", "dim": d, "params": {"multipliers": mult.tolist()}},
        ],
    }


def multiplication_model(rng, d: int) -> dict:
    """Diagonal AR operator with multipliers on both sides of the circle."""
    n_in = d // 2
    moduli = np.concatenate(
        [rng.uniform(*INNER, size=n_in), rng.uniform(*OUTER, size=d - n_in)]
    )
    moduli[0], moduli[n_in] = INNER[1], OUTER[0]
    lam = moduli * np.exp(2j * np.pi * rng.uniform(size=d))
    return {
        "ar": [{"kind": "multiplication", "dim": d, "params": {"multipliers": _pairs([lam])[0]}}],
        "ma": [{"kind": "identity", "dim": d}],
    }


def jordan_model(d: int = 6) -> dict:
    """Jordan-like block: diagonal 0.5, superdiagonal 1, B_0 = I."""
    m = 0.5 * np.eye(d) + np.eye(d, k=1)
    return {"ar": [{"kind": "dense", "dim": d, "params": {"entries": m.tolist()}}],
            "ma": [{"kind": "identity", "dim": d}]}


def gaussian_noise(d: int, seed: int) -> dict:
    return {"kind": "gaussian", "dim": d, "params": {"sigma": 1.0}, "seed": seed}


def heavy_noise(kind: str, d: int, seed: int) -> dict:
    return {"kind": kind, "dim": d, "params": {}, "seed": seed}


class InputWriter:
    """Writes input files into one directory, each from its own stream.

    Each file draws from a generator keyed by (workload seed, file name),
    so adding or dropping a file leaves the other files unchanged.
    """

    def __init__(self, directory: Path, seed: int):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.seed = int(seed)

    def rng(self, name: str) -> np.random.Generator:
        key = [int(b) for b in name.encode()]
        return np.random.default_rng([self.seed, *key])

    def noise_seed(self, name: str) -> int:
        return int(self.rng(name).integers(0, 2**31 - 1))

    def write(self, name: str, document: dict) -> str:
        path = self.directory / f"{name}.json"
        path.write_text(json.dumps(document))
        return str(path)
