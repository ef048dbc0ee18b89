"""Seeded inputs for the three benchmark workloads.

The seed never changes how much work a workload does; every amplitude and grid
is fixed.

- 2-D workloads: the seed sets phases.  Each config draws a shift of k/16 of
  the period per axis and applies it as a phase to every trig coefficient of
  that config: potential, drift and manufactured solution alike.  Every grid is
  a multiple of 16, so a shifted discrete problem is the unshifted one rolled by
  k*n/16 points, up to rounding.  Newton takes the same steps on every shift,
  and the worker rolls the outputs back, so one stored reference checks every
  seed.
- `batch-1d`: the 1-D solves sit at the residual floor, where a rounding-level
  change of the input moves the Newton path (n = 512 takes 23 to 81 iterations
  over the shifts).  So the seed does not shift them.  It orders the sweep's
  value lists, and with them the sweep's cells; every problem stays the same.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

WORKLOADS = ("solve-2d", "mms-2d", "batch-1d")
LATTICE = 16

# The reference set of ROADMAP's baseline table, and a strong set with m in about [0.34, 2.56].
REFERENCE_SET = (0.5, 0.3)  # (a cos amplitude, b sin amplitude)
STRONG_SET = (4.0, 4.0)

SOLVE_2D_N = 48
MMS_2D_GRIDS = [16, 32, 64]
SWEEP_N = 256
SWEEP = {
    "alphas": [0.0, 0.3, 0.6, 0.9],
    "kappas": [0.0, 1.0, 2.0],
    "drift_scales": [0.0, 1.0, 3.0],
}
MMS_1D_GRIDS = [32, 64, 128, 256, 512]
SOLVE_1D_NS = (128, 512, 1024)


def _shifted(trig: dict, shift: list[int]) -> dict:
    """const + A cos(2 pi x) + B sin(2 pi x) per axis, translated by k/16 of the period."""
    cos, sin = [], []
    for a, b, k in zip(trig["cos"], trig["sin"], shift):
        phi = 2.0 * math.pi * k / LATTICE
        cos.append(a * math.cos(phi) + b * math.sin(phi))
        sin.append(b * math.cos(phi) - a * math.sin(phi))
    return {"const": trig["const"], "cos": cos, "sin": sin}


def _trig(dim: int, const=0.0, cos=0.0, sin=0.0) -> dict:
    return {"const": const, "cos": [cos] * dim, "sin": [sin] * dim}


def _problem(dim: int, n: int, coeffs: tuple[float, float], shift: list[int]) -> dict:
    a_amp, b_amp = coeffs
    a = _shifted(_trig(dim, cos=a_amp), shift)
    drift = []
    for i in range(dim):
        comp = {"const": 0.0, "cos": [0.0] * dim, "sin": [b_amp if j == i else 0.0 for j in range(dim)]}
        drift.append(_shifted(comp, shift))
    return {
        "dim": dim,
        "n": n,
        "alpha": 0.5,
        "potential": {"form": "separable", "kappa": 1.0, "a_const": a["const"],
                      "a_cos": a["cos"], "a_sin": a["sin"]},
        "drift": {"components": drift},
    }


def _mms(dim: int, grids: list[int], shift: list[int]) -> dict:
    return {
        "grids": grids,
        "u": _shifted(_trig(dim, sin=0.1), shift),
        "m": _shifted(_trig(dim, const=1.0, cos=0.25), shift),
    }


class _Builder:
    def __init__(self, workload: str, seed: int | None, config_dir: Path):
        self.rng = None if seed is None else random.Random(f"{workload}:{seed}")
        self.config_dir = config_dir
        self.ops: list[dict] = []

    def shift(self, dim: int) -> list[int]:
        return [0 if self.rng is None else self.rng.randrange(LATTICE) for _ in range(dim)]

    def shuffled(self, items: list) -> list:
        items = list(items)
        if self.rng is not None:
            self.rng.shuffle(items)
        return items

    def config(self, name: str, doc: dict) -> str:
        path = self.config_dir / f"{name}.json"
        path.write_text(json.dumps(doc, indent=1))
        return str(path)

    def op(self, op_id: str, kind: str, argv: list[str], dim: int, n: int, shift: list[int]) -> None:
        self.ops.append({"id": op_id, "kind": kind, "argv": argv, "out": op_id,
                         "dim": dim, "n": n, "shift": shift})


def build(workload: str, seed: int | None, config_dir: Path) -> list[dict]:
    """Write the workload's configs into config_dir and return its operations in order.

    Each operation is one `mfgtorus.cli.main` call; output paths are relative to
    the directory the worker runs the pass in.  seed=None gives the unshifted,
    unshuffled inputs the stored reference was made from.
    """
    b = _Builder(workload, seed, config_dir)
    if workload == "solve-2d":
        n = SOLVE_2D_N
        solved = []
        for tag, coeffs in (("ref", REFERENCE_SET), ("strong", STRONG_SET)):
            shift = b.shift(2)
            cfg = b.config(f"solve-{tag}", {"problem": _problem(2, n, coeffs, shift)})
            b.op(f"solve-{tag}", "solve", ["solve", "--config", cfg, "--out", f"solve-{tag}"], 2, n, shift)
            solved.append((tag, cfg, shift))
        for tag, cfg, shift in solved:
            state = [f"solve-{tag}/u.csv", f"solve-{tag}/m.csv"]
            b.op(f"verify-{tag}", "verify",
                 ["verify", "--config", cfg, "--out", f"verify-{tag}", "--state", *state], 2, n, shift)
    elif workload == "mms-2d":
        shift = b.shift(2)
        cfg = b.config("mms-2d", {"problem": _problem(2, MMS_2D_GRIDS[0], REFERENCE_SET, shift),
                                  "mms": _mms(2, MMS_2D_GRIDS, shift)})
        b.op("mms-2d", "mms", ["mms", "--config", cfg, "--out", "mms-2d"], 2, MMS_2D_GRIDS[-1], shift)
    elif workload == "batch-1d":
        flat = [0]
        sweep = {key: b.shuffled(values) for key, values in SWEEP.items()}
        cfg = b.config("sweep", {"problem": _problem(1, SWEEP_N, REFERENCE_SET, flat), "sweep": sweep})
        b.op("sweep", "sweep", ["sweep", "--config", cfg, "--out", "sweep", "--jobs", "1"], 1, SWEEP_N, flat)
        cfg = b.config("mms-1d", {"problem": _problem(1, MMS_1D_GRIDS[0], REFERENCE_SET, flat),
                                  "mms": _mms(1, MMS_1D_GRIDS, flat)})
        b.op("mms-1d", "mms", ["mms", "--config", cfg, "--out", "mms-1d"], 1, MMS_1D_GRIDS[-1], flat)
        for n in SOLVE_1D_NS:
            cfg = b.config(f"solve-{n}", {"problem": _problem(1, n, REFERENCE_SET, flat)})
            b.op(f"solve-{n}", "solve", ["solve", "--config", cfg, "--out", f"solve-{n}"], 1, n, flat)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return b.ops
