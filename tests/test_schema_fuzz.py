"""A seeded fuzz of the config schema: every config it accepts solves, or exits 1 or 2 with one line.

Two tests run `mfgtorus solve` in process at n <= 16, each case under a wall
bound; pytest turns a RuntimeWarning into an error (pyproject.toml), so a
warning fails a case too.

- Every boundary value of every option (the fields of `NewtonOptions`,
  `StepOptions` and `DiagnosticsConfig`) and of the `problem` keys, one at a
  time, on a fixed 2-D problem with every other value at its default.
- Random configs from `random.Random(SEED)`: the `problem` section and a
  random subset of the option keys, each drawn within a range the schema
  accepts, and now and then at a boundary value instead.
"""

import json
import random
import signal
from dataclasses import fields

import pytest

from mfgtorus import NewtonOptions, StepOptions
from mfgtorus.cli import main
from mfgtorus.diagnostics import DiagnosticsConfig

SEED = 20261020
DRAWS = 40
BOUNDARY = 0.05  # the share of drawn values taken from their boundary list
# the wall bound of one case: every case at the seed takes under 2 s on a 2-core host, while
# armijo_c = 1, which the schema rejects, ran 19-29 s on the fixed 2-D problem when it was admitted
CASE_SECONDS = 6.0
OPTIONS = {"solver": NewtonOptions, "continuation": StepOptions, "diagnostics": DiagnosticsConfig}
SECTION = {f.name: section for section, cls in OPTIONS.items() for f in fields(cls)}
TYPE = {f.name: f.type for cls in OPTIONS.values() for f in fields(cls)}
# (low, high) of the log-uniform draw of each number option: values the schema accepts, one by one
RANGES = {"tol_residual": (1e-11, 1e-6), "max_iters": (1, 100), "positivity_fraction": (0.01, 0.99),
          "armijo_c": (1e-6, 0.5), "min_damping": (1e-10, 1e-2), "initial_step": (1e-3, 0.25),
          "growth": (1.0, 3.0), "shrink": (0.1, 0.9), "max_step": (0.05, 1.0), "min_step": (1e-8, 1e-3),
          "grow_iters": (1, 10), "identity_budget_factor": (1.0, 1e3)}
# the boundary values of each drawn quantity: the number options by their type, the rest by name
BOUNDARIES = {"float": [0.0, -1.0, 1.0, 1e-300, 1e300], "int": [0, -1, 1, 1.5, 10**6],
              "r_values": [[], [0.5], [60.0], [1.0, 1e3]], "checks": [[], ["bogus"]],
              "n": [7, 8, 16], "alpha": [0.0, 0.999, 1.0, -0.1], "form": ["x_only", ""],
              "kappa": [0.0, -1.0, 1e6], "drift_scale": [0.0, 30.0, 1e6], "epsilon_monotone": [0.0, -0.1, 1e6]}
EDITS = [(name, value) for name in [*TYPE, "n", "alpha", "form", "kappa", "drift_scale", "epsilon_monotone"]
         for value in BOUNDARIES[name if name in BOUNDARIES else TYPE[name]]]


def _trig(rng: random.Random, dim: int, scale: float, prefix: str = "") -> dict:
    return {prefix + "const": rng.uniform(-scale, scale),
            prefix + "cos": [rng.uniform(-scale, scale) for _ in range(dim)],
            prefix + "sin": [rng.uniform(-scale, scale) for _ in range(dim)]}


def fixed_config(name: str, value) -> dict:
    """A 2-D n = 8 problem with drift, every option at its default, and `name` set to `value`."""
    v = {"n": 8, "alpha": 0.5, "form": "separable", "kappa": 1.0, "drift_scale": 1.0, name: value}
    problem = {"dim": 2, "n": v["n"], "alpha": v["alpha"],
               "potential": {"form": v["form"], "kappa": v["kappa"], "a_cos": [0.5, 0.5], "a_sin": [0.0, 0.0]},
               "drift": {"components": [{"cos": [0.0, 0.0], "sin": [0.3 * v["drift_scale"]] * 2}] * 2}}
    if name == "epsilon_monotone":
        problem["epsilon_monotone"] = value
    return {"problem": problem, **({SECTION[name]: {name: value}} if name in SECTION else {})}


def draw_config(rng: random.Random) -> dict:
    """Random values the schema accepts one by one, each now and then at a boundary value instead."""

    def pick(name, valid):
        boundary = BOUNDARIES[name if name in BOUNDARIES else TYPE[name]]
        return rng.choice(boundary) if rng.random() < BOUNDARY else valid()

    def option(name):
        if name == "r_values":
            return sorted(rng.uniform(1.0, 6.0) for _ in range(rng.randint(1, 3)))
        if name == "checks":
            return rng.sample(DiagnosticsConfig.checks, rng.randint(1, 6))
        low, high = RANGES[name]
        value = low * (high / low) ** rng.random()
        return round(value) if TYPE[name] == "int" else value

    dim = rng.choice((1, 2))
    problem = {"dim": dim, "n": pick("n", lambda: rng.randint(8, 16)),
               "alpha": pick("alpha", lambda: rng.uniform(0.0, 0.95)),
               "potential": {"form": pick("form", lambda: rng.choice(("separable", "saturating"))),
                             "kappa": pick("kappa", lambda: rng.uniform(0.0, 3.0)), **_trig(rng, dim, 2.0, "a_")}}
    if rng.random() < 0.7:
        scale = pick("drift_scale", lambda: rng.uniform(0.0, 3.0))
        problem["drift"] = {"components": [_trig(rng, dim, scale) for _ in range(dim)]}
    if rng.random() < 0.5:
        problem["epsilon_monotone"] = pick("epsilon_monotone", lambda: rng.uniform(0.0, 0.5))
    doc = {"problem": problem}
    for section, cls in OPTIONS.items():
        doc[section] = {f.name: pick(f.name, lambda: option(f.name)) for f in fields(cls) if rng.random() < 0.4}
    return doc


class CaseTimeout(Exception):
    pass


def _time_out(signum, frame):
    raise CaseTimeout(f"more than {CASE_SECONDS} s")


def run_case(doc: dict, tmp_path, capsys, tag: str):
    """(exit code, or the error that escaped `main`, and the stderr lines) of `mfgtorus solve` on doc,
    which CaseTimeout stops after CASE_SECONDS."""
    config = tmp_path / f"{tag}.json"
    config.write_text(json.dumps(doc))
    previous = signal.signal(signal.SIGALRM, _time_out)
    signal.setitimer(signal.ITIMER_REAL, CASE_SECONDS)
    try:
        rc = main(["solve", "--config", str(config), "--out", str(tmp_path / tag)])
    except Exception as err:  # a traceback, a RuntimeWarning or the wall bound
        rc = f"{type(err).__name__}: {err}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    lines = capsys.readouterr().err.splitlines()
    return rc, lines, rc == 0 and lines == [] or rc in (1, 2) and len(lines) == 1


@pytest.mark.parametrize("name, value", EDITS)
def test_every_boundary_value_is_rejected_or_ends_with_one_line(tmp_path, capsys, name, value):
    rc, lines, ok = run_case(fixed_config(name, value), tmp_path, capsys, "case")
    assert ok, (rc, lines)


def test_every_drawn_config_solves_or_exits_with_one_line(tmp_path, capsys):
    rng = random.Random(SEED)
    failures, codes = [], []
    for case in range(DRAWS):
        doc = draw_config(rng)
        rc, lines, ok = run_case(doc, tmp_path, capsys, f"case{case}")
        codes.append(rc)
        if not ok:
            failures.append(f"case {case}: {rc}, stderr {lines}: {json.dumps(doc)}")
    assert failures == []
    # the draw reaches every outcome: solved, rejected by the schema, failed in the solver
    assert {0, 1, 2} <= set(codes)
