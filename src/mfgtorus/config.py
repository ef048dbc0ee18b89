"""Run configuration: strict JSON schema, defaults, resolved-config round-trip.

Unknown keys are rejected at every level so a typo cannot silently fall back
to a default.  Every default is a field default of the dataclass the section
parses into, which lives beside the code that reads it (`NewtonOptions` and
`StepOptions` in `solver`, `DiagnosticsConfig` in `diagnostics`), and every
rule on a value is checked once, by the type or function that owns it (the
`mms` rules are `verification`'s); only the rules that span sections are
checked here.
`RunConfig.resolved()` materializes every default; re-running with the emitted
copy reproduces the run byte for byte.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields, replace

from .diagnostics import DiagnosticsConfig, moment_majorant
from .errors import ConfigError, MFGError, NonPositiveDensity
from .grid import GridSpec
from .problem import DriftSpec, PotentialSpec, ProblemSpec, TrigForm
from .solver import NewtonOptions, StepOptions
from .verification import ManufacturedCase, refinement_grids


def _check_keys(obj: dict, allowed: set[str], where: str, required: tuple[str, ...] = ()) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    for key in required:
        if key not in obj:
            raise ConfigError(f"{where}: missing required key {key!r}")


def _is_number(val) -> bool:
    """A finite int or float, not a bool.  Python's json parses NaN and Infinity; the schema rejects them."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        return False
    try:
        return math.isfinite(val)
    except OverflowError:  # an integer beyond the float range
        return False


def _float(val, where: str) -> float:
    if not _is_number(val):
        raise ConfigError(f"{where}: expected a finite number, got {val!r}")
    return float(val)


def _integer(val, where: str) -> int:
    if not _float(val, where).is_integer():
        raise ConfigError(f"{where}: expected an integer, got {val!r}")
    return int(val)


def _floats(val, where: str) -> tuple[float, ...]:
    if not isinstance(val, list) or not all(_is_number(v) for v in val):
        raise ConfigError(f"{where}: expected a list of finite numbers")
    return tuple(float(v) for v in val)


def _strings(val, where: str) -> tuple[str, ...]:
    if not isinstance(val, list) or not all(isinstance(v, str) for v in val):
        raise ConfigError(f"{where}: expected a list of strings")
    return tuple(val)


# The parser of each field annotation a flat section uses (annotations are strings here).
_PARSERS = {"int": _integer, "float": _float, "tuple[float, ...]": _floats, "tuple[str, ...]": _strings}


def _build(where: str, cls, *args, **kwargs):
    """cls(*args, **kwargs); a ValueError or NonPositiveDensity it raises becomes a ConfigError under `where`."""
    try:
        return cls(*args, **kwargs)
    except (ValueError, NonPositiveDensity) as err:
        raise ConfigError(f"{where}: {err}") from err


def _options(cls, obj: dict, where: str):
    """Build the flat dataclass `cls` from the JSON object obj.

    The dataclass is the schema: its field names are the accepted keys, each
    field's annotation picks the parser of its key, its default fills an
    absent key, a field without a default is required, and `__post_init__`
    holds the rules on the values.
    """
    required = tuple(f.name for f in fields(cls) if f.default is MISSING)
    _check_keys(obj, {f.name for f in fields(cls)}, where, required)
    values = {
        f.name: _PARSERS[f.type](obj[f.name], f"{where}.{f.name}") for f in fields(cls) if f.name in obj
    }
    return _build(where, cls, **values)


def _trig(obj: dict, dim: int, where: str, prefix: str = "", other: tuple[str, ...] = ()) -> TrigForm:
    """The TrigForm under keys `<prefix>const`, `<prefix>cos`, `<prefix>sin`; obj may hold `other` too."""
    _check_keys(obj, {prefix + "const", prefix + "cos", prefix + "sin", *other}, where)
    amps = []
    for key in (prefix + "cos", prefix + "sin"):
        amp = _floats(obj.get(key, [0.0] * dim), f"{where}.{key}")
        if len(amp) != dim:
            raise ConfigError(f"{where}.{key}: expected {dim} entries, got {len(amp)}")
        amps.append(amp)
    return TrigForm(_float(obj.get(prefix + "const", TrigForm.const), f"{where}.{prefix}const"), *amps)


def _trig_dict(t: TrigForm, prefix: str = "") -> dict:
    """Inverse of `_trig`."""
    return {prefix + "const": t.const, prefix + "cos": list(t.cos_amp), prefix + "sin": list(t.sin_amp)}


def parse_problem(obj: dict) -> ProblemSpec:
    """The `problem` section; the spec types' own checks are reported under the section path."""
    where = "problem"
    keys = ("dim", "n", "alpha", "potential", "drift", "epsilon_monotone")
    _check_keys(obj, set(keys), where, required=keys[:4])
    grid = _build(where, GridSpec, _integer(obj["dim"], f"{where}.dim"), _integer(obj["n"], f"{where}.n"))
    alpha = _float(obj["alpha"], f"{where}.alpha")
    if not 0.0 <= alpha < 1.0:  # narrower than ProblemSpec's: a config is run by the solver
        raise ConfigError(
            f"{where}.alpha: the congestion exponent must satisfy 0 <= alpha < 1, got {alpha}"
        )

    pw = f"{where}.potential"
    a = _trig(obj["potential"], grid.dim, pw, "a_", other=("form", "kappa"))
    kappa = _float(obj["potential"].get("kappa", PotentialSpec.kappa), f"{pw}.kappa")
    potential = _build(pw, PotentialSpec, obj["potential"].get("form"), a, kappa)

    drift_obj = obj.get("drift", {"components": None})
    dw = f"{where}.drift"
    _check_keys(drift_obj, {"components"}, dw)
    comp_list = drift_obj.get("components")
    if comp_list is None:
        drift = DriftSpec.zero(grid.dim)
    else:
        if not isinstance(comp_list, list) or len(comp_list) != grid.dim:
            raise ConfigError(f"{dw}.components: expected {grid.dim} component objects")
        drift = DriftSpec(
            tuple(_trig(c, grid.dim, f"{dw}.components[{i}]") for i, c in enumerate(comp_list))
        )

    eps = _float(obj.get("epsilon_monotone", ProblemSpec.epsilon_monotone), f"{where}.epsilon_monotone")
    return _build(where, ProblemSpec, grid, alpha, potential, drift, eps)


def problem_to_dict(spec: ProblemSpec) -> dict:
    return {
        "dim": spec.grid.dim,
        "n": spec.grid.n,
        "alpha": spec.alpha,
        "potential": {
            "form": spec.potential.form,
            "kappa": spec.potential.kappa,
            **_trig_dict(spec.potential.a, "a_"),
        },
        "drift": {"components": [_trig_dict(c) for c in spec.drift.components]},
        "epsilon_monotone": spec.epsilon_monotone,
    }


@dataclass(frozen=True)
class MmsConfig:
    grids: tuple[int, ...]
    case: ManufacturedCase  # on the run's problem


@dataclass(frozen=True)
class SweepConfig:
    alphas: tuple[float, ...]
    kappas: tuple[float, ...]
    drift_scales: tuple[float, ...] = (1.0,)

    def __post_init__(self):
        for f in fields(self):
            if not getattr(self, f.name):
                raise ValueError(f"{f.name} must be a non-empty list")
        if any(not 0.0 <= a < 1.0 for a in self.alphas):
            raise ValueError("every entry of alphas must satisfy 0 <= alpha < 1")
        if any(k < 0 for k in self.kappas):
            raise ValueError("every entry of kappas must be >= 0")

    @property
    def cells(self) -> list[tuple[float, float, float]]:
        """(alpha, kappa, drift scale) of every cell, in the order of the sweep table's rows."""
        return list(itertools.product(self.alphas, self.kappas, self.drift_scales))


def sweep_cell_problem(problem: ProblemSpec, alpha: float, kappa: float, drift_scale: float) -> ProblemSpec:
    """The problem one sweep cell solves: `problem` at the cell's alpha and kappa, with its drift scaled."""
    potential = replace(problem.potential, kappa=kappa)
    return replace(problem, alpha=alpha, potential=potential, drift=problem.drift.scaled(drift_scale))


@dataclass(frozen=True)
class RunConfig:
    problem: ProblemSpec
    solver: NewtonOptions = field(default_factory=NewtonOptions)
    continuation: StepOptions = field(default_factory=StepOptions)
    diagnostics: DiagnosticsConfig = field(default_factory=DiagnosticsConfig)
    dump_matrix: bool = False
    seed: int = 0
    mms: MmsConfig | None = None
    sweep: SweepConfig | None = None

    def resolved(self) -> dict:
        out = {
            "problem": problem_to_dict(self.problem),
            "solver": _plain(self.solver),
            "continuation": _plain(self.continuation),
            "diagnostics": _plain(self.diagnostics),
            "output": {"dump_matrix": self.dump_matrix},
            "seed": self.seed,
        }
        if self.mms is not None:
            case = self.mms.case
            out["mms"] = {"grids": list(self.mms.grids), "u": _trig_dict(case.u_exact), "m": _trig_dict(case.m_exact)}
        if self.sweep is not None:
            out["sweep"] = _plain(self.sweep)
        return out


def _plain(options) -> dict:
    """A flat dataclass as a JSON object: field names as keys, tuples as lists."""
    return {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(options).items()}


def parse_config(doc: dict) -> RunConfig:
    _check_keys(
        doc,
        {"problem", "solver", "continuation", "diagnostics", "output", "seed", "mms", "sweep"},
        "config",
        required=("problem",),
    )
    problem = parse_problem(doc["problem"])

    diagnostics = _options(DiagnosticsConfig, doc.get("diagnostics", {}), "diagnostics")
    if any(r <= problem.alpha for r in diagnostics.r_values):
        raise ConfigError("diagnostics.r_values: every r must exceed alpha")
    sweep = _options(SweepConfig, doc["sweep"], "sweep") if "sweep" in doc else None
    # a snapshot checks the moment majorant at each r > alpha of its problem, the run's or a sweep cell's; the
    # majorant depends on (problem, r) alone, so no grid or continuation can rescue an overflow
    checked = [("diagnostics.r_values", problem)]
    checked += [("sweep cell alpha = %r, kappa = %r, drift_scale = %r" % cell, sweep_cell_problem(problem, *cell))
                for cell in (sweep.cells if sweep else ())]
    for where, spec in checked if "moment" in diagnostics.checks else ():
        for r in (r for r in diagnostics.r_values if r > spec.alpha):
            try:
                moment_majorant(spec, r)
            except MFGError as err:
                raise ConfigError(f"{where}: {err}") from err

    out_obj = doc.get("output", {})
    _check_keys(out_obj, {"dump_matrix"}, "output")
    dump = out_obj.get("dump_matrix", RunConfig.dump_matrix)
    if not isinstance(dump, bool):
        raise ConfigError("output.dump_matrix: expected a boolean")

    seed = _integer(doc.get("seed", RunConfig.seed), "config.seed")
    if seed < 0:
        raise ConfigError("config.seed: expected a nonnegative integer")

    mms = None
    if "mms" in doc:
        mo = doc["mms"]
        _check_keys(mo, {"grids", "u", "m"}, "mms", required=("grids", "u", "m"))
        grids = tuple(_integer(g, "mms.grids") for g in _floats(mo["grids"], "mms.grids"))
        _build("mms.grids", refinement_grids, problem.grid.dim, grids)
        u, m = (_trig(mo[key], problem.grid.dim, f"mms.{key}") for key in ("u", "m"))
        mms = MmsConfig(grids, _build("mms.m", ManufacturedCase, problem, u, m))

    return RunConfig(
        problem=problem,
        solver=_options(NewtonOptions, doc.get("solver", {}), "solver"),
        continuation=_options(StepOptions, doc.get("continuation", {}), "continuation"),
        diagnostics=diagnostics,
        dump_matrix=dump,
        seed=seed,
        mms=mms,
        sweep=sweep,
    )


def load_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path} is not valid JSON: {err}") from err
    return parse_config(doc)
