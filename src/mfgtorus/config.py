"""Run configuration: strict JSON schema, defaults, resolved-config round-trip.

Unknown keys are rejected at every level so a typo cannot silently fall back
to a default.  Every default is a field default of the dataclass the section
parses into (`NewtonOptions`, `StepOptions`, `DiagnosticsConfig`, ...).
`RunConfig.resolved()` materializes every default; re-running with the emitted
copy reproduces the run byte for byte.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields

from .errors import ConfigError
from .grid import GridSpec
from .problem import DriftSpec, PotentialSpec, ProblemSpec, TrigForm, POTENTIAL_FORMS
from .solver import NewtonOptions, StepOptions


def _check_keys(obj: dict, allowed: set[str], where: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")


def _is_number(val) -> bool:
    """A finite int or float, not a bool.  Python's json parses NaN and Infinity; the schema rejects them."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        return False
    try:
        return math.isfinite(val)
    except OverflowError:  # an integer beyond the float range
        return False


def _number(obj: dict, key: str, where: str, default=None, required=False):
    if key not in obj:
        if required:
            raise ConfigError(f"{where}: missing required key {key!r}")
        return default
    val = obj[key]
    if not _is_number(val):
        raise ConfigError(f"{where}.{key}: expected a finite number, got {val!r}")
    return val


def _integer(obj: dict, key: str, where: str) -> int:
    val = _number(obj, key, where)
    if isinstance(val, float) and not val.is_integer():
        raise ConfigError(f"{where}.{key}: expected an integer, got {val!r}")
    return int(val)


def _number_list(obj: dict, key: str, where: str, length: int | None = None, default=None):
    if key not in obj:
        return default
    val = obj[key]
    if not isinstance(val, list) or not all(_is_number(v) for v in val):
        raise ConfigError(f"{where}.{key}: expected a list of finite numbers")
    if length is not None and len(val) != length:
        raise ConfigError(f"{where}.{key}: expected {length} entries, got {len(val)}")
    return [float(v) for v in val]


def _trig(obj: dict, dim: int, where: str, prefix: str = "", other: tuple[str, ...] = ()) -> TrigForm:
    """The TrigForm under keys `<prefix>const`, `<prefix>cos`, `<prefix>sin`; obj may hold `other` too."""
    _check_keys(obj, {prefix + "const", prefix + "cos", prefix + "sin", *other}, where)
    return TrigForm(
        const=float(_number(obj, prefix + "const", where, default=0.0)),
        cos_amp=tuple(_number_list(obj, prefix + "cos", where, dim, [0.0] * dim)),
        sin_amp=tuple(_number_list(obj, prefix + "sin", where, dim, [0.0] * dim)),
    )


def _trig_dict(t: TrigForm, prefix: str = "") -> dict:
    """Inverse of `_trig`."""
    return {prefix + "const": t.const, prefix + "cos": list(t.cos_amp), prefix + "sin": list(t.sin_amp)}


def _options(cls, obj: dict, where: str):
    """Build the options dataclass `cls` from the keys present in obj.

    The dataclass is the schema: its field names are the accepted keys, its
    defaults fill absent keys, and an integer default makes a key an integer.
    """
    _check_keys(obj, {f.name for f in fields(cls)}, where)
    values = {
        f.name: (
            _integer(obj, f.name, where) if isinstance(f.default, int)
            else float(_number(obj, f.name, where))
        )
        for f in fields(cls)
        if f.name in obj
    }
    try:
        return cls(**values)
    except ValueError as err:
        raise ConfigError(f"{where}: {err}") from err


def parse_problem(obj: dict) -> ProblemSpec:
    where = "problem"
    _check_keys(obj, {"dim", "n", "alpha", "potential", "drift", "epsilon_monotone"}, where)
    dim = _number(obj, "dim", where, required=True)
    n = _number(obj, "n", where, required=True)
    if dim not in (1, 2) or int(dim) != dim:
        raise ConfigError(f"{where}.dim: must be 1 or 2")
    if int(n) != n or n < 8:
        raise ConfigError(f"{where}.n: must be an integer >= 8")
    grid = GridSpec(int(dim), int(n))

    alpha = _number(obj, "alpha", where, required=True)
    if not 0.0 <= alpha < 1.0:
        raise ConfigError(
            f"{where}.alpha: the congestion exponent must satisfy 0 <= alpha < 1, got {alpha}"
        )

    pot_obj = obj.get("potential")
    if pot_obj is None:
        raise ConfigError(f"{where}: missing required key 'potential'")
    pw = f"{where}.potential"
    a = _trig(pot_obj, grid.dim, pw, "a_", other=("form", "kappa"))
    form = pot_obj.get("form")
    if form not in POTENTIAL_FORMS:
        raise ConfigError(f"{pw}.form: must be one of {POTENTIAL_FORMS}, got {form!r}")
    kappa = float(_number(pot_obj, "kappa", pw, default=0.0))
    if kappa < 0:
        raise ConfigError(f"{pw}.kappa: must be >= 0")

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

    eps = float(_number(obj, "epsilon_monotone", where, default=0.0))
    if eps < 0:
        raise ConfigError(f"{where}.epsilon_monotone: must be >= 0")

    try:
        return ProblemSpec(grid, float(alpha), PotentialSpec(form, a, kappa), drift, eps)
    except ValueError as err:
        raise ConfigError(f"{where}: {err}") from err


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
class DiagnosticsConfig:
    """`checks` defaults to every known check."""

    r_values: tuple[float, ...] = (1.0, 2.0, 4.0)
    checks: tuple[str, ...] = ("mass", "positivity", "sup", "moment", "cancellation", "identity")
    identity_budget_factor: float = 50.0


@dataclass(frozen=True)
class MmsConfig:
    grids: tuple[int, ...]
    u: TrigForm
    m: TrigForm


@dataclass(frozen=True)
class SweepConfig:
    alphas: tuple[float, ...]
    kappas: tuple[float, ...]
    drift_scales: tuple[float, ...] = (1.0,)


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
            out["mms"] = {
                "grids": list(self.mms.grids),
                "u": _trig_dict(self.mms.u),
                "m": _trig_dict(self.mms.m),
            }
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
    )
    if "problem" not in doc:
        raise ConfigError("config: missing required key 'problem'")
    problem = parse_problem(doc["problem"])
    dim = problem.grid.dim

    solver = _options(NewtonOptions, doc.get("solver", {}), "solver")
    continuation = _options(StepOptions, doc.get("continuation", {}), "continuation")

    dg = doc.get("diagnostics", {})
    _check_keys(dg, {f.name for f in fields(DiagnosticsConfig)}, "diagnostics")
    known = DiagnosticsConfig.checks
    checks = dg.get("checks", list(known))
    if not isinstance(checks, list) or any(c not in known for c in checks):
        raise ConfigError(f"diagnostics.checks: entries must be among {known}")
    diagnostics = DiagnosticsConfig(
        r_values=tuple(_number_list(dg, "r_values", "diagnostics", None, DiagnosticsConfig.r_values)),
        checks=tuple(checks),
        identity_budget_factor=float(
            _number(dg, "identity_budget_factor", "diagnostics", DiagnosticsConfig.identity_budget_factor)
        ),
    )
    if any(r <= problem.alpha for r in diagnostics.r_values):
        raise ConfigError("diagnostics.r_values: every r must exceed alpha")

    out_obj = doc.get("output", {})
    _check_keys(out_obj, {"dump_matrix"}, "output")
    dump = out_obj.get("dump_matrix", RunConfig.dump_matrix)
    if not isinstance(dump, bool):
        raise ConfigError("output.dump_matrix: expected a boolean")

    seed = _number(doc, "seed", "config", RunConfig.seed)
    if int(seed) != seed or seed < 0:
        raise ConfigError("config.seed: expected a nonnegative integer")

    mms = None
    if "mms" in doc:
        mo = doc["mms"]
        _check_keys(mo, {"grids", "u", "m"}, "mms")
        grids = _number_list(mo, "grids", "mms")
        if grids is None or len(grids) < 3 or any(not g.is_integer() or g < 8 for g in grids):
            raise ConfigError("mms.grids: expected a list of >= 3 integer grid sizes")
        if any(b != 2 * a for a, b in zip(grids, grids[1:])):
            raise ConfigError("mms.grids: each grid must double the previous one")
        if "u" not in mo or "m" not in mo:
            raise ConfigError("mms: both 'u' and 'm' closed forms are required")
        mms = MmsConfig(
            grids=tuple(int(g) for g in grids),
            u=_trig(mo["u"], dim, "mms.u"),
            m=_trig(mo["m"], dim, "mms.m"),
        )

    sweep = None
    if "sweep" in doc:
        so = doc["sweep"]
        _check_keys(so, {"alphas", "kappas", "drift_scales"}, "sweep")
        alphas = _number_list(so, "alphas", "sweep", None, None)
        kappas = _number_list(so, "kappas", "sweep", None, None)
        if not alphas or not kappas:
            raise ConfigError("sweep: 'alphas' and 'kappas' are required non-empty lists")
        if any(not 0.0 <= a < 1.0 for a in alphas):
            raise ConfigError("sweep.alphas: every alpha must satisfy 0 <= alpha < 1")
        if any(k < 0 for k in kappas):
            raise ConfigError("sweep.kappas: must be >= 0")
        if problem.potential.form == "x_only" and any(k != 0.0 for k in kappas):
            raise ConfigError("sweep.kappas: nonzero kappa needs a potential form with an m-part")
        sweep = SweepConfig(
            alphas=tuple(alphas),
            kappas=tuple(kappas),
            drift_scales=tuple(_number_list(so, "drift_scales", "sweep", None, SweepConfig.drift_scales)),
        )

    return RunConfig(
        problem=problem,
        solver=solver,
        continuation=continuation,
        diagnostics=diagnostics,
        dump_matrix=dump,
        seed=int(seed),
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
