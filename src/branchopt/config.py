"""Declarative run configuration.

A run is described by one YAML file with five sections — ``plant``,
``transcription``, ``solver``, ``controller``, ``experiment`` — each
optional; omitted keys fall back to the defaults below.  The same file
drives every CLI verb, so a study is reproducible from the config plus
a master seed.  A key the schema below does not name raises
``ValueError``: at the top level and in ``plant``, ``controller`` and
``experiment`` when the run config is made, in ``transcription`` and
``solver`` (the fields of ``TranscriptionConfig`` and ``SolverOpts``)
when those are built from it.

Schema (version 1)::

    schema_version: 1
    plant:
      name: cartpole | arm          # which plant to build
      params: {...}                 # plant parameter overrides
      env: {x_wall: -0.5, e: 0.8, mu: 0.7}   # cartpole only
    transcription:
      N: 60
      contact_node: 20              # nominal variant
      k_first: 18                   # branched variants
      k_last: 22
      n_rejoin: 7
      n_branch_full: 100
      d_fixed: 0.05                 # guard half-width at the window edges
      dt_min: 1.0e-3
      dt_max: 5.0e-2
    solver:                         # the five SolverOpts fields
      tol_eq: 1.0e-6                # acceptance: equality violation
      tol_ineq: 1.0e-6              #   inequality violation
      tol_stat: 1.0e-4              #   stationarity
      max_outer: 60                 # augmented-Lagrangian iterations
      max_inner: 600                # LM iterations per inner solve
    controller:
      q_diag: [10, 0, 10, 0]
      r: 0.1
      arm_kp: 80.0                  # catch-speed sweep tracking gains
      arm_kd: 12.0
    experiment:
      seed: 0
      workers: 4
      n_samples: 200
      horizon: 10.0
      dt_sim: 1.0e-3
      x_wall_range: [-0.7, -0.3]
      e_range: [0.7, 0.9]
      debounce_window: 0.05
      final_tol: [0.05, 0.05, 0.1, 0.1]
      conditions: [[x, theta, xdot, thetadot], ...]
      n_r_values: [7, 12, 20, 40, 70]
      post_impact_budget: 100
      catch_target: [0.0, 0.3]
      sweep_d: 0.20
      sweep_heights: 11
      sweep_half_range: 0.2
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np
import yaml

from . import nlp
from . import transcription as tr

__all__ = ["RunConfig", "load_config", "build_plant", "transcription_config",
           "solver_opts", "SCHEMA_VERSION"]

SCHEMA_VERSION = 1

# Swing-up initial conditions exercised by the robustness study, as
# [cart position, pole angle, cart velocity, pole angular velocity];
# theta = pi is the upright pole.
DEFAULT_CONDITIONS = [
    [0.0, math.pi, 0.0, 5.5],
    [0.0, math.pi, 0.0, 6.5],
    [0.0, 3.53, -1.0, 3.5],
    [0.0, 3.45, -0.5, 4.5],
]


# Keys of the sections without a dataclass of their own.
_SECTION_KEYS = {
    "plant": {"name", "params", "env"},
    "controller": {"q_diag", "r", "arm_kp", "arm_kd"},
    "experiment": {"seed", "workers", "n_samples", "horizon", "dt_sim",
                   "x_wall_range", "e_range", "debounce_window", "final_tol",
                   "conditions", "n_r_values", "post_impact_budget",
                   "catch_target", "sweep_d", "sweep_heights",
                   "sweep_half_range"},
}
_TOP_LEVEL_KEYS = {"schema_version", "transcription", "solver", *_SECTION_KEYS}


def _reject_unknown(where, keys, known):
    unknown = sorted(set(keys) - set(known))
    if unknown:
        raise ValueError(f"unknown {where} keys: {unknown}")


def _section(d, name):
    v = d.get(name, {})
    if v is None:
        return {}
    if not isinstance(v, dict):
        raise ValueError(f"config section '{name}' must be a mapping")
    return dict(v)


@dataclass
class RunConfig:
    plant: dict = field(default_factory=dict)
    transcription: dict = field(default_factory=dict)
    solver: dict = field(default_factory=dict)
    controller: dict = field(default_factory=dict)
    experiment: dict = field(default_factory=dict)

    def __post_init__(self):
        for name, known in _SECTION_KEYS.items():
            _reject_unknown(name, getattr(self, name), known)

    # -- plant ---------------------------------------------------------
    @property
    def plant_name(self):
        return self.plant.get("name", "cartpole")

    # -- experiment ----------------------------------------------------
    def exp(self, key, default):
        return self.experiment.get(key, default)

    @property
    def seed(self):
        return int(self.exp("seed", 0))

    @property
    def workers(self):
        return int(self.exp("workers", 4))

    @property
    def conditions(self):
        return [np.asarray(c, dtype=float)
                for c in self.exp("conditions", DEFAULT_CONDITIONS)]


def load_config(path=None, overrides=None) -> RunConfig:
    """Load a YAML run config; ``None`` gives all defaults.

    ``overrides`` is a flat dict of experiment-section overrides (used by
    CLI flags such as --seed / --workers).
    """
    data = {}
    if path is not None:
        with open(path) as fh:
            data = yaml.safe_load(fh) or {}
    version = data.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ValueError(f"unsupported config schema_version {version}")
    _reject_unknown("top-level", data, _TOP_LEVEL_KEYS)
    experiment = _section(data, "experiment")
    experiment.update(
        {k: v for k, v in (overrides or {}).items() if v is not None})
    return RunConfig(
        plant=_section(data, "plant"),
        transcription=_section(data, "transcription"),
        solver=_section(data, "solver"),
        controller=_section(data, "controller"),
        experiment=experiment,
    )


def build_plant(cfg: RunConfig):
    """Instantiate (adapter, params, env_or_None) for the configured plant."""
    name = cfg.plant_name
    params = cfg.plant.get("params", {}) or {}
    if name == "cartpole":
        from .plants import cartpole
        from .plants.cartpole_ocp import CartPoleOcp
        p = dataclasses.replace(cartpole.CartPoleParams(), **params)
        env_over = cfg.plant.get("env", {}) or {}
        env = dataclasses.replace(cartpole.env_from_params(p), **env_over)
        return CartPoleOcp(p, env), p, env
    if name == "arm":
        from .plants import arm
        from .plants.arm_ocp import ArmCatchOcp
        p = dataclasses.replace(arm.ArmCatchParams(), **params)
        return ArmCatchOcp(p), p, None
    raise ValueError(f"unknown plant '{name}'")


def transcription_config(cfg: RunConfig, variant, x_init, x_end,
                         **over) -> tr.TranscriptionConfig:
    base = dict(cfg.transcription)
    base.update(over)
    base.setdefault("N", 60)
    if variant == "nominal":
        base.setdefault("contact_node", 20)
        base.pop("k_first", None)
        base.pop("k_last", None)
    else:
        base.setdefault("k_first", 18)
        base.setdefault("k_last", 22)
        base.pop("contact_node", None)
    _reject_unknown("transcription", base,
                    tr.TranscriptionConfig.__dataclass_fields__)
    return tr.TranscriptionConfig(
        variant=variant,
        x_init=np.asarray(x_init, dtype=float),
        x_end=np.asarray(x_end, dtype=float),
        **base,
    )


def solver_opts(cfg: RunConfig) -> nlp.SolverOpts:
    return nlp.SolverOpts.from_dict(cfg.solver)
