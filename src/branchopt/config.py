"""Declarative run configuration.

A run is described by one YAML file with five sections — ``plant``,
``transcription``, ``solver``, ``controller``, ``experiment`` — each
optional.  The same file drives every CLI verb, so a study is
reproducible from the config plus a master seed.  ``RunConfig`` fills in
every key the file leaves out and checks every setting, once, when it is
made: a value no verb can run with fails at load, naming its key, before
any solve, whichever verb reads it.  A rule that an object owns is
checked by building that object.  Every default is here but the field
defaults of ``TranscriptionConfig`` and ``SolverOpts``, which the keys
left out here keep.  A key the schema below does not name raises
``ValueError``, in every section and at the top level.

Schema (version 2), with each key's rule; counts are integers, list
entries finite numbers, every plant.params and plant.env value a finite
number or a list of them, and YAML's on, yes and true are neither::

    schema_version: 2               # 1 read q_diag in another state order
    plant:
      name: cartpole | arm          # which plant to build
      params: {...}                 # fields of CartPoleParams (dt_impact > 0
                                    #   and finite; not x_wall, e and mu,
                                    #   which env sets) or ArmCatchParams
                                    #   (catch_height: 0.3, the level catch
                                    #   point's z on the drop line, in reach;
                                    #   w_a >= 0; p_ball0 and v_ball0 (x, z))
      env: {x_wall: -0.5, e: 0.8, mu: 0.7}   # cartpole only; CartPoleEnv's
                                    #   fields, e in [0, 1], mu >= 0
    transcription:                  # cart-pole defaults; the arm's differ
      N: 60                         # arm: 40
      k_first: 18                   # 0 < k_first <= k_last < N; arm: 16
      k_last: 22                    # arm: 24; nominal contact at the
                                    #   window's middle node, 20
      n_rejoin: 7                   # >= 1
      n_branch_full: 100            # >= 1
      d_fixed: 0.05                 # window-edge guard half-width, finite
                                    #   and >= 0; arm: 0.20
      dt_min: 1.0e-3                # > 0
      dt_max: 5.0e-2                # >= dt_min, finite
    solver:                         # the five SolverOpts fields
      tol_eq: 1.0e-6                # acceptance: equality violation,
      tol_ineq: 1.0e-6              #   inequality violation and
      tol_stat: 1.0e-4              #   stationarity, each finite and > 0
      max_outer: 60                 # augmented-Lagrangian iterations, >= 1
      max_inner: 600                # LM iterations per inner solve, >= 1
    controller:                     # LQR weights of the tracking gains
      q_diag: [10, 10, 0, 0]        # >= 0, one per state in state order
                                    #   [q; q̇], like final_tol; arm:
                                    #   [10, 10, 10, 0, 0, 0]
      r: 0.1                        # per input, finite and > 0
    experiment:
      seed: 0                       # >= 0
      workers: 4                    # processes; <= 1 runs serially, and
                                    #   never more than CPUs or tasks
      n_samples: 200                # >= 1
      horizon: 10.0                 # finite, at least one step of dt_sim
      dt_sim: 1.0e-3                # finite and > 0
      x_wall_range: [-0.7, -0.3]    # [low, high], low <= high
      e_range: [0.7, 0.9]           # the same, within [0, 1]
      debounce_window: 0.05         # >= 0
      final_tol: [0.05, 0.05, 0.1, 0.1]   # >= 0, one per state
      conditions: [[x, theta, xdot, thetadot], ...]   # one or more
      n_r_values: [7, 12, 20, 40, 70]   # each in [1, post_impact_budget]
      post_impact_budget: 100       # >= 1
      sweep_heights: 11             # >= 1
      sweep_half_range: 0.2         # finite and >= 0
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np
import yaml

from . import control
from . import nlp
from .nlp import is_number
from . import transcription as tr
from .plants import arm, cartpole
from .plants.arm_ocp import ArmCatchOcp
from .plants.cartpole_ocp import CartPoleOcp

__all__ = ["RunConfig", "load_config", "build_plant", "transcription_config",
           "solver_opts", "SCHEMA_VERSION"]

# version 1 read q_diag in the order [q1, q̇1, q2, q̇2, ...]: its files
# fail at load rather than run with other weights
SCHEMA_VERSION = 2

# Every key of these sections, with its default.
_DEFAULTS = {
    "plant": {"name": "cartpole", "params": {}, "env": {}},
    "experiment": {
        "seed": 0, "workers": 4, "n_samples": 200, "horizon": 10.0,
        "dt_sim": 1e-3, "x_wall_range": [-0.7, -0.3], "e_range": [0.7, 0.9],
        "debounce_window": 0.05, "final_tol": [0.05, 0.05, 0.1, 0.1],
        # swing-up initial conditions [x, theta, xdot, thetadot] of the
        # robustness study; theta = pi is the upright pole
        "conditions": [[0.0, math.pi, 0.0, 5.5], [0.0, math.pi, 0.0, 6.5],
                       [0.0, 3.53, -1.0, 3.5], [0.0, 3.45, -0.5, 4.5]],
        "n_r_values": [7, 12, 20, 40, 70], "post_impact_budget": 100,
        "sweep_heights": 11, "sweep_half_range": 0.2},
}
# Per plant.  The transcription keys left out here, and the solver keys,
# keep the TranscriptionConfig and SolverOpts defaults.
_TRANSCRIPTION_DEFAULTS = {
    "cartpole": {"N": 60, "k_first": 18, "k_last": 22},
    "arm": {"N": 40, "k_first": 16, "k_last": 24, "d_fixed": 0.20},
}
_Q_DIAG_DEFAULTS = {"cartpole": np.diag(control.DEFAULT_Q).tolist(),
                    "arm": [10.0] * 3 + [0.0] * 3}  # one weight per state
# the fields plant.params and plant.env may set; the env alone sets the
# cart-pole's wall, restitution and friction
_ENV_KEYS = set(cartpole.CartPoleEnv.__dataclass_fields__)
_PLANT_KEYS = {
    "cartpole": (set(cartpole.CartPoleParams.__dataclass_fields__) - _ENV_KEYS,
                 _ENV_KEYS),
    "arm": (set(arm.ArmCatchParams.__dataclass_fields__), set()),
}
_TRANSCRIPTION_KEYS = (set(tr.TranscriptionConfig.__dataclass_fields__)
                       - {"variant", "x_init", "x_end"})
_TOP_LEVEL_KEYS = {"schema_version", "transcription", "solver", "controller",
                   *_DEFAULTS}
# the experiment's rules for single values: key -> (what it must be, test)
_EXPERIMENT_RULES = {
    "seed": ("an integer of at least 0", lambda v: _is_integer(v, 0)),
    "workers": ("an integer", lambda v: _is_integer(v, -math.inf)),
    "n_samples": ("an integer of at least 1", lambda v: _is_integer(v, 1)),
    "post_impact_budget": ("an integer of at least 1",
                           lambda v: _is_integer(v, 1)),
    "sweep_heights": ("an integer of at least 1", lambda v: _is_integer(v, 1)),
    "horizon": ("positive", lambda v: is_number(v) and 0.0 < v < math.inf),
    "dt_sim": ("positive", lambda v: is_number(v) and 0.0 < v < math.inf),
    "debounce_window": ("non-negative", lambda v: is_number(v) and v >= 0),
    "sweep_half_range": ("non-negative and finite",
                         lambda v: is_number(v) and 0.0 <= v < math.inf),
}


def _is_integer(value, low):
    return (is_number(value) and isinstance(value, numbers.Integral)
            and value >= low)


def _is_finite(value):
    return is_number(value) and math.isfinite(value)


def _vector(value, n):
    """``value`` as an array if a list of ``n`` finite numbers, else None."""
    if (isinstance(value, (list, tuple)) and len(value) == n
            and all(_is_finite(v) for v in value)):
        return np.asarray(value, dtype=float)
    return None


def _built(key, make, *args, **kwargs):
    """Build an object that checks its own fields; its error names ``key``."""
    try:
        return make(*args, **kwargs)
    except (TypeError, ValueError) as err:
        raise ValueError(f"{key}: {err}") from None


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


def _check_experiment(ex):
    """Reject an experiment value that no verb can run with, naming its
    key."""
    for key, (what, test) in _EXPERIMENT_RULES.items():
        if not test(ex[key]):
            raise ValueError(
                f"experiment {key} must be {what}, got {ex[key]!r}")
    horizon, dt_sim = ex["horizon"], ex["dt_sim"]
    if not 0.5 < horizon / dt_sim < math.inf:  # ``simulate`` rounds it
        raise ValueError(f"horizon {horizon} must span one or more, finitely "
                         f"many steps of dt_sim {dt_sim}")
    # each of tradeoff's sure cells spends n_r of the budget per branch
    budget, n_r_values = ex["post_impact_budget"], ex["n_r_values"]
    if not (isinstance(n_r_values, (list, tuple)) and all(
            _is_integer(n_r, 1) and n_r <= budget for n_r in n_r_values)):
        raise ValueError(
            f"each experiment n_r_values entry must be an integer in [1, "
            f"post_impact_budget {budget}], got {n_r_values!r}")
    n_x = len(cartpole.X_EQ)
    tol = _vector(ex["final_tol"], n_x)
    if tol is None or tol.min() < 0.0:
        raise ValueError(f"final_tol must be {n_x} non-negative numbers, "
                         f"one per state, got {ex['final_tol']!r}")
    conditions = ex["conditions"]
    if not (isinstance(conditions, (list, tuple)) and conditions
            and all(_vector(c, n_x) is not None for c in conditions)):
        raise ValueError(f"conditions must be one or more cart-pole states "
                         f"[x, theta, xdot, thetadot], got {conditions!r}")
    # the CartPoleEnv of each end of the sampled box
    for key, env_field in (("x_wall_range", "x_wall"), ("e_range", "e")):
        if _vector(ex[key], 2) is None:
            raise ValueError(f"{key} must be two numbers [low, high], got "
                             f"{ex[key]!r}")
        lo, hi = ex[key]
        if not lo <= hi:
            raise ValueError(f"{key} [{lo}, {hi}] is reversed")
        for end in (lo, hi):
            _built(f"experiment {key} {ex[key]}", cartpole.CartPoleEnv,
                   **{env_field: end})


@dataclass
class RunConfig:
    """A run's five sections, checked and filled in with every default."""

    plant: dict = field(default_factory=dict)
    transcription: dict = field(default_factory=dict)
    solver: dict = field(default_factory=dict)
    controller: dict = field(default_factory=dict)
    experiment: dict = field(default_factory=dict)

    def __post_init__(self):
        for name, defaults in _DEFAULTS.items():
            given = getattr(self, name)
            _reject_unknown(name, given, defaults)
            setattr(self, name, {**defaults, **given})
        name = self.plant["name"]
        if name not in _TRANSCRIPTION_DEFAULTS:
            raise ValueError(f"unknown plant '{name}'")
        for key, known in zip(("params", "env"), _PLANT_KEYS[name]):
            self.plant[key] = _section(self.plant, key)
            _reject_unknown(f"plant.{key}", self.plant[key], known)
            # the plant dataclasses check ranges, not types
            for field_name, value in self.plant[key].items():
                items = value if isinstance(value, (list, tuple)) else [value]
                if not all(_is_finite(v) for v in items):
                    raise ValueError(
                        f"plant.{key} {field_name} must be a finite number "
                        f"or a list of them, got {value!r}")
        q_default = _Q_DIAG_DEFAULTS[name]
        _reject_unknown("controller", self.controller, ("q_diag", "r"))
        self.controller = {"q_diag": q_default, "r": control.DEFAULT_R,
                           **self.controller}
        q_diag, r = self.controller["q_diag"], self.controller["r"]
        if not (is_number(r) and 0.0 < r < math.inf):
            raise ValueError(f"controller r must be a positive finite "
                             f"number, got {r!r}")
        q = _vector(q_diag, len(q_default))
        if q is None or q.min() < 0.0:
            raise ValueError(
                f"controller q_diag must be {len(q_default)} non-negative "
                f"finite numbers, one per state, got {q_diag!r}")
        _reject_unknown("transcription", self.transcription,
                        _TRANSCRIPTION_KEYS)
        self.transcription = {**_TRANSCRIPTION_DEFAULTS[name],
                              **self.transcription}
        _reject_unknown("solver", self.solver,
                        nlp.SolverOpts.__dataclass_fields__)
        # the objects that own a rule check it when built: the solver
        # settings; the counts, the window against N and the time-step
        # bounds, which no variant relaxes; the plant's fields
        nlp.SolverOpts(**self.solver)
        transcription_config(self, "sure", None, None)
        _built("plant", build_plant, self)
        _check_experiment(self.experiment)

    # -- plant ---------------------------------------------------------
    @property
    def plant_name(self):
        return self.plant["name"]

    # -- experiment ----------------------------------------------------
    def exp(self, key, default):
        # ``default`` is never read: every key is filled in.  Only the
        # benchmark harness calls this; it goes with the next benchmark
        # change, as ``tr.build_*`` do.
        return self.experiment[key]

    @property
    def conditions(self):
        return [np.asarray(c, dtype=float)
                for c in self.experiment["conditions"]]


def load_config(path=None, overrides=None) -> RunConfig:
    """Load a YAML run config; ``None`` gives all defaults.

    ``overrides`` replaces keys of the experiment section; a ``None``
    value keeps the file's.  The CLI passes ``--seed`` and ``--workers``
    this way.
    """
    data = {}
    if path is not None:
        with open(path) as fh:
            data = yaml.safe_load(fh)
        data = {} if data is None else data  # an empty file
        if not isinstance(data, dict):
            raise ValueError(f"config {path}: the top level must be a "
                             f"mapping, not a {type(data).__name__}")
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
    """Instantiate (adapter, params, env_or_None) for the configured plant.

    The cart-pole params' copy of the env's friction ``mu`` takes the
    env's value, so the two agree.
    """
    params = cfg.plant["params"]
    if cfg.plant_name == "cartpole":
        env = cartpole.CartPoleEnv(**cfg.plant["env"])
        p = cartpole.CartPoleParams(**params, mu=env.mu)
        return CartPoleOcp(p, env), p, env
    p = arm.ArmCatchParams(**params)
    return ArmCatchOcp(p), p, None


def transcription_config(cfg: RunConfig, variant, x_init, x_end,
                         **over) -> tr.TranscriptionConfig:
    """The configured ``variant``, with ``over`` replacing keys."""
    return tr.TranscriptionConfig(
        variant=variant,
        x_init=np.asarray(x_init, dtype=float),
        x_end=np.asarray(x_end, dtype=float),
        **{**cfg.transcription, **over},
    )


def solver_opts(cfg: RunConfig) -> nlp.SolverOpts:
    return nlp.SolverOpts(**cfg.solver)
