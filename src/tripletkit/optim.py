"""Adam with an exponentially decaying learning-rate schedule.

The schedule keeps the base rate until t0, then decays by a total factor
of 0.001 between t0 and t1, where training stops. beta1 is dropped to 0.5
once the decay phase starts.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .numcore import DimensionError, GradBundle, MlpParams

DECAY_FACTOR = 1e-3
BETA1_DECAY = 0.5


class ScheduleError(ValueError):
    """Iteration outside the configured schedule."""


@dataclass(frozen=True)
class Schedule:
    eps0: float = 1e-3
    t0: int = 15000
    t1: int = 25000

    def __post_init__(self):
        if not (0 < self.t0 < self.t1):
            raise ScheduleError(f"need 0 < t0 < t1, got t0={self.t0}, t1={self.t1}")
        if self.eps0 <= 0:
            raise ScheduleError("eps0 must be positive")


def lr_at(schedule: Schedule, t: int) -> float:
    if t < 0 or t > schedule.t1:
        raise ScheduleError(f"iteration {t} outside [0, {schedule.t1}]")
    if t <= schedule.t0:
        return schedule.eps0
    frac = (t - schedule.t0) / (schedule.t1 - schedule.t0)
    return schedule.eps0 * DECAY_FACTOR ** frac


@dataclass
class AdamState:
    """Moment estimates plus hyperparameters; shapes mirror MlpParams."""

    first_moment: list[tuple[np.ndarray, np.ndarray]]
    second_moment: list[tuple[np.ndarray, np.ndarray]]
    step_count: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps_hat: float = 1e-8

    @classmethod
    def for_params(cls, params: MlpParams) -> "AdamState":
        zeros = lambda: [(np.zeros_like(w), np.zeros_like(b))
                         for w, b in params.layers]
        return cls(zeros(), zeros())

    def to_dict(self) -> dict:
        return {
            "step_count": self.step_count,
            "beta1": self.beta1,
            "beta2": self.beta2,
            "eps_hat": self.eps_hat,
            "first_moment": [{"weight": w.tolist(), "bias": b.tolist()}
                             for w, b in self.first_moment],
            "second_moment": [{"weight": w.tolist(), "bias": b.tolist()}
                              for w, b in self.second_moment],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "AdamState":
        unpack = lambda key: [
            (np.asarray(l["weight"]), np.asarray(l["bias"])) for l in doc[key]
        ]
        return cls(unpack("first_moment"), unpack("second_moment"),
                   doc["step_count"], doc["beta1"], doc["beta2"], doc["eps_hat"])


def adam_step(params: MlpParams, grads: GradBundle, state: AdamState,
              lr: float) -> tuple[MlpParams, AdamState]:
    """One Adam update with bias correction; returns fresh params and state."""
    grads.check_congruent(params)
    if len(state.first_moment) != len(params.layers):
        raise DimensionError("optimizer state does not match parameters")
    if lr <= 0:
        raise ValueError("lr must be positive")
    t = state.step_count + 1
    b1, b2 = state.beta1, state.beta2
    new_layers, new_m, new_v = [], [], []
    for (w, b), (dw, db), (mw, mb), (vw, vb) in zip(
            params.layers, grads.layers, state.first_moment, state.second_moment):
        upd, ms, vs = [], [], []
        for p, g, m, v in ((w, dw, mw, vw), (b, db, mb, vb)):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            m_hat = m / (1 - b1 ** t)
            v_hat = v / (1 - b2 ** t)
            upd.append(p - lr * m_hat / (np.sqrt(v_hat) + state.eps_hat))
            ms.append(m)
            vs.append(v)
        new_layers.append((upd[0], upd[1]))
        new_m.append((ms[0], ms[1]))
        new_v.append((vs[0], vs[1]))
    new_params = MlpParams(new_layers, slope=params.slope,
                           layer_widths=list(params.layer_widths),
                           seed=params.seed)
    new_state = AdamState(new_m, new_v, t, b1, b2, state.eps_hat)
    return new_params, new_state


def beta1_drop(state: AdamState, t: int, schedule: Schedule) -> AdamState:
    """Set beta1 to 0.5 once the decay phase is entered; idempotent."""
    if t >= schedule.t0 and state.beta1 != BETA1_DECAY:
        return replace(state, beta1=BETA1_DECAY)
    return state
