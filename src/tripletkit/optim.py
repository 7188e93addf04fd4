"""Adam with an exponentially decaying learning-rate schedule.

The schedule keeps the base rate until t0, then decays by a total factor
of 0.001 between t0 and t1, where training stops. beta1 is dropped to 0.5
once the decay phase starts; beta2 and eps_hat are fixed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numcore import (CheckpointError, DimensionError, MlpParams,
                      layers_from_json, layers_to_json, reading_checkpoint)

DECAY_FACTOR = 1e-3
BETA1_DECAY = 0.5
BETA2 = 0.999
EPS_HAT = 1e-8


class ScheduleError(ValueError):
    """Iteration outside the configured schedule."""


@dataclass(frozen=True)
class Schedule:
    eps0: float
    t0: int
    t1: int

    def __post_init__(self):
        if not (0 < self.t0 < self.t1):
            raise ScheduleError(f"need 0 < t0 < t1, got t0={self.t0}, t1={self.t1}")
        if not 0.0 < self.eps0 < math.inf:      # NaN fails too
            raise ScheduleError(f"eps0 must be positive and finite, got {self.eps0}")


def lr_at(schedule: Schedule, t: int) -> float:
    if t < 0 or t > schedule.t1:
        raise ScheduleError(f"iteration {t} outside [0, {schedule.t1}]")
    if t <= schedule.t0:
        return schedule.eps0
    frac = (t - schedule.t0) / (schedule.t1 - schedule.t0)
    return schedule.eps0 * DECAY_FACTOR ** frac


@dataclass
class AdamState:
    """Moment estimates, step count and the current beta1. The moments are
    `MlpParams` laid out as the model; `m` and `v` are their flat vectors."""

    first_moment: MlpParams
    second_moment: MlpParams
    step_count: int = 0
    beta1: float = 0.9

    def __post_init__(self):
        self.m, self.v = self.first_moment.flat, self.second_moment.flat
        self.shapes = self.first_moment.shapes
        if self.second_moment.shapes != self.shapes:
            raise DimensionError("first and second moments differ in layout")
        # scratch for adam_step, so that an update allocates nothing
        self._tmp, self._step = np.empty_like(self.m), np.empty_like(self.m)

    @classmethod
    def for_params(cls, params: MlpParams) -> "AdamState":
        zeros = [(np.zeros_like(w), np.zeros_like(b)) for w, b in params.layers]
        return cls(MlpParams(zeros), MlpParams(zeros))

    def to_dict(self) -> dict:
        return {
            "step_count": self.step_count,
            "beta1": self.beta1,
            "beta2": BETA2,
            "eps_hat": EPS_HAT,
            "first_moment": layers_to_json(self.first_moment.layers),
            "second_moment": layers_to_json(self.second_moment.layers),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "AdamState":
        """The state `to_dict` wrote; anything else, other beta2 or eps_hat
        values, a step count that is not an int in [0, 2**63) or a beta1
        that is not a float in [0, 1) or moments that are not one model's
        layout included, raises CheckpointError."""
        with reading_checkpoint("Adam state"):
            if (doc["beta2"], doc["eps_hat"]) != (BETA2, EPS_HAT):
                raise CheckpointError(f"Adam beta2 and eps_hat must be "
                                      f"{BETA2} and {EPS_HAT}")
            steps, beta1 = doc["step_count"], doc["beta1"]
            if type(steps) is not int or not 0 <= steps < 2 ** 63:
                raise CheckpointError(f"Adam step_count must be an int in "
                                      f"[0, 2**63), got {steps!r}")
            if type(beta1) is not float or not 0.0 <= beta1 < 1.0:
                raise CheckpointError(f"Adam beta1 must be a float in [0, 1), "
                                      f"got {beta1!r}")
            return cls(*(MlpParams(layers_from_json(doc[key])) for key in
                         ("first_moment", "second_moment")), steps, beta1)


def adam_step(params: MlpParams, grads: MlpParams, state: AdamState,
              lr: float) -> None:
    """One Adam update with bias correction, made in place on `params`
    and `state`."""
    if not params.shapes == grads.shapes == state.shapes:
        raise DimensionError("gradients or Adam state do not fit params")
    if lr <= 0:
        raise ValueError("lr must be positive")
    state.step_count += 1
    t, b1, b2 = state.step_count, state.beta1, BETA2
    m, v, g, tmp, step = state.m, state.v, grads.flat, state._tmp, state._step
    # m = b1*m + (1-b1)*g;  v = b2*v + ((1-b2)*g)*g
    m *= b1
    m += np.multiply(g, 1 - b1, out=tmp)
    v *= b2
    v += np.multiply(np.multiply(g, 1 - b2, out=tmp), g, out=tmp)
    # p -= (lr * m/(1-b1^t)) / (sqrt(v/(1-b2^t)) + eps_hat)
    denom = np.sqrt(np.divide(v, 1 - b2 ** t, out=tmp), out=tmp)
    denom += EPS_HAT
    np.multiply(np.divide(m, 1 - b1 ** t, out=step), lr, out=step)
    params.flat -= np.divide(step, denom, out=step)


def beta1_drop(state: AdamState, t: int, schedule: Schedule) -> None:
    """Set `state`'s beta1 to 0.5 once the decay phase is entered;
    idempotent."""
    if t >= schedule.t0:
        state.beta1 = BETA1_DECAY
